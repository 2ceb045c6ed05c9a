// Package cliflags is the single definition of the analysis vocabulary:
// what analysis to run, written once as Spec. The same struct is the flag
// set cmd/symsim and its submit subcommand register (Register), the JSON
// body of POST /jobs (service.JobSpec is an alias of it), the spec a
// durable job record persists, and the spec the distributed explorer's
// library API takes (cluster.RunSpec) and its leases carry to a worker.
// One Normalize fills what a request left out from the flag defaults — a
// request means only what it says, whichever door it came through — and
// rejects what no door accepts, and one Config maps the result to a
// core.Config. Every door runs one explorer on the compiled kernel: the
// spec names no worker count, no engine, no lane count and no queue
// priority (symsimd's queue is a FIFO); a JSON body from an older client
// that names any of them is read as if it did not.
package cliflags

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"symsim/internal/core"
	"symsim/internal/csm"
	"symsim/internal/vvp"
)

// Spec describes one co-analysis: a built-in design/benchmark pair plus
// the tuning knobs. Zero-valued tuning fields mean "not said" and are
// filled by Normalize; the normalized spec is what gets persisted, keyed,
// leased and echoed in status views.
type Spec struct {
	// Design and Bench select the platform, e.g. "dr5" / "tea8".
	Design string `json:"design"`
	Bench  string `json:"bench"`

	// Policy selects the CSM policy: merge-all | clustered | exact. (The
	// flag also takes constrained, which needs a -constraints file: only
	// Analysis maps it, in a local run, and Normalize turns it away.) K
	// and MaxStates parameterize clustered and exact.
	Policy    string `json:"policy,omitempty"`
	K         int    `json:"k,omitempty"`
	MaxStates int    `json:"maxStates,omitempty"`

	// Workers is read by nothing: every door runs one explorer, Normalize
	// zeroes it and Config does not map it, so a body naming "workers" is
	// the same request as one that does not. The field stays only because
	// the benchmark module names it in a cluster.RunSpec literal.
	Workers int `json:"workers,omitempty"`

	// Budgets (graceful degradation, see core.Budget). DeadlineMS is the
	// wall-clock budget in milliseconds.
	DeadlineMS   int64  `json:"deadlineMs,omitempty"`
	MaxCycles    uint64 `json:"maxCycles,omitempty"`
	MaxForks     int    `json:"maxForks,omitempty"`
	MaxCSMStates int    `json:"maxCsmStates,omitempty"`
}

// Analysis is the spec as the command line gives it: the flags parse into
// the embedded Spec, and the constraint file, which only a local run can
// read, rides beside it.
type Analysis struct {
	Spec
	Constraints string
}

// Register installs the shared analysis flags on fs and returns the
// struct they parse into. Flag names and defaults are identical for every
// registering command, and the defaults are Normalize's fallbacks.
func Register(fs *flag.FlagSet) *Analysis {
	a := &Analysis{}
	fs.StringVar(&a.Policy, "policy", "merge-all", "conservative state policy: merge-all | clustered | exact | constrained")
	fs.IntVar(&a.K, "k", 4, "states per PC for the clustered policy")
	fs.IntVar(&a.MaxStates, "max-states", 4096, "state budget for the exact policy")
	fs.StringVar(&a.Constraints, "constraints", "", "constraint file for the constrained policy")
	fs.Func("deadline", "wall-clock budget; on expiry the run degrades soundly instead of erroring", func(s string) error {
		d, err := time.ParseDuration(s)
		if err == nil && d%time.Millisecond != 0 {
			err = errors.New("the budget is carried in whole milliseconds")
		}
		a.DeadlineMS = d.Milliseconds()
		return err
	})
	fs.Uint64Var(&a.MaxCycles, "max-sim-cycles", 0, "total simulated-cycle budget across all paths (0 = unlimited)")
	fs.IntVar(&a.MaxForks, "max-forks", 0, "X-branch fork budget (0 = unlimited)")
	fs.IntVar(&a.MaxCSMStates, "max-csm-states", 0, "live conservative-state budget (0 = unlimited)")
	return a
}

// flagDefaults is what the flags read when none is given: the one set of
// fallbacks, whichever door a request came through.
var flagDefaults = Register(flag.NewFlagSet("defaults", flag.ContinueOnError)).Spec

// Normalize returns the canonical form of s: zero tuning fields are filled
// from the flag defaults, the parameters the chosen policy ignores and the
// retired worker count are zeroed, so two requests meaning the same
// analysis normalize to identical specs (and one cache key), and the
// result is validated: what Normalize accepts, Config maps.
func (s Spec) Normalize() (Spec, error) {
	if s.Design == "" {
		return s, errors.New("missing design")
	}
	if s.Bench == "" {
		return s, errors.New("missing bench")
	}
	f := &flagDefaults
	s.Policy = cmp.Or(s.Policy, f.Policy)
	s.K = cmp.Or(s.K, f.K)
	s.MaxStates = cmp.Or(s.MaxStates, f.MaxStates)
	s.Workers = 0
	switch s.Policy {
	case "clustered":
		s.MaxStates = 0
	case "exact":
		s.K = 0
	default:
		s.K, s.MaxStates = 0, 0
	}
	if _, err := s.Config(); err != nil {
		return s, err
	}
	if s.DeadlineMS < 0 || s.MaxForks < 0 || s.MaxCSMStates < 0 {
		return s, errors.New("negative budget")
	}
	return s, nil
}

// Config maps a spec to the core.Config it describes: policy and
// budgets, on one explorer over the compiled kernel. It is the one such
// mapping; the job service, the coordinator and its workers add only what
// is theirs (progress, metrics). A name or policy parameter outside the
// vocabulary is an error, so a spec that did not come through Normalize —
// a lease from another version's coordinator — cannot panic the policy
// constructors.
func (s Spec) Config() (core.Config, error) {
	cfg := core.Config{
		Budget: core.Budget{
			WallClock:    time.Duration(s.DeadlineMS) * time.Millisecond,
			MaxCycles:    s.MaxCycles,
			MaxForks:     s.MaxForks,
			MaxCSMStates: s.MaxCSMStates,
		},
	}
	var err error
	cfg.Policy, err = NewPolicy(s.Policy, s.K, s.MaxStates)
	return cfg, err
}

// NewPolicy constructs the CSM manager a policy name and its parameter
// select. The constrained policy is rejected here, which is how every door
// but the one-shot CLI (Analysis.ManagerFor) turns it away.
func NewPolicy(policy string, k, maxStates int) (csm.Manager, error) {
	switch policy {
	case "merge-all":
		return csm.NewMergeAll(), nil
	case "clustered":
		if k <= 0 {
			return nil, fmt.Errorf("clustered policy needs k > 0, got %d", k)
		}
		return csm.NewClustered(k), nil
	case "exact":
		if maxStates <= 0 {
			return nil, fmt.Errorf("exact policy needs maxStates > 0, got %d", maxStates)
		}
		return csm.NewExact(maxStates), nil
	case "constrained":
		return nil, errors.New("the constrained policy needs a local -constraints fact file and the platform's state spec, which a job or run spec does not carry; run constrained analyses locally with symsim -policy constrained -constraints FILE")
	}
	return nil, fmt.Errorf("unknown -policy %q (want merge-all | clustered | exact | constrained)", policy)
}

// ManagerFor constructs the CSM manager the flags select for a run
// against spec (needed only by the constrained policy, whose constraint
// file references state bits; spec may be nil otherwise). Constraint
// validation errors from csm.NewConstrained — out-of-range bits, empty
// ranges, inverted bounds — surface here as a *csm.ConstraintError
// wrapped with the file name, so errors.As recovers the offending fact.
func (a *Analysis) ManagerFor(spec *vvp.StateSpec) (csm.Manager, error) {
	if a.Policy != "constrained" {
		return NewPolicy(a.Policy, a.K, a.MaxStates)
	}
	if spec == nil {
		return nil, fmt.Errorf("constrained policy needs a platform state spec")
	}
	f, err := os.Open(a.Constraints)
	if err != nil {
		return nil, fmt.Errorf("constrained policy needs -constraints: %w", err)
	}
	cons, err := csm.ParseConstraints(f, spec)
	_ = f.Close() // opened read-only; Close cannot lose data
	if err != nil {
		return nil, err
	}
	m, err := csm.NewConstrained(spec.Bits(), cons)
	if err != nil {
		return nil, fmt.Errorf("-constraints %s: %w", a.Constraints, err)
	}
	return m, nil
}

// Config normalizes the flags and maps them to a core.Config for a run
// against spec (needed only by the constrained policy; spec may be nil
// otherwise). The constrained policy is merge-all over states trimmed by
// the facts of the -constraints file, so everything but its manager maps
// as merge-all's does.
func (a *Analysis) Config(spec *vvp.StateSpec) (core.Config, error) {
	s := a.Spec
	if a.Policy == "constrained" {
		s.Policy = "merge-all"
	}
	s, err := s.Normalize()
	if err != nil {
		return core.Config{}, err
	}
	cfg, err := s.Config()
	if err == nil && a.Policy == "constrained" {
		cfg.Policy, err = a.ManagerFor(spec)
	}
	return cfg, err
}
