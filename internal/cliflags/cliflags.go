// Package cliflags is the single definition of the analysis vocabulary:
// what analysis to run, written once as Spec. The same struct is the flag
// set cmd/symsim and cmd/symsimd register (Register), the JSON body of
// POST /jobs and POST /cluster/runs (service.JobSpec and cluster.RunSpec
// are aliases of it), the spec a durable job record persists and the spec
// a lease carries to a worker. One Normalize fills what a request left out
// and rejects what no door accepts, and one Config maps the result to a
// core.Config, so a request means the same analysis whichever door it
// came through.
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

	// Engine (kernel | batch), MemX (verilog | sound), Workers and Lanes
	// tune the simulation machinery. Engine, Workers and Lanes never
	// change a complete result, so they do not enter the cache key. Lanes
	// caps the scenarios the batch engine packs per sweep (1..64, 0 = 64);
	// the kernel ignores it.
	Engine  string `json:"engine,omitempty"`
	MemX    string `json:"memx,omitempty"`
	Workers int    `json:"workers,omitempty"`
	Lanes   int    `json:"lanes,omitempty"`

	// Priority orders the job queue: higher runs first, FIFO within a
	// level. Not a flag of the shared vocabulary (symsim submit has it).
	Priority int `json:"priority,omitempty"`

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
	fs.IntVar(&a.Workers, "workers", 1, "parallel path workers")
	fs.StringVar(&a.MemX, "memx", "verilog", "X-address write semantics: verilog | sound")
	fs.StringVar(&a.Engine, "engine", "kernel", "simulation engine: kernel (compiled) | batch (bit-parallel, up to 64 paths per sweep)")
	fs.IntVar(&a.Lanes, "lanes", 0, "scenario lanes the batch engine packs per sweep, 1..64 (0 = 64; ignored by the kernel)")
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
// from def (a daemon's own flags; nil for none) and then from the flag
// defaults, the parameters the chosen policy ignores are zeroed, so two
// requests meaning the same analysis normalize to identical specs (and one
// cache key), and the result is validated: what Normalize accepts, Config
// maps.
func (s Spec) Normalize(def *Spec) (Spec, error) {
	if s.Design == "" {
		return s, errors.New("missing design")
	}
	if s.Bench == "" {
		return s, errors.New("missing bench")
	}
	var d Spec
	if def != nil {
		d = *def
	}
	f := &flagDefaults
	s.Policy = cmp.Or(s.Policy, d.Policy, f.Policy)
	s.K = cmp.Or(s.K, d.K, f.K)
	s.MaxStates = cmp.Or(s.MaxStates, d.MaxStates, f.MaxStates)
	s.Engine = cmp.Or(s.Engine, d.Engine, f.Engine)
	s.MemX = cmp.Or(s.MemX, d.MemX, f.MemX)
	s.Workers = cmp.Or(s.Workers, d.Workers, f.Workers)
	s.Lanes = cmp.Or(s.Lanes, d.Lanes, f.Lanes)
	s.DeadlineMS = cmp.Or(s.DeadlineMS, d.DeadlineMS, f.DeadlineMS)
	s.MaxCycles = cmp.Or(s.MaxCycles, d.MaxCycles, f.MaxCycles)
	s.MaxForks = cmp.Or(s.MaxForks, d.MaxForks, f.MaxForks)
	s.MaxCSMStates = cmp.Or(s.MaxCSMStates, d.MaxCSMStates, f.MaxCSMStates)
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
	if s.Workers < 0 || s.DeadlineMS < 0 || s.MaxForks < 0 || s.MaxCSMStates < 0 {
		return s, errors.New("negative budget or worker count")
	}
	if s.Lanes < 0 || s.Lanes > vvp.BatchLanes {
		return s, fmt.Errorf("lanes %d out of range [0,%d]", s.Lanes, vvp.BatchLanes)
	}
	if s.Priority < -1<<20 || s.Priority > 1<<20 {
		return s, fmt.Errorf("priority %d out of range", s.Priority)
	}
	return s, nil
}

// Config maps a spec to the core.Config it describes: policy, engine,
// memory-X semantics, workers, lanes and budgets. It is the one such
// mapping; the job service, the coordinator and its workers add only what
// is theirs (checkpoints, progress, metrics). A name or policy parameter
// outside the vocabulary is an error, so a spec that did not come through
// Normalize — a lease from another version's coordinator — cannot panic
// the policy constructors.
func (s Spec) Config() (core.Config, error) {
	cfg := core.Config{
		Workers: s.Workers,
		Lanes:   s.Lanes,
		Budget: core.Budget{
			WallClock:    time.Duration(s.DeadlineMS) * time.Millisecond,
			MaxCycles:    s.MaxCycles,
			MaxForks:     s.MaxForks,
			MaxCSMStates: s.MaxCSMStates,
		},
	}
	var err error
	if cfg.Policy, err = NewPolicy(s.Policy, s.K, s.MaxStates); err != nil {
		return cfg, err
	}
	if cfg.MemX, err = ParseMemX(s.MemX); err != nil {
		return cfg, err
	}
	cfg.Engine, err = ParseEngine(s.Engine)
	return cfg, err
}

// Cluster holds the parsed cluster-mode flags (cmd/symsimd only): one
// daemon serves the coordination API, the others pull work from it.
type Cluster struct {
	Coordinator bool
	Worker      string
	LeaseTTL    time.Duration
	Slots       int
}

// RegisterCluster installs the cluster-mode flags on fs. Like Register,
// it is the single definition of the vocabulary, so the flag parity test
// pins these names too.
func RegisterCluster(fs *flag.FlagSet) *Cluster {
	c := &Cluster{}
	fs.BoolVar(&c.Coordinator, "coordinator", false, "serve the cluster coordination API under /cluster/ next to the job API: the state of every distributed run (frontier, CSM, toggle profile)")
	fs.StringVar(&c.Worker, "worker", "", "lease path segments from the coordinator at this base URL (e.g. http://host:8466), simulate them and report back")
	fs.DurationVar(&c.LeaseTTL, "shard-lease-ttl", 10*time.Second, "path-segment lease TTL: a leased segment with no progress heartbeat this long is put back and leased again under a new epoch (coordinator mode)")
	fs.IntVar(&c.Slots, "worker-slots", 1, "explorers this worker runs concurrently (worker mode)")
	return c
}

// ParseMemX maps a -memx flag value to its policy.
func ParseMemX(s string) (vvp.MemXPolicy, error) {
	switch s {
	case "verilog":
		return vvp.MemXVerilog, nil
	case "sound":
		return vvp.MemXSound, nil
	}
	return 0, fmt.Errorf("unknown -memx %q (want verilog | sound)", s)
}

// ParseEngine maps an -engine flag value to its engine. The reference
// interpreter (vvp.EngineInterp) is the oracle of the differential suites,
// not something a request can select.
func ParseEngine(s string) (vvp.Engine, error) {
	switch s {
	case "kernel":
		return vvp.EngineKernel, nil
	case "batch":
		return vvp.EngineBatch, nil
	}
	return 0, fmt.Errorf("unknown -engine %q (want kernel | batch)", s)
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
	s, err := s.Normalize(nil)
	if err != nil {
		return core.Config{}, err
	}
	cfg, err := s.Config()
	if err == nil && a.Policy == "constrained" {
		cfg.Policy, err = a.ManagerFor(spec)
	}
	return cfg, err
}
