// Package cliflags is the single definition of the analysis-tuning
// command-line flags shared by cmd/symsim (one-shot runs, job submission)
// and cmd/symsimd (server-side job defaults). Both binaries register the
// same flag set through Register, so the policy/engine/budget vocabulary
// cannot drift between the CLI and the daemon; the mapping from flag
// values to a core.Config lives here too, next to the flags it interprets.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"time"

	"symsim/internal/core"
	"symsim/internal/csm"
	"symsim/internal/vvp"
)

// Analysis holds the parsed analysis-tuning flags.
type Analysis struct {
	Policy      string
	K           int
	MaxStates   int
	Constraints string

	Workers int
	MemX    string
	Engine  string
	Lanes   int

	Deadline     time.Duration
	MaxCycles    uint64
	MaxForks     int
	MaxCSMStates int
}

// Register installs the shared analysis flags on fs and returns the
// struct they parse into. Flag names and defaults are identical for every
// registering command.
func Register(fs *flag.FlagSet) *Analysis {
	a := &Analysis{}
	fs.StringVar(&a.Policy, "policy", "merge-all", "conservative state policy: merge-all | clustered | exact | constrained")
	fs.IntVar(&a.K, "k", 4, "states per PC for the clustered policy")
	fs.IntVar(&a.MaxStates, "max-states", 4096, "state budget for the exact policy")
	fs.StringVar(&a.Constraints, "constraints", "", "constraint file for the constrained policy")
	fs.IntVar(&a.Workers, "workers", 1, "parallel path workers")
	fs.StringVar(&a.MemX, "memx", "verilog", "X-address write semantics: verilog | sound")
	fs.StringVar(&a.Engine, "engine", "kernel", "simulation engine: kernel (compiled) | interp (reference interpreter) | batch (bit-parallel, up to 64 paths per sweep)")
	fs.IntVar(&a.Lanes, "lanes", 0, "scenario lanes the batch engine packs per sweep, 1..64 (0 = 64; ignored by scalar engines)")
	fs.DurationVar(&a.Deadline, "deadline", 0, "wall-clock budget; on expiry the run degrades soundly instead of erroring")
	fs.Uint64Var(&a.MaxCycles, "max-sim-cycles", 0, "total simulated-cycle budget across all paths (0 = unlimited)")
	fs.IntVar(&a.MaxForks, "max-forks", 0, "X-branch fork budget (0 = unlimited)")
	fs.IntVar(&a.MaxCSMStates, "max-csm-states", 0, "live conservative-state budget (0 = unlimited)")
	return a
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
	fs.BoolVar(&c.Coordinator, "coordinator", false, "serve the cluster coordination API under /cluster/ next to the job API: the state of every distributed run (frontier, CSM, toggle profile) and the cluster-wide result memo table")
	fs.StringVar(&c.Worker, "worker", "", "lease path segments from the coordinator at this base URL (e.g. http://host:8466), simulate them and report back; also routes local cache misses through the coordinator's memo table")
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

// ParseEngine maps an -engine flag value to its engine.
func ParseEngine(s string) (vvp.Engine, error) {
	switch s {
	case "kernel":
		return vvp.EngineKernel, nil
	case "interp":
		return vvp.EngineInterp, nil
	case "batch":
		return vvp.EngineBatch, nil
	}
	return 0, fmt.Errorf("unknown -engine %q (want kernel | interp | batch)", s)
}

// NewPolicy constructs the CSM manager a -policy value selects. The
// constrained policy is rejected here: it needs a constraint file and a
// platform state spec, which only the one-shot CLI provides (see
// Analysis.Config).
func NewPolicy(policy string, k, maxStates int) (csm.Manager, error) {
	switch policy {
	case "merge-all":
		return csm.NewMergeAll(), nil
	case "clustered":
		return csm.NewClustered(k), nil
	case "exact":
		return csm.NewExact(maxStates), nil
	case "constrained":
		return nil, fmt.Errorf("policy %q needs a -constraints file and platform context", policy)
	}
	return nil, fmt.Errorf("unknown -policy %q (want merge-all | clustered | exact | constrained)", policy)
}

// Budget assembles the core budget the flags select.
func (a *Analysis) Budget() core.Budget {
	return core.Budget{
		WallClock:    a.Deadline,
		MaxCycles:    a.MaxCycles,
		MaxForks:     a.MaxForks,
		MaxCSMStates: a.MaxCSMStates,
	}
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

// Config interprets the flags into a core.Config for a run against spec
// (needed only by the constrained policy; spec may be nil otherwise).
func (a *Analysis) Config(spec *vvp.StateSpec) (core.Config, error) {
	cfg := core.Config{Workers: a.Workers, Lanes: a.Lanes, Budget: a.Budget()}
	var err error
	if cfg.MemX, err = ParseMemX(a.MemX); err != nil {
		return cfg, err
	}
	if cfg.Engine, err = ParseEngine(a.Engine); err != nil {
		return cfg, err
	}
	if cfg.Policy, err = a.ManagerFor(spec); err != nil {
		return cfg, err
	}
	return cfg, nil
}
