package core

import (
	"fmt"

	"symsim/internal/logic"
)

// frontier is the unexplored worklist of one analysis: the LIFO stack U of
// Algorithm 1 plus the index behind the supersession rule. latest maps each
// direction of each X branch to the start state of the most recent child
// classify pushed for it; pop reports an entry superseded when its start
// state is a strict subset of that state. Ternary simulation is monotone in
// X-widening, so the wider sibling halts no later and observes a superset
// of everything the narrower entry would have (DESIGN.md §5, "Frontier
// supersession") — simulating the narrower one can observe nothing new.
// All methods are called with analysis.mu held.
type frontier struct {
	stack  []entry
	latest map[forkKey]logic.Vec
}

// forkKey names one direction of one X branch.
type forkKey struct {
	pc     uint64
	forced logic.Value
}

func (f *frontier) len() int { return len(f.stack) }

// push puts e on the stack without touching the index: the cold-boot entry
// and interrupted segments going back are not new forks, and refreshing
// latest with one of them could narrow it.
func (f *frontier) push(e entry) { f.stack = append(f.stack, e) }

// pushFork pushes a child classify just created — or, on resume, a pending
// entry in checkpoint order — and records it as the latest for its key.
func (f *frontier) pushFork(e entry) {
	if e.hasForce {
		if f.latest == nil {
			f.latest = make(map[forkKey]logic.Vec)
		}
		f.latest[forkKey{e.state.PC, e.forced}] = e.state.Bits
	}
	f.stack = append(f.stack, e)
}

// pop removes the top entry. superseded reports that a wider sibling covers
// it: the caller counts it and pops again. The test is strict, so the entry
// that wrote latest (or an equal twin) is never dropped on its own account
// and a rebuilt index needs no record of which pending entry wrote it.
func (f *frontier) pop() (e entry, superseded, ok bool) {
	if len(f.stack) == 0 {
		return entry{}, false, false
	}
	e = f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	if !e.hasForce {
		return e, false, true
	}
	wide, found := f.latest[forkKey{e.state.PC, e.forced}]
	superseded = found && e.state.Bits.Subset(wide) && !e.state.Bits.Equal(wide)
	return e, superseded, true
}

// The rest of this file is the frontier-export surface the cluster
// coordinator builds on (internal/cluster): a pending-path shard travels to
// a worker as a seed checkpoint (the SYMSIMC1 wire format — Config.Resume is the
// existing, fuzz-hardened entry point for it), the worker's complete
// Result travels back as a report checkpoint carrying its toggle profile
// and counters, and the coordinator folds reports together with the exact
// absorb semantics a single-node run applies per path segment. Keeping
// the merge arithmetic here — next to absorb and finish — is what makes
// the distributed dichotomy provably the same computation.

// SeedCheckpoint packages a pending-path shard as a resumable checkpoint:
// an empty CSM (decisions flow through the remote manager, not the
// payload), a zeroed toggle profile, and PathsCreated equal to the shard
// size so the worker's local accounting is self-contained. The worker
// runs it via Config.Resume with a policy whose Name() is policyName.
func SeedCheckpoint(p *Platform, policyName string, pending []PendingPath) *Checkpoint {
	nets := len(p.Design.Nets)
	c := &Checkpoint{
		Design:       p.Design.Name,
		Nets:         nets,
		StateBits:    p.Spec.Bits(),
		Policy:       policyName,
		Toggled:      make([]bool, nets),
		ConstSeen:    make([]bool, nets),
		ConstVals:    make([]logic.Value, nets),
		PathsCreated: len(pending),
	}
	for _, pp := range pending {
		c.Pending = append(c.Pending, PendingPath{State: pp.State.Clone(), Forced: pp.Forced, HasForce: pp.HasForce})
	}
	return c
}

// UnitReport packages a worker's complete Result as a report checkpoint:
// the shard's toggle profile, untoggled-net constants and path/cycle
// accounting, with an empty CSM and frontier (both live at the
// coordinator). res must be Complete — a complete run absorbed at least
// one full net valuation per segment, so every net is either toggled or
// carries an observed constant.
func UnitReport(p *Platform, policyName string, res *Result) *Checkpoint {
	nets := len(p.Design.Nets)
	c := &Checkpoint{
		Design:          p.Design.Name,
		Nets:            nets,
		StateBits:       p.Spec.Bits(),
		Policy:          policyName,
		Toggled:         append([]bool(nil), res.ToggledNets...),
		ConstSeen:       make([]bool, nets),
		ConstVals:       make([]logic.Value, nets),
		PathsCreated:    res.PathsCreated,
		PathsSkipped:    res.PathsSkipped,
		SimulatedCycles: res.SimulatedCycles,
		NextID:          len(res.Paths),
		Paths:           append([]PathStat(nil), res.Paths...),
	}
	// Canonical form: constants are recorded only for untoggled nets
	// (toggled entries stay zero), so two workers reporting the same
	// profile encode byte-identically.
	for n, t := range res.ToggledNets {
		if !t {
			c.ConstSeen[n] = true
			c.ConstVals[n] = res.ConstNets[n]
		}
	}
	return c
}

// ValidateHeader checks that a decoded checkpoint belongs to platform p
// under the named policy — the coordinator-side counterpart of the
// validation Config.Resume applies before trusting a payload.
func (c *Checkpoint) ValidateHeader(p *Platform, policyName string) error {
	if c.Design != p.Design.Name {
		return fmt.Errorf("core: checkpoint is for design %q, platform is %q", c.Design, p.Design.Name)
	}
	if c.Nets != len(p.Design.Nets) {
		return fmt.Errorf("core: checkpoint has %d nets, design has %d", c.Nets, len(p.Design.Nets))
	}
	if c.StateBits != p.Spec.Bits() {
		return fmt.Errorf("core: checkpoint has %d state bits, spec has %d", c.StateBits, p.Spec.Bits())
	}
	if c.Policy != policyName {
		return fmt.Errorf("core: checkpoint used policy %q, run configures %q", c.Policy, policyName)
	}
	if len(c.Toggled) != c.Nets || len(c.ConstSeen) != c.Nets || len(c.ConstVals) != c.Nets {
		return fmt.Errorf("core: checkpoint net-indexed arrays disagree with its net count")
	}
	return nil
}

// Profile accumulates unit reports into the run-wide toggle profile with
// the same merge rules absorb applies per path segment: toggling is
// monotone, the first observed constant per net is adopted, and a net
// whose per-unit constants disagree has no single tie-off value and
// counts as toggled. Because those rules are commutative and associative
// over units exactly as over segments, folding per-unit profiles yields
// the identical dichotomy a single-node run computes path by path.
type Profile struct {
	Toggled   []bool
	ConstSeen []bool
	ConstVals []logic.Value
}

// NewProfile returns an empty profile over nets.
func NewProfile(nets int) *Profile {
	return &Profile{
		Toggled:   make([]bool, nets),
		ConstSeen: make([]bool, nets),
		ConstVals: make([]logic.Value, nets),
	}
}

// Absorb folds one unit report into the profile.
func (pr *Profile) Absorb(rep *Checkpoint) error {
	if len(rep.Toggled) != len(pr.Toggled) {
		return fmt.Errorf("core: report covers %d nets, profile %d", len(rep.Toggled), len(pr.Toggled))
	}
	for n, t := range rep.Toggled {
		if t {
			pr.Toggled[n] = true
			continue
		}
		if !rep.ConstSeen[n] {
			continue
		}
		v := rep.ConstVals[n]
		if !pr.ConstSeen[n] {
			pr.ConstSeen[n] = true
			pr.ConstVals[n] = v
		} else if pr.ConstVals[n] != v {
			// Constant within each unit but different between units: no
			// single tie-off value exists (same rule as absorb).
			pr.Toggled[n] = true
		}
	}
	return nil
}

// Assemble derives the final Result from the accumulated profile — the
// exercisable-gate dichotomy exactly as finish computes it for a complete
// single-node run. The caller fills the path/cycle counters it owns.
func (pr *Profile) Assemble(p *Platform, policyName string, csmStates int) *Result {
	res := &Result{
		Design:      p.Design,
		Complete:    true,
		ToggledNets: append([]bool(nil), pr.Toggled...),
		ConstNets:   append([]logic.Value(nil), pr.ConstVals...),
		TotalGates:  len(p.Design.Gates),
		Policy:      policyName,
		CSMStates:   csmStates,
	}
	res.ExercisableGates = make([]bool, len(p.Design.Gates))
	for gi := range p.Design.Gates {
		if res.ToggledNets[p.Design.Gates[gi].Out] {
			res.ExercisableGates[gi] = true
			res.ExercisableCount++
		}
	}
	return res
}
