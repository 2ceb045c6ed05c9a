// Package csm implements the Conservative State Manager of paper §3.3: a
// repository of previously-simulated symbolic states indexed by the PC of
// the PC-changing instruction at which they were observed. When the
// simulator halts and hands over a state, the CSM either recognizes it as a
// subset of what has already been simulated for that PC (no further
// simulation required) or produces a more conservative superstate covering
// both, to be pushed onto the unprocessed-path worklist.
//
// It is one mechanism — states indexed by PC, a subset test, a merge — and
// the policies of paper Figure 3 are points on one axis, how many states a
// PC may hold before arrivals merge: one (MergeAll, the single uber-state
// of prior work [4]), k (Clustered, trading simulation effort for less
// over-approximation) or all of them (Exact, exhaustive path enumeration).
// Constrained is the one-state point refined by user-supplied application
// facts in the style of [15]: each observation is trimmed before the
// subsumption test, and forked children the facts prove infeasible are
// dropped before they are scheduled (Pruner).
package csm

import (
	"fmt"
	"sort"
	"sync"

	"symsim/internal/logic"
	"symsim/internal/vvp"
)

// Decision is the CSM's verdict on one halted state.
type Decision struct {
	// Subsumed is true when the state is covered by an already-simulated
	// conservative state for the same PC; the path needs no further
	// exploration (Algorithm 1 line 26).
	Subsumed bool
	// Merged is true when the state was absorbed into a stored state,
	// producing a superstate, and false when it was stored as an additional
	// conservative state. Always false when Subsumed.
	Merged bool
	// Explore is the (possibly merged, possibly constrained) state to
	// continue simulating when Subsumed is false. It is the caller's own
	// copy: the manager keeps no reference to it, so it may be retained —
	// by both children of a fork at once — or rewritten, and a later merge
	// into the stored state does not reach it.
	Explore vvp.State
}

// Verdict values: what the decision log and the per-PC metrics call the
// three outcomes of an Observe.
const (
	VerdictSubsumed = "subsumed"
	VerdictNew      = "new"
	VerdictMerged   = "merged"
)

// Verdict names the outcome.
func (d Decision) Verdict() string {
	switch {
	case d.Subsumed:
		return VerdictSubsumed
	case d.Merged:
		return VerdictMerged
	}
	return VerdictNew
}

// SavedState is one exported conservative state: the PC it is indexed by
// plus its ternary machine-state valuation. Slices of SavedState are the
// checkpoint currency of run governance — a Manager drains into them when
// a run is checkpointed and reseeds from them on resume.
type SavedState struct {
	PC   uint64
	Bits logic.Vec
}

// Manager is the interface of a conservative state repository. Observe is
// safe for concurrent use; parallel path workers share one Manager.
type Manager interface {
	// Observe presents the state saved at a halt and returns the
	// exploration decision. The manager neither keeps nor writes st: the
	// caller may reuse its storage for the next halt.
	Observe(st vvp.State) Decision
	// Name identifies the policy for reports.
	Name() string
	// States returns the number of conservative states currently stored.
	States() int
	// Export snapshots every stored conservative state in a deterministic
	// order (ascending PC, insertion order within a PC), so checkpoint
	// encodings are reproducible.
	Export() []SavedState
	// Import seeds the manager with previously exported states, merging
	// them with anything already stored under the policy's own rules. All
	// imported states must share one bit width.
	Import(states []SavedState) error
}

// Pruner is implemented by managers that can prove a forked child state
// infeasible under designer constraints. The scheduler consults it
// *before* a fork child is pushed onto the worklist, so provably-impossible
// paths are never scheduled at all — the constraint-aware answer to path
// explosion, versus merging the damage away after the fork.
type Pruner interface {
	// FeasibleChild reports whether st is consistent with every
	// constraint scoped to its PC. Must be safe for concurrent use and
	// cheap: it runs under the scheduler lock.
	FeasibleChild(st vvp.State) bool
}

// table is the one conservative-state repository behind every policy.
type table struct {
	name string
	// perPC is how many states one PC may hold; an arrival at a full PC
	// merges into the nearest stored state (ternary Hamming distance).
	// Zero is unbounded.
	perPC int
	// total is the safety valve of an unbounded table: once this many
	// states are stored, an arrival at a PC that already holds one merges
	// into its first state, which guarantees convergence. Zero is no valve.
	total int
	// facts, when set, trim every observation before the subset test and
	// answer FeasibleChild. Immutable.
	facts *Facts

	mu     sync.Mutex
	states map[uint64][]logic.Vec
	n      int
}

func newTable(name string, perPC, total int, facts *Facts) *table {
	return &table{name: name, perPC: perPC, total: total, facts: facts, states: make(map[uint64][]logic.Vec)}
}

// NewMergeAll returns the default CSM policy: one uber-conservative state
// per PC, every non-subsumed arrival merged into it — the
// quickest-converging, most conservative policy (Figure 3, red).
func NewMergeAll() Manager { return newTable("merge-all", 1, 0, nil) }

// NewClustered returns a policy keeping up to k conservative states per
// PC, the middle ground of Figure 3 (blue): more simulation effort than
// merge-all, less over-approximation. k must be at least 1; k == 1 is
// MergeAll.
func NewClustered(k int) Manager {
	if k < 1 {
		panic("csm: NewClustered requires k >= 1")
	}
	return newTable(fmt.Sprintf("clustered-%d", k), k, 0, nil)
}

// NewExact returns a no-merge policy that explores every distinct state:
// full path enumeration, intractable for complex control flow (the
// motivation for conservative states) but exact. maxStates bounds total
// stored states as a safety valve (0 = unlimited).
func NewExact(maxStates int) Manager { return newTable("exact", 0, maxStates, nil) }

// NewConstrained builds the constrained policy — merge-all over states
// trimmed by application constraints (paper §3.3 [15]). bits is the state
// width (vvp.StateSpec.Bits()). Invalid constraints — an out-of-range bit,
// a non-binary pin value, an empty range — are rejected with a
// *ConstraintError instead of being silently skipped at observe time.
func NewConstrained(bits int, cons []Constraint) (Manager, error) {
	f, err := NewFacts(bits, cons)
	if err != nil {
		return nil, err
	}
	return newTable("constrained", 1, 0, f), nil
}

func (t *table) Name() string { return t.name }

func (t *table) States() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// FeasibleChild implements Pruner; a table without facts disproves nothing.
func (t *table) FeasibleChild(st vvp.State) bool {
	return t.facts == nil || t.facts.Feasible(st)
}

func (t *table) Export() []SavedState {
	t.mu.Lock()
	defer t.mu.Unlock()
	pcs := make([]uint64, 0, len(t.states))
	for pc := range t.states {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	var out []SavedState
	for _, pc := range pcs {
		for _, v := range t.states[pc] {
			out = append(out, SavedState{PC: pc, Bits: v.Clone()})
		}
	}
	return out
}

// Import places the states verbatim up to the per-PC capacity, so a
// policy's own Export round-trips losslessly; what exceeds the capacity —
// a table written under a wider policy — merges like an arrival at a full
// PC. The total-states valve does not apply: it bounds growth by
// observation, not what a checkpoint restores.
func (t *table) Import(states []SavedState) error {
	for i := 1; i < len(states); i++ {
		// Such a batch cannot have come from one Export and would poison
		// later Subset/Merge calls.
		if states[i].Bits.Width() != states[0].Bits.Width() {
			return fmt.Errorf("csm: import width mismatch: state %d has %d bits, state 0 has %d",
				i, states[i].Bits.Width(), states[0].Bits.Width())
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range states {
		t.place(s.PC, s.Bits, false)
	}
	return nil
}

func (t *table) Observe(st vvp.State) Decision {
	// Trim the observation with the designer facts before anything else:
	// the subsumption test must see the state that would actually be
	// simulated, or a pinned state the stored state already covers is
	// reported as a fork. Nothing is re-applied after a merge: stored
	// states must keep covering every trimmed observation, and merging
	// trimmed states preserves that on its own — pins the observations
	// agree on survive a merge unaided.
	bits := st.Bits
	if t.facts != nil {
		bits = bits.Clone()
		t.facts.Apply(st.PC, bits)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.states[st.PC] {
		if bits.Subset(c) {
			return Decision{Subsumed: true}
		}
	}
	stored, merged := t.place(st.PC, bits, true)
	// The one copy a fork costs: the stored state is merged into in place
	// from here on, so what leaves the table must not alias it.
	out := st
	out.Bits = stored.Clone()
	return Decision{Merged: merged, Explore: out}
}

// place stores a copy of v under pc, or merges v in place into a stored
// state when the PC is full (into the nearest) or, with valve set, when the
// table is (into the PC's first). It returns the stored state — the table's
// own vector, for the caller to read before it unlocks, not to keep — and
// whether it is a merge. Caller holds t.mu.
func (t *table) place(pc uint64, v logic.Vec, valve bool) (logic.Vec, bool) {
	states := t.states[pc]
	into := -1
	switch {
	case t.perPC > 0 && len(states) >= t.perPC:
		into = nearest(states, v)
	case valve && t.total > 0 && t.n >= t.total && len(states) > 0:
		into = 0
	}
	if into < 0 {
		t.states[pc] = append(states, v.Clone())
		t.n++
		return v, false
	}
	states[into].MergeInPlace(v)
	return states[into], true
}

// nearest returns the index of the state closest to v in ternary Hamming
// distance, the first of equals.
func nearest(states []logic.Vec, v logic.Vec) int {
	if len(states) == 1 {
		return 0
	}
	best, bestD := 0, -1
	for i, s := range states {
		if d := v.HammingKnown(s); bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
