// Package csm implements the Conservative State Manager of paper §3.3: a
// repository of previously-simulated symbolic states indexed by the PC of
// the PC-changing instruction at which they were observed. When the
// simulator halts and hands over a state, the CSM either recognizes it as a
// subset of what has already been simulated for that PC (no further
// simulation required) or produces a more conservative superstate covering
// both, to be pushed onto the unprocessed-path worklist.
//
// How conservative states are formed is configurable (paper Figure 3):
// MergeAll reproduces the single-uber-state approach of prior work [4],
// Clustered keeps up to k states per PC trading simulation effort for less
// over-approximation, Exact never merges (exhaustive path enumeration),
// and Constrained refines states with user-supplied application facts in
// the style of [15] — trimming each observation before the subsumption
// test, proving forked children infeasible before they are scheduled
// (Pruner), and ordering merges by per-PC fork heat (HeatSink).
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
	// Explore is the (possibly merged, possibly constrained) state to
	// continue simulating when Subsumed is false.
	Explore vvp.State
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
	// exploration decision.
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

// checkWidths rejects an import batch whose states disagree on width —
// such a batch cannot have come from one Export and would poison later
// Subset/Merge calls.
func checkWidths(states []SavedState) error {
	for i := 1; i < len(states); i++ {
		if states[i].Bits.Width() != states[0].Bits.Width() {
			return fmt.Errorf("csm: import width mismatch: state %d has %d bits, state 0 has %d",
				i, states[i].Bits.Width(), states[0].Bits.Width())
		}
	}
	return nil
}

// sortedPCs returns the keys of a per-PC table in ascending order.
func sortedPCs[V any](table map[uint64]V) []uint64 {
	pcs := make([]uint64, 0, len(table))
	for pc := range table {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	return pcs
}

// --- MergeAll: the prior-work policy [4] ---

// mergeAll keeps exactly one conservative state per PC and merges every
// non-subsumed arrival into it, replacing all differing bits with X: the
// quickest-converging, most conservative policy (Figure 3, red).
type mergeAll struct {
	mu    sync.Mutex
	table map[uint64]logic.Vec
}

// NewMergeAll returns the default CSM policy: one uber-conservative state
// per PC.
func NewMergeAll() Manager {
	return &mergeAll{table: make(map[uint64]logic.Vec)}
}

func (m *mergeAll) Name() string { return "merge-all" }

func (m *mergeAll) States() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.table)
}

func (m *mergeAll) Export() []SavedState {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []SavedState
	for _, pc := range sortedPCs(m.table) {
		out = append(out, SavedState{PC: pc, Bits: m.table[pc].Clone()})
	}
	return out
}

func (m *mergeAll) Import(states []SavedState) error {
	if err := checkWidths(states); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range states {
		if c, ok := m.table[s.PC]; ok {
			m.table[s.PC] = c.Merge(s.Bits)
		} else {
			m.table[s.PC] = s.Bits.Clone()
		}
	}
	return nil
}

func (m *mergeAll) Observe(st vvp.State) Decision {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.table[st.PC]
	if ok && st.Bits.Subset(c) {
		return Decision{Subsumed: true}
	}
	var merged logic.Vec
	if ok {
		merged = c.Merge(st.Bits)
	} else {
		merged = st.Bits.Clone()
	}
	m.table[st.PC] = merged
	out := st
	out.Bits = merged.Clone()
	return Decision{Explore: out}
}

// --- Exact: no merging ---

// exact records every distinct state and never merges: full path
// enumeration, intractable for complex control flow (the motivation for
// conservative states) but exact. Bounded by MaxStates as a safety valve.
type exact struct {
	mu    sync.Mutex
	table map[uint64][]logic.Vec
	n     int
	max   int
}

// NewExact returns a no-merge policy that explores every distinct state.
// maxStates bounds total stored states (0 = unlimited).
func NewExact(maxStates int) Manager {
	return &exact{table: make(map[uint64][]logic.Vec), max: maxStates}
}

func (e *exact) Name() string { return "exact" }

func (e *exact) States() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

func (e *exact) Export() []SavedState {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []SavedState
	for _, pc := range sortedPCs(e.table) {
		for _, v := range e.table[pc] {
			out = append(out, SavedState{PC: pc, Bits: v.Clone()})
		}
	}
	return out
}

func (e *exact) Import(states []SavedState) error {
	if err := checkWidths(states); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range states {
		e.table[s.PC] = append(e.table[s.PC], s.Bits.Clone())
		e.n++
	}
	return nil
}

func (e *exact) Observe(st vvp.State) Decision {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.table[st.PC] {
		if st.Bits.Subset(c) {
			return Decision{Subsumed: true}
		}
	}
	if e.max > 0 && e.n >= e.max {
		// Safety valve: behave like merge-all once the budget is spent,
		// guaranteeing convergence.
		if len(e.table[st.PC]) > 0 {
			c := e.table[st.PC][0]
			merged := c.Merge(st.Bits)
			e.table[st.PC][0] = merged
			out := st
			out.Bits = merged.Clone()
			return Decision{Explore: out}
		}
	}
	e.table[st.PC] = append(e.table[st.PC], st.Bits.Clone())
	e.n++
	return Decision{Explore: st.Clone()}
}

// --- Clustered: up to k conservative states per PC ---

// clustered keeps up to k conservative states per PC; a non-subsumed
// arrival merges into the nearest existing state (ternary Hamming
// distance) once the budget is full — the middle ground of Figure 3
// (blue): more simulation effort than merge-all, less over-approximation.
type clustered struct {
	mu    sync.Mutex
	k     int
	table map[uint64][]logic.Vec
	n     int
}

// NewClustered returns a policy keeping up to k conservative states per
// PC. k must be at least 1; k == 1 degenerates to MergeAll.
func NewClustered(k int) Manager {
	if k < 1 {
		panic("csm: NewClustered requires k >= 1")
	}
	return &clustered{k: k, table: make(map[uint64][]logic.Vec)}
}

func (c *clustered) Name() string { return fmt.Sprintf("clustered-%d", c.k) }

func (c *clustered) States() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *clustered) Export() []SavedState {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []SavedState
	for _, pc := range sortedPCs(c.table) {
		for _, v := range c.table[pc] {
			out = append(out, SavedState{PC: pc, Bits: v.Clone()})
		}
	}
	return out
}

func (c *clustered) Import(states []SavedState) error {
	if err := checkWidths(states); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range states {
		// Respect the per-PC budget on import: overflow merges into the
		// first cluster rather than growing past k.
		if len(c.table[s.PC]) < c.k {
			c.table[s.PC] = append(c.table[s.PC], s.Bits.Clone())
			c.n++
		} else {
			c.table[s.PC][0] = c.table[s.PC][0].Merge(s.Bits)
		}
	}
	return nil
}

func (c *clustered) Observe(st vvp.State) Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	states := c.table[st.PC]
	for _, cs := range states {
		if st.Bits.Subset(cs) {
			return Decision{Subsumed: true}
		}
	}
	if len(states) < c.k {
		c.table[st.PC] = append(states, st.Bits.Clone())
		c.n++
		return Decision{Explore: st.Clone()}
	}
	best, bestD := 0, -1
	for i, cs := range states {
		d := st.Bits.HammingKnown(cs)
		if bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	merged := states[best].Merge(st.Bits)
	states[best] = merged
	out := st
	out.Bits = merged.Clone()
	return Decision{Explore: out}
}

// --- Constrained: merge-all refined by application constraints [15] ---

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

// HeatSink is implemented by managers whose merge ordering consults
// per-PC fork heat. The analysis injects a heat source (its per-run
// fork-by-PC counters) before instrumenting the policy; heat calls are
// serialized by the same scheduler-lock discipline as Observe.
type HeatSink interface {
	// SetHeat installs the heat source: heat(pc) is how many forks the
	// run has observed at pc so far. A nil heat source (the default)
	// selects eager merging everywhere.
	SetHeat(heat func(pc uint64) int)
}

// Merge-ordering knobs for the constrained policy.
const (
	// HotForkThreshold is the per-PC fork count at which the policy
	// switches from lazy clustering to eager merge-all for that PC: a PC
	// forking this often is a convergence point (a loop branch) where
	// one wide superstate ends the explosion fastest.
	HotForkThreshold = 4
	// ColdMaxStates bounds the distinct states a cold PC may accumulate
	// before it collapses regardless of heat — lazy merging trades
	// precision for extra paths, and the trade is only worth it while
	// the PC stays quiet.
	ColdMaxStates = 4
)

// constrained owns a per-PC table of conservative states refined by
// designer facts (paper §3.3 [15]). Every incoming halt state is trimmed
// by the facts *before* the subsumption test — so a trimmed state an
// existing conservative state already covers is recognized as subsumed
// instead of being reported as a fresh fork (the pre-PR-10 verdict leak).
// Merge ordering is heat-directed: hot PCs merge eagerly into one
// superstate (fast convergence where paths concentrate), cold PCs keep up
// to ColdMaxStates distinct states (less over-approximation where the
// extra paths are cheap). Without a heat source every PC merges eagerly,
// reproducing merge-all-with-trim.
type constrained struct {
	mu    sync.Mutex
	facts *Facts
	table map[uint64][]logic.Vec
	n     int
	heat  func(pc uint64) int
}

// NewConstrained builds the constrained policy from application
// constraints. bits is the state width (vvp.StateSpec.Bits()). Invalid
// constraints — an out-of-range bit, a non-binary pin value, an empty
// range — are rejected with a *ConstraintError instead of being silently
// skipped at observe time.
func NewConstrained(bits int, cons []Constraint) (Manager, error) {
	f, err := NewFacts(bits, cons)
	if err != nil {
		return nil, err
	}
	return &constrained{facts: f, table: make(map[uint64][]logic.Vec)}, nil
}

func (c *constrained) Name() string { return "constrained" }

func (c *constrained) States() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *constrained) SetHeat(heat func(pc uint64) int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.heat = heat
}

// FeasibleChild implements Pruner: facts are immutable after
// construction, so the check needs no lock.
func (c *constrained) FeasibleChild(st vvp.State) bool {
	return c.facts.Feasible(st)
}

func (c *constrained) Export() []SavedState {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []SavedState
	for _, pc := range sortedPCs(c.table) {
		for _, v := range c.table[pc] {
			out = append(out, SavedState{PC: pc, Bits: v.Clone()})
		}
	}
	return out
}

// Import appends the states verbatim (like exact), so Export/Import
// round-trips losslessly; a PC restored above ColdMaxStates collapses on
// its next eager observe.
func (c *constrained) Import(states []SavedState) error {
	if err := checkWidths(states); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range states {
		c.table[s.PC] = append(c.table[s.PC], s.Bits.Clone())
		c.n++
	}
	return nil
}

func (c *constrained) Observe(st vvp.State) Decision {
	// Trim the observation with the designer facts before anything else:
	// the subsumption test must see the state that would actually be
	// simulated. Pre-PR-10 the pins were applied after the merge verdict,
	// so a pinned state the stored state already covered was still
	// reported as a fork.
	trimmed := st.Bits.Clone()
	c.facts.Apply(st.PC, trimmed)

	c.mu.Lock()
	defer c.mu.Unlock()
	states := c.table[st.PC]
	for _, cs := range states {
		if trimmed.Subset(cs) {
			return Decision{Subsumed: true}
		}
	}
	// Merge ordering: cold PCs accumulate distinct states lazily; hot PCs
	// (and everything, absent a heat source) collapse eagerly into one
	// superstate.
	eager := c.heat == nil || c.heat(st.PC) >= HotForkThreshold
	if !eager && len(states) < ColdMaxStates {
		c.table[st.PC] = append(states, trimmed.Clone())
		c.n++
		out := st
		out.Bits = trimmed
		return Decision{Explore: out}
	}
	// No fact re-application after the merge: stored states must keep
	// covering every trimmed observation (the cluster replay lemma), and
	// merging trimmed states preserves that on its own — pins the
	// observations agree on survive a merge unaided.
	merged := trimmed
	for _, cs := range states {
		merged = merged.Merge(cs)
	}
	c.n -= len(states)
	c.table[st.PC] = []logic.Vec{merged}
	c.n++
	out := st
	out.Bits = merged.Clone()
	return Decision{Explore: out}
}
