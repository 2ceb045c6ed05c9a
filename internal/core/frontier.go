package core

import "symsim/internal/logic"

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
// and segments going back (interrupted, or put back unsimulated) are not
// new forks, and refreshing latest with one of them could narrow it.
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
