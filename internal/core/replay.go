package core

import (
	"sync"

	"symsim/internal/vvp"
)

// The replay of widened segments on the scalar kernel (DESIGN.md §8 "Replay
// of a widened segment"): an explorer keeps, per branch PC and forced
// direction, the log of the last segment it ran from there whose outcome
// was absorbed, and a segment from the same key follows it (vvp.Replay).
// The logs stay with the explorer — workers need no lock — and their
// storage with the platform's design, so the next Analyze reuses it.

// replayStore is what one explorer keeps: the Replay scratch and the logs.
type replayStore struct {
	rep  *vvp.Replay
	logs map[forkKey]*vvp.ReplayLog
	// all holds every log the store has made, in the order it made them;
	// spare the ones no key names, for the next segment's recording.
	all, spare []*vvp.ReplayLog
}

// bind points the store's Replay at sim and forgets every log: a log is
// only worth following inside the analysis that absorbed its segment. The
// logs go back to spare in the order they were made, so a run that repeats
// an earlier one's segments hands each the log it had then, already grown
// to its size.
func (rs *replayStore) bind(sim *vvp.Simulator) *vvp.Replay {
	if rs.rep == nil {
		rs.rep = vvp.NewReplay(sim)
	} else {
		rs.rep.Reset(sim)
	}
	clear(rs.logs)
	rs.spare = rs.spare[:0]
	for i := len(rs.all) - 1; i >= 0; i-- {
		rs.spare = append(rs.spare, rs.all[i])
	}
	return rs.rep
}

// log returns a log no key names.
func (rs *replayStore) log() *vvp.ReplayLog {
	if n := len(rs.spare); n > 0 {
		l := rs.spare[n-1]
		rs.spare = rs.spare[:n-1]
		return l
	}
	l := new(vvp.ReplayLog)
	rs.all = append(rs.all, l)
	return l
}

// keep makes l the log of key, and the one it replaces spare.
func (rs *replayStore) keep(key forkKey, l *vvp.ReplayLog) {
	if old := rs.logs[key]; old != nil {
		rs.spare = append(rs.spare, old)
	}
	rs.logs[key] = l
}

// replayPool holds the stores of the explorers that have finished with the
// design, for the next to take.
type replayPool struct {
	mu   sync.Mutex
	free []*replayStore
}

type replayPoolKey struct{}

// replays returns the store pool of p's design.
func (p *Platform) replays() *replayPool {
	return p.Design.Derived(replayPoolKey{}, func() any { return new(replayPool) }).(*replayPool)
}

func (rp *replayPool) get() *replayStore {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if n := len(rp.free); n > 0 {
		rs := rp.free[n-1]
		rp.free = rp.free[:n-1]
		return rs
	}
	return &replayStore{logs: make(map[forkKey]*vvp.ReplayLog)}
}

func (rp *replayPool) put(rs *replayStore) {
	rp.mu.Lock()
	rp.free = append(rp.free, rs)
	rp.mu.Unlock()
}
