package cluster

import (
	"fmt"
	"sync"

	"symsim/internal/logic"
	"symsim/internal/vvp"

	"symsim/internal/csm"
)

// remoteCSM is the worker-side csm.Manager whose decisions are made by
// the coordinator's authoritative manager. The worker's scheduler calls
// Observe exactly as it would a local policy; the verdict travels over
// one RPC. A non-subsumed verdict means the coordinator registered both
// fork children — usually on this unit's own path set (Keep), in which
// case the decision carries the merged explore state and the local
// scheduler forks from it exactly as it would under a local policy; when
// the children were spilled to the shared frontier instead, the decision
// carries Decision.Remote, which tells the local scheduler to push
// nothing and count nothing.
//
// Failure poisons, never guesses: once an observe RPC fails (transport
// exhausted its retries, or the lease epoch was fenced), every subsequent
// decision answers "subsumed" so the local run drains fast, and the
// worker checks Err before trusting the result — a poisoned unit is
// failed back for requeue, not reported.
type remoteCSM struct {
	cc         *coordClient
	om         *workerMetrics
	runID      string
	unit       int
	epoch      int
	policyName string

	mu     sync.Mutex
	states int
	seq    int // observe sequence within this lease; see observeRequest.Seq
	err    error
	// covered caches, per PC, the merged explore states the coordinator
	// returned for this unit's fork verdicts. Covering states only ever
	// widen at the authoritative manager (merge-all merges, exact's valve
	// folds, clustered widens its nearest cluster — Subset is a preorder
	// over all of them), so a halt covered by a cached state is subsumed
	// now no matter how stale the cache is; and a subsumed observe never
	// mutates the authoritative CSM, so answering it locally leaves the
	// cluster's state byte-identical. A cache miss just pays the RPC.
	covered map[uint64]logic.Vec
}

var (
	_ csm.Manager = (*remoteCSM)(nil)
	_ csm.Remote  = (*remoteCSM)(nil)
)

// RemoteCSM marks the manager as a delegate of the coordinator's
// authoritative CSM: the worker's scheduler observes unlocked and never
// drains a degraded unit into it (see csm.Remote).
func (m *remoteCSM) RemoteCSM() {}

// Observe delegates the verdict to the coordinator.
func (m *remoteCSM) Observe(st vvp.State) csm.Decision {
	m.mu.Lock()
	poisoned := m.err != nil
	localHit := !poisoned && st.PCKnown && func() bool {
		c, ok := m.covered[st.PC]
		return ok && st.Bits.Subset(c)
	}()
	m.mu.Unlock()
	if poisoned {
		return csm.Decision{Subsumed: true, Remote: true}
	}
	if localHit {
		m.om.localSubsumed.Inc()
		return csm.Decision{Subsumed: true, Remote: true}
	}
	m.om.observeRPCs.Inc()
	m.mu.Lock()
	m.seq++
	seq := m.seq
	m.mu.Unlock()
	resp, err := m.cc.observe(m.runID, m.unit, m.epoch, seq, st.AppendBinary(nil))
	if err != nil {
		return m.poison(err)
	}
	m.mu.Lock()
	m.states = resp.States
	m.mu.Unlock()
	switch {
	case resp.Subsumed:
		return csm.Decision{Subsumed: true, Remote: true}
	case resp.Keep:
		// The children belong to this unit: fork locally from the merged
		// explore state, exactly as under a local policy. The coordinator
		// already appended both children to the unit's path set, so a
		// crash from here on requeues them with the unit.
		ex, rest, err := vvp.DecodeState(resp.Explore)
		if err == nil && len(rest) != 0 {
			err = fmt.Errorf("explore state carries %d trailing bytes", len(rest))
		}
		if err != nil {
			return m.poison(fmt.Errorf("cluster: decoding explore state: %w", err))
		}
		if ex.PCKnown {
			m.mu.Lock()
			if m.covered == nil {
				m.covered = make(map[uint64]logic.Vec)
			}
			m.covered[ex.PC] = ex.Bits.Clone()
			m.mu.Unlock()
		}
		return csm.Decision{Explore: ex}
	}
	return csm.Decision{Remote: true}
}

// poison records the first failure and degrades every decision from here
// on to a local "subsumed" so the run drains fast; the worker fails the
// unit back for requeue instead of reporting it.
func (m *remoteCSM) poison(err error) csm.Decision {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
	return csm.Decision{Subsumed: true, Remote: true}
}

// Name reports the authoritative policy's name, so the seed checkpoint's
// policy header validates against this manager.
func (m *remoteCSM) Name() string { return m.policyName }

// States reports the authoritative state count last piggybacked on an
// observe response.
func (m *remoteCSM) States() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.states
}

// Export returns nil: the conservative state set lives at the
// coordinator, and a worker checkpoint must not claim to carry it.
func (m *remoteCSM) Export() []csm.SavedState { return nil }

// Import rejects non-empty payloads — seed checkpoints carry an empty
// CSM by construction (core.SeedCheckpoint), and anything else would
// silently drop states on the floor.
func (m *remoteCSM) Import(states []csm.SavedState) error {
	if len(states) == 0 {
		return nil
	}
	return fmt.Errorf("cluster: remote CSM cannot import %d states; the state set lives at the coordinator", len(states))
}

// Err reports the first RPC failure, after which every decision was a
// poisoned "subsumed".
func (m *remoteCSM) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}
