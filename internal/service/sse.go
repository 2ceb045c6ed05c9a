package service

import (
	"slices"
	"sort"
	"sync"

	"symsim/internal/core"
)

// Event is one entry on a job's progress stream, serialized as an SSE
// `data:` payload by the HTTP layer.
type Event struct {
	// Type is "progress" for heartbeat events and "state" for lifecycle
	// transitions (running, done, failed, canceled, queued).
	Type string `json:"type"`
	Job  string `json:"job"`
	// State accompanies "state" events.
	State State `json:"state,omitempty"`
	// Progress accompanies "progress" events.
	Progress *core.Progress `json:"progress,omitempty"`
	// Seq is the per-job monotonically increasing sequence number,
	// assigned by the hub at publish time and emitted as the SSE `id:`
	// line — clients detect gaps with it and resume via Last-Event-ID.
	Seq uint64 `json:"seq,omitempty"`
}

// ringCap bounds the per-job event log. 256 events comfortably holds every
// lifecycle transition a job can have plus a long tail of recent
// heartbeats; when full, heartbeats are shed first so the lifecycle stays
// lossless.
const ringCap = 256

// jobStream is one job's event log: the sequence counter, the bounded ring
// and the wake channel of whoever waits for the next event. The log
// outlives its readers — it must still serve Last-Event-ID reconnects that
// arrive after the job went terminal and every watcher hung up.
type jobStream struct {
	seq  uint64
	ring []Event
	// wake is closed by the next Publish and made again by the next reader
	// that has to wait; nil while nobody does.
	wake chan struct{}
}

// appendRing records ev. A full ring sheds its oldest "progress"
// heartbeat; only if the ring holds nothing but state events does the
// oldest state go (it is superseded by the transitions still buffered
// behind it).
func (st *jobStream) appendRing(ev Event) {
	if len(st.ring) < ringCap {
		st.ring = append(st.ring, ev)
		return
	}
	shed := 0
	for i, e := range st.ring {
		if e.Type == "progress" {
			shed = i
			break
		}
	}
	st.ring = append(append(st.ring[:shed], st.ring[shed+1:]...), ev)
}

// hub keeps one event log per job. A reader holds no buffer of its own,
// only a cursor — the sequence number of the last event it has seen — so
// there is one shed policy, the ring's: heartbeats are lossy for a reader
// that falls more than a ring behind, the analysis worker that publishes
// them never waits for one, and a slow reader still finds the terminal
// transition that ends its stream.
type hub struct {
	mu   sync.Mutex
	jobs map[string]*jobStream
}

func newHub() *hub { return &hub{jobs: make(map[string]*jobStream)} }

// streamLocked returns (creating if needed) the stream for job id.
func (h *hub) streamLocked(id string) *jobStream {
	st := h.jobs[id]
	if st == nil {
		st = &jobStream{}
		h.jobs[id] = st
	}
	return st
}

// Publish assigns ev its per-job sequence number, appends it to the job's
// log and wakes the readers waiting at its end.
func (h *hub) Publish(ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.streamLocked(ev.Job)
	st.seq++
	ev.Seq = st.seq
	st.appendRing(ev)
	if st.wake != nil {
		close(st.wake)
		st.wake = nil
	}
}

// since reads job id's log from a cursor: the buffered events with Seq >
// after (oldest first), the latest Seq the job has been assigned, and a
// channel the next Publish closes. All three come from under one lock, so
// a reader that moves its cursor to the last event it was handed and calls
// again when wake fires sees every event the ring kept exactly once:
// nothing at or before the cursor comes back, nothing after it is skipped.
func (h *hub) since(id string, after uint64) (events []Event, latest uint64, wake <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.streamLocked(id)
	// The ring is in sequence order; the copy is the reader's to keep.
	first := sort.Search(len(st.ring), func(i int) bool { return st.ring[i].Seq > after })
	events = slices.Clone(st.ring[first:])
	if st.wake == nil {
		st.wake = make(chan struct{})
	}
	return events, st.seq, st.wake
}
