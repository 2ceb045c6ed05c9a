package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"symsim/internal/core"
	"symsim/internal/obs"
)

func progressEv(job string, n int) Event {
	return Event{Type: "progress", Job: job, Progress: &core.Progress{PathsDone: n}}
}

// statesOf returns the lifecycle states among events, in order.
func statesOf(events []Event) []State {
	var out []State
	for _, ev := range events {
		if ev.Type == "state" {
			out = append(out, ev.State)
		}
	}
	return out
}

// The headline regression: a reader that falls arbitrarily far behind must
// still find the terminal "state" event. On the first hub, Publish silently
// dropped it along with the heartbeats and the stream looped forever
// waiting for a transition that was already gone. A cursor 4×ringCap
// heartbeats behind still reads queued, running, done in order.
func TestPublishNeverDropsStateForSlowSubscriber(t *testing.T) {
	h := newHub()
	h.Publish(Event{Type: "state", Job: "j", State: StateQueued})
	h.Publish(Event{Type: "state", Job: "j", State: StateRunning})
	for i := 0; i < 4*ringCap; i++ {
		h.Publish(progressEv("j", i))
	}
	h.Publish(Event{Type: "state", Job: "j", State: StateDone})

	got, latest, _ := h.since("j", 0)
	if want := uint64(4*ringCap + 3); latest != want {
		t.Fatalf("latest = %d, want %d", latest, want)
	}
	if len(got) != ringCap {
		t.Errorf("slow cursor read %d events, want a full ring of %d", len(got), ringCap)
	}
	if last := got[len(got)-1]; last.Type != "state" || last.State != StateDone || last.Seq != latest {
		t.Fatalf("terminal state event lost; log ended with %+v", last)
	}
	if states := statesOf(got); !reflect.DeepEqual(states, []State{StateQueued, StateRunning, StateDone}) {
		t.Fatalf("lifecycle read by the slow cursor = %v, want queued, running, done", states)
	}
	// The heartbeats that survived are the newest, still in order.
	for i := 3; i < len(got)-1; i++ {
		if got[i].Progress.PathsDone != got[i-1].Progress.PathsDone+1 {
			t.Fatalf("heartbeat order broken at %d: %+v after %+v", i, got[i], got[i-1])
		}
	}
	if newest := got[len(got)-2].Progress.PathsDone; newest != 4*ringCap-1 {
		t.Errorf("newest surviving heartbeat = %d, want the last published", newest)
	}
}

// Heartbeats stay lossy: a full ring sheds its oldest heartbeat to take the
// newest, without disturbing the order of what it keeps.
func TestPublishDropsProgressWhenFull(t *testing.T) {
	h := newHub()
	for i := 0; i < ringCap; i++ {
		h.Publish(progressEv("j", i))
	}
	h.Publish(progressEv("j", 999))
	got, _, _ := h.since("j", 0)
	if len(got) != ringCap {
		t.Fatalf("ring length %d after overflow publish, want %d", len(got), ringCap)
	}
	if first := got[0]; first.Progress.PathsDone != 1 || first.Seq != 2 {
		t.Errorf("oldest heartbeat = %+v, want the second published", first)
	}
	if last := got[len(got)-1]; last.Progress.PathsDone != 999 {
		t.Errorf("newest heartbeat = %+v, want the overflow publish", last)
	}
}

// A ring already full of lifecycle events (no heartbeat to shed) drops its
// oldest state — it is superseded by the transitions buffered behind it —
// and the new terminal event still lands last.
func TestRingOfStatesShedsOldestState(t *testing.T) {
	h := newHub()
	for i := 0; i < ringCap; i++ {
		h.Publish(Event{Type: "state", Job: "j", State: StateRunning})
	}
	h.Publish(Event{Type: "state", Job: "j", State: StateDone})

	got, _, _ := h.since("j", 0)
	if len(got) != ringCap {
		t.Errorf("ring holds %d events, want %d", len(got), ringCap)
	}
	if got[0].Seq != 2 {
		t.Errorf("oldest surviving state has seq %d, want 2 (the first was shed)", got[0].Seq)
	}
	if last := got[len(got)-1]; last.State != StateDone {
		t.Errorf("last event state = %s, want done", last.State)
	}
}

// A reader following its cursor while Publish runs flat out must not trip
// the race detector or miss the terminal event (run under -race in CI).
func TestPublishConcurrentWithReceive(t *testing.T) {
	h := newHub()
	gotState := make(chan struct{})
	go func() {
		cursor := uint64(0)
		for {
			events, _, wake := h.since("j", cursor)
			for _, ev := range events {
				if ev.Seq <= cursor {
					t.Errorf("event %d came back at cursor %d", ev.Seq, cursor)
				}
				cursor = ev.Seq
				if ev.Type == "state" && ev.State.Terminal() {
					close(gotState)
					return
				}
			}
			<-wake
		}
	}()
	for i := 0; i < 10_000; i++ {
		h.Publish(progressEv("j", i))
	}
	h.Publish(Event{Type: "state", Job: "j", State: StateDone})
	select {
	case <-gotState:
	case <-time.After(10 * time.Second):
		t.Fatal("terminal state never observed by concurrent reader")
	}
}

// End-to-end variant of the headline bug: an SSE client that doesn't read
// while the job floods heartbeats must still see the stream terminate.
func TestSSEStreamTerminatesForSlowClient(t *testing.T) {
	gate := make(chan struct{})
	svc, err := New(Config{
		DataDir:       t.TempDir(),
		Workers:       1,
		progressEvery: 100 * time.Microsecond,
		buildPlatform: loopPlatform(t, 0x7),
		tuneConfig:    func(string, *core.Config) { <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()

	view, err := svc.Submit(JobSpec{Design: "dr5", Bench: "loop"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Let the analysis run and outpace us: we are subscribed but not
	// reading, so our hub buffer overflows many times over.
	close(gate)
	waitState(t, svc, view.ID, StateDone)
	time.Sleep(20 * time.Millisecond) // overflow after the terminal publish too

	done := make(chan string, 1)
	go func() {
		final := ""
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, `"state":"done"`) {
				final = "done"
			}
		}
		done <- final
	}()
	select {
	case final := <-done:
		if final != "done" {
			t.Fatal("stream closed without a terminal state event")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("stream never terminated for slow client")
	}
}

// since hands back the buffered window after the cursor, the latest
// sequence number and the wake channel atomically: every event comes
// exactly once — nothing at or before the cursor ever returns, nothing
// after it is skipped — and wake fires for what was published later.
func TestSubscribeFromReplaysExactlyOnce(t *testing.T) {
	h := newHub()
	for i := 1; i <= 5; i++ {
		h.Publish(progressEv("j", i))
	}
	replay, latest, wake := h.since("j", 2)
	if latest != 5 {
		t.Fatalf("latest = %d, want 5", latest)
	}
	if len(replay) != 3 {
		t.Fatalf("replay = %d events, want 3 (seqs 3..5)", len(replay))
	}
	for i, ev := range replay {
		if want := uint64(i + 3); ev.Seq != want {
			t.Errorf("replay[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
	select {
	case <-wake:
		t.Fatal("wake fired with nothing published after the read")
	default:
	}
	// Published after the read: wake fires, and the moved cursor reads it
	// and nothing it has already been handed.
	h.Publish(Event{Type: "state", Job: "j", State: StateDone})
	select {
	case <-wake:
	default:
		t.Fatal("wake did not fire on publish")
	}
	live, latest, _ := h.since("j", 5)
	if len(live) != 1 || live[0].Seq != 6 || live[0].State != StateDone || latest != 6 {
		t.Errorf("after the cursor = %+v (latest %d), want done at seq 6 alone", live, latest)
	}
	if again, _, _ := h.since("j", 6); len(again) != 0 {
		t.Errorf("cursor at the end read %d events, want none", len(again))
	}
}

// The replay ring is bounded but lifecycle-lossless: flooding it with far
// more heartbeats than it holds must never shed a state event.
func TestRingShedsHeartbeatsKeepsStates(t *testing.T) {
	h := newHub()
	h.Publish(Event{Type: "state", Job: "j", State: StateQueued})
	h.Publish(Event{Type: "state", Job: "j", State: StateRunning})
	for i := 0; i < 4*ringCap; i++ {
		h.Publish(progressEv("j", i))
	}
	h.Publish(Event{Type: "state", Job: "j", State: StateDone})

	replay, _, _ := h.since("j", 0)
	if len(replay) > ringCap {
		t.Fatalf("ring grew past its bound: %d > %d", len(replay), ringCap)
	}
	var states []State
	lastSeq := uint64(0)
	for _, ev := range replay {
		if ev.Seq <= lastSeq {
			t.Fatalf("ring order broken: seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Type == "state" {
			states = append(states, ev.State)
		}
	}
	want := []State{StateQueued, StateRunning, StateDone}
	if len(states) != len(want) {
		t.Fatalf("surviving state events = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("surviving state events = %v, want %v", states, want)
		}
	}
}

// sseLine is one parsed SSE event: its id: line and decoded data: payload.
type sseLine struct {
	id string
	ev Event
}

// readSSE drains one SSE response body to EOF, returning every complete
// event in order.
func readSSE(t *testing.T, resp *http.Response) []sseLine {
	t.Helper()
	var out []sseLine
	var cur sseLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.ev); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
			out = append(out, cur)
			cur = sseLine{}
		}
	}
	return out
}

// TestSSEReconnectWithLastEventID is the acceptance path for stream
// resumption: a follower's connection dies mid-job, the job finishes while
// it is away, and the reconnect with Last-Event-ID replays exactly the
// missed window — the terminal event arrives exactly once, nothing is
// duplicated, and ids stay strictly monotonic across the two connections.
func TestSSEReconnectWithLastEventID(t *testing.T) {
	gate := make(chan struct{})
	svc, err := New(Config{
		DataDir:       t.TempDir(),
		Workers:       1,
		progressEvery: time.Hour, // lifecycle events only: deterministic stream
		buildPlatform: loopPlatform(t, 0x3),
		tuneConfig:    func(string, *core.Config) { <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()

	view, err := svc.Submit(JobSpec{Design: "dr5", Bench: "loop"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, view.ID, StateRunning)

	// Connection 1: fresh stream, snapshot only (the job is gated), then
	// the connection dies client-side.
	req1, _ := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+view.ID+"/events", nil)
	ctx1, kill := context.WithCancel(context.Background())
	resp1, err := http.DefaultClient.Do(req1.WithContext(ctx1))
	if err != nil {
		t.Fatal(err)
	}
	var snapshot sseLine
	sc := bufio.NewScanner(resp1.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "id: ") {
			snapshot.id = strings.TrimPrefix(line, "id: ")
		}
		if strings.HasPrefix(line, "data: ") {
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snapshot.ev); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	kill()
	resp1.Body.Close()
	if snapshot.ev.State != StateRunning || snapshot.id == "" {
		t.Fatalf("snapshot = %+v (id %q), want running with an id", snapshot.ev, snapshot.id)
	}

	// The job finishes while the client is disconnected.
	close(gate)
	waitState(t, svc, view.ID, StateDone)

	// Connection 2: resume from the snapshot's id. Exactly the missed
	// window comes back — here the single terminal transition.
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+view.ID+"/events", nil)
	req2.Header.Set("Last-Event-ID", snapshot.id)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	events := readSSE(t, resp2)
	if len(events) == 0 {
		t.Fatal("resumed stream delivered nothing")
	}
	prev, err := strconv.ParseUint(snapshot.id, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	doneCount := 0
	for i, e := range events {
		n, perr := strconv.ParseUint(e.id, 10, 64)
		if perr != nil || n <= prev {
			t.Errorf("resumed event %d id %q not past cursor %q", i, e.id, snapshot.id)
		}
		prev = n
		if e.ev.Type == "state" && e.ev.State == StateDone {
			doneCount++
		}
	}
	if doneCount != 1 {
		t.Fatalf("terminal done arrived %d times on resume, want exactly once: %+v", doneCount, events)
	}
	if fin := events[len(events)-1].ev; fin.Type != "state" || fin.State != StateDone {
		t.Fatalf("resumed stream ended with %+v, want terminal done", fin)
	}

	// Connection 3: the client already saw the terminal event. Resuming
	// past it closes silently — zero events, no duplicate lifecycle.
	req3, _ := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+view.ID+"/events", nil)
	req3.Header.Set("Last-Event-ID", events[len(events)-1].id)
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if tail := readSSE(t, resp3); len(tail) != 0 {
		t.Errorf("resume at terminal replayed %d events, want silent close: %+v", len(tail), tail)
	}

	// A stale cursor from a renumbered stream (e.g. daemon restart) falls
	// back to a fresh snapshot instead of replaying garbage.
	req4, _ := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+view.ID+"/events", nil)
	req4.Header.Set("Last-Event-ID", "999999999")
	resp4, err := http.DefaultClient.Do(req4)
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	snap := readSSE(t, resp4)
	if len(snap) != 1 || snap[0].ev.State != StateDone {
		t.Errorf("stale cursor got %+v, want one fresh done snapshot", snap)
	}
}

// Every event on a live stream carries a strictly increasing id: line —
// the contract Last-Event-ID resumption depends on.
func TestSSEIDsMonotonic(t *testing.T) {
	svc, err := New(Config{
		DataDir:       t.TempDir(),
		Workers:       1,
		progressEvery: time.Millisecond,
		buildPlatform: loopPlatform(t, 0x7),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()

	view, err := svc.Submit(JobSpec{Design: "dr5", Bench: "loop"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp)
	if len(events) == 0 {
		t.Fatal("no events on live stream")
	}
	last := uint64(0)
	for i, e := range events {
		n, err := strconv.ParseUint(e.id, 10, 64)
		if err != nil {
			t.Fatalf("event %d id %q: %v", i, e.id, err)
		}
		if i > 0 && n <= last {
			t.Fatalf("id not strictly increasing at event %d: %d after %d", i, n, last)
		}
		last = n
	}
	if fin := events[len(events)-1].ev; fin.Type != "state" || fin.State != StateDone {
		t.Errorf("stream ended with %+v, want terminal done", fin)
	}
}

// With a short keep-alive the stream carries ": ping" comment lines while
// the job is quiet, so proxies with idle timeouts keep it open.
func TestSSEKeepAliveComments(t *testing.T) {
	gate := make(chan struct{})
	svc, err := New(Config{
		DataDir:       t.TempDir(),
		Workers:       1,
		progressEvery: time.Hour, // no heartbeats: only pings break the silence
		sseKeepAlive:  5 * time.Millisecond,
		buildPlatform: loopPlatform(t, 0x3),
		tuneConfig:    func(string, *core.Config) { <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()

	view, err := svc.Submit(JobSpec{Design: "dr5", Bench: "loop"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	pings := 0
	sawDone := false
	released := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, ": ping") {
			pings++
			if pings >= 3 && !released {
				released = true
				close(gate) // held the job long enough; let it finish
			}
		}
		if strings.Contains(line, `"state":"done"`) {
			sawDone = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if pings < 3 {
		t.Errorf("saw %d keep-alive comments, want >= 3", pings)
	}
	if !sawDone {
		t.Error("stream ended without terminal state")
	}
}

// TestHeartbeatEvery250ms: with no test seam set, every job's analysis
// streams its progress heartbeats every 250 ms — the one interval symsimd
// has.
func TestHeartbeatEvery250ms(t *testing.T) {
	got := make(chan time.Duration, 1)
	svc, err := New(Config{
		DataDir:       t.TempDir(),
		Workers:       1,
		Metrics:       obs.NewRegistry(),
		buildPlatform: loopPlatform(t, 0x1),
		tuneConfig:    func(_ string, cc *core.Config) { got <- cc.ProgressEvery },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	view, err := svc.Submit(JobSpec{Design: "dr5", Bench: "loop"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, view.ID, StateDone)
	if every := <-got; every != 250*time.Millisecond {
		t.Errorf("job heartbeat interval %v, want 250ms", every)
	}
}
