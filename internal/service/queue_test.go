package service

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"symsim/internal/core"
	"symsim/internal/obs"
)

// TestQueueFIFO: jobs leave the queue in the order they entered it,
// recovered pushes included; removing the head (a queued job canceled
// before a worker got to it) leaves the order of everything behind it.
func TestQueueFIFO(t *testing.T) {
	q := newJobQueue(10)
	// Restart re-enqueues the store's queued records in Submitted order
	// (loadJobs) before any new submission.
	for _, id := range []string{"old1", "old2"} {
		if err := q.Push(id, true); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		if err := q.Push(id, false); err != nil {
			t.Fatal(err)
		}
	}
	if !q.Remove("old1") {
		t.Fatal("Remove(old1) failed")
	}
	if !q.Remove("c") {
		t.Fatal("Remove(c) failed")
	}
	for _, want := range []string{"old2", "a", "b", "d"} {
		id, ok := q.Pop()
		if !ok || id != want {
			t.Fatalf("Pop = %q,%v, want %q", id, ok, want)
		}
	}
	if got := q.Len(); got != 0 {
		t.Errorf("Len = %d, want 0", got)
	}
}

// TestRecoveredJobsRunInSubmittedOrder: the queued records a restart finds
// run in the order they were submitted, whatever order their files list
// in, before a job submitted after the restart.
func TestRecoveredJobsRunInSubmittedOrder(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := openStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := normalize(JobSpec{Design: "dr5", Bench: "loop"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// File names sort against submission order.
	for i, id := range []string{"z3", "y2", "x1"} {
		rec := &jobRecord{ID: id, Spec: spec, State: StateQueued, Submitted: int64(3 - i), CacheKey: id}
		if err := st.saveJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	gate := make(chan struct{})
	var mu sync.Mutex
	var ran []string
	svc, err := New(Config{DataDir: dir, Workers: 1, BuildPlatform: loopPlatform(t, 0x1), Metrics: obs.NewRegistry(),
		tuneConfig: func(id string, _ *core.Config) {
			<-gate
			mu.Lock()
			ran = append(ran, id)
			mu.Unlock()
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close: a blocked worker would stall the drain
	view, err := svc.Submit(JobSpec{Design: "dr5", Bench: "loop"})
	if err != nil {
		t.Fatal(err)
	}
	release()
	waitState(t, svc, view.ID, StateDone)
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"x1", "y2", "z3", view.ID}; !slices.Equal(ran, want) {
		t.Errorf("jobs ran in order %v, want %v", ran, want)
	}
}

func TestQueueBackpressureAndRemove(t *testing.T) {
	q := newJobQueue(2)
	if err := q.Push("a", false); err != nil {
		t.Fatal(err)
	}
	if err := q.Push("b", false); err != nil {
		t.Fatal(err)
	}
	if err := q.Push("c", false); !errors.Is(err, ErrQueueFull) {
		t.Errorf("Push over capacity = %v, want ErrQueueFull", err)
	}
	// Recovered pushes bypass the cap: restart must never reject jobs the
	// daemon already accepted.
	if err := q.Push("recovered", true); err != nil {
		t.Errorf("recovered push rejected: %v", err)
	}
	if !q.Remove("b") {
		t.Error("Remove(b) failed")
	}
	if q.Remove("b") {
		t.Error("Remove(b) twice succeeded")
	}
	if got := q.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
}

// Remove of the queue's head (the next item Pop would return) from a full
// queue frees a slot: a later push is accepted and goes behind everything
// that was queued.
func TestQueueRemoveMinItem(t *testing.T) {
	q := newJobQueue(3)
	for _, id := range []string{"head", "mid", "tail"} {
		if err := q.Push(id, false); err != nil {
			t.Fatal(err)
		}
	}
	if !q.Remove("head") {
		t.Fatal("Remove(head) failed")
	}
	if err := q.Push("late", false); err != nil {
		t.Fatalf("Push after removing the head = %v, want a free slot", err)
	}
	for _, want := range []string{"mid", "tail", "late"} {
		id, ok := q.Pop()
		if !ok || id != want {
			t.Fatalf("Pop = %q,%v, want %q", id, ok, want)
		}
	}
	if got := q.Len(); got != 0 {
		t.Errorf("Len = %d, want 0", got)
	}
}

// Close with items still queued: the queue goes drain-empty — Pop
// refuses even though items remain (they stay persisted in the job store
// and re-enqueue on restart, so abandoning them here is safe).
func TestQueueCloseWithQueuedItems(t *testing.T) {
	q := newJobQueue(4)
	for _, id := range []string{"a", "b", "c"} {
		if err := q.Push(id, false); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	if id, ok := q.Pop(); ok {
		t.Errorf("Pop after Close returned %q, want drain-empty refusal", id)
	}
	if got := q.Len(); got != 3 {
		t.Errorf("Len after Close = %d, want 3 (items abandoned, not lost)", got)
	}
	if err := q.Push("d", true); !errors.Is(err, ErrQueueClosed) {
		t.Errorf("recovered Push after Close = %v, want ErrQueueClosed", err)
	}
}

func TestQueueCloseWakesBlockedPop(t *testing.T) {
	q := newJobQueue(2)
	done := make(chan bool, 1)
	go func() {
		_, ok := q.Pop()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("Pop returned ok=true after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Pop still blocked after Close")
	}
	if err := q.Push("x", false); !errors.Is(err, ErrQueueClosed) {
		t.Errorf("Push after Close = %v, want ErrQueueClosed", err)
	}
}
