package service

import (
	"encoding/json"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"symsim/internal/core"
	"symsim/internal/obs"
	"symsim/internal/report"
	"symsim/internal/vvp"
)

// TestLeaseExpiryRequeuesWedgedJob is the degrade-don't-die acceptance
// path for a wedged worker: the first run of a job blocks forever inside
// the engine (its progress fingerprint freezes even though the progress
// ticker keeps firing), the lease watchdog expires the lease, re-queues
// the job and spawns a replacement worker, and the second attempt runs to
// completion with a tie-off list identical to an uninterrupted run. The
// original worker unwedging later delivers a stale result that must be
// discarded, not re-applied over the finished job.
func TestLeaseExpiryRequeuesWedgedJob(t *testing.T) {
	const mask = 0x3
	spec := JobSpec{Design: "dr5", Bench: "wedge", Workers: 1}

	// Uninterrupted reference run.
	refRes, err := core.Analyze(buildLoop(t, mask), core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !refRes.Complete {
		t.Fatal("reference run incomplete")
	}
	normSpec, err := normalize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := report.Summarize(normSpec.Design, normSpec.Bench, refRes)

	wedge := make(chan struct{})
	var wedgeOnce sync.Once
	release := func() { wedgeOnce.Do(func() { close(wedge) }) }
	var runs atomic.Int32
	svc, err := New(Config{
		DataDir:       t.TempDir(),
		Workers:       1,
		ProgressEvery: time.Millisecond,
		// The TTL must dwarf any heartbeat gap of a healthy run (under
		// -race everything is slower), while the wedged run freezes its
		// fingerprint forever and expires regardless.
		LeaseTTL:        2 * time.Second,
		LeaseCheckEvery: 50 * time.Millisecond,
		BuildPlatform:   loopPlatform(t, mask),
		// Wedge only the first run: it blocks at its first halt state and
		// never returns until released.
		tuneConfig: func(id string, cc *core.Config) {
			if runs.Add(1) == 1 {
				cc.OnHalt = func(int, vvp.State) { <-wedge }
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Release before draining: Drain waits for the wedged worker too.
	defer func() { release(); svc.Close() }()

	view, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, svc, view.ID, StateDone)
	if final.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (wedged lease + recovered run)", final.Attempts)
	}
	m := svc.MetricsSnapshot()
	if m.LeaseExpiries < 1 {
		t.Errorf("LeaseExpiries = %d, want >= 1", m.LeaseExpiries)
	}

	data, err := svc.Result(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got ResultSummary
	mustUnmarshal(t, data, &got)
	if !reflect.DeepEqual(&got, ref) {
		t.Errorf("recovered run result differs from uninterrupted reference:\n got  %+v\n want %+v", &got, ref)
	}

	// Unwedge the original worker. Its canceled first attempt finishes
	// with a stale lease epoch; Drain waits for it, and its outcome must
	// not disturb the completed job.
	release()
	svc.Drain()
	after, err := svc.Job(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.State != StateDone || after.Attempts != 2 {
		t.Errorf("stale worker disturbed finished job: state %s, attempts %d", after.State, after.Attempts)
	}
	data2, err := svc.Result(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got2 ResultSummary
	mustUnmarshal(t, data2, &got2)
	if !reflect.DeepEqual(&got2, ref) {
		t.Errorf("result changed after stale worker returned:\n got  %+v\n want %+v", &got2, ref)
	}
}

// TestLeaseWatchdogLeavesHealthyJobsAlone pins the false-positive side:
// jobs that make progress, however slowly relative to the sweep interval,
// are never expired.
func TestLeaseWatchdogLeavesHealthyJobsAlone(t *testing.T) {
	svc, err := New(Config{
		DataDir: t.TempDir(),
		// Own registry: the counter assertions below are about this
		// service alone.
		Metrics:         obs.NewRegistry(),
		Workers:         2,
		ProgressEvery:   time.Millisecond,
		LeaseTTL:        2 * time.Second,
		LeaseCheckEvery: 10 * time.Millisecond,
		BuildPlatform:   loopPlatform(t, 0x7),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	a, err := svc.Submit(JobSpec{Design: "dr5", Bench: "a", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Submit(JobSpec{Design: "dr5", Bench: "b", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	va := waitState(t, svc, a.ID, StateDone)
	vb := waitState(t, svc, b.ID, StateDone)
	if va.Attempts != 1 || vb.Attempts != 1 {
		t.Errorf("healthy jobs re-attempted: %d, %d (want 1, 1)", va.Attempts, vb.Attempts)
	}
	if m := svc.MetricsSnapshot(); m.LeaseExpiries != 0 {
		t.Errorf("LeaseExpiries = %d for healthy jobs, want 0", m.LeaseExpiries)
	}
}

func mustUnmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
}
