package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"symsim/internal/core"
	"symsim/internal/obs"
	"symsim/internal/report"
	"symsim/internal/vvp"
)

// TestClusterWorkerCrashMidShard is the coordinator torture drill: a
// worker takes the cold-boot segment and wedges mid-segment (its OnHalt
// hook blocks before the outcome is ever reported, so its lanes stop
// advancing and its heartbeats stop). The lease must lapse, the same path
// ID must go out again under epoch+1, a healthy fleet must finish the run
// with the exact single-node dichotomy, and every path must be settled
// exactly once. When the wedged worker finally revives, the report from
// its dead epoch must fence off as stale instead of corrupting the run.
func TestClusterWorkerCrashMidShard(t *testing.T) {
	p, err := report.BuildPlatform(report.DR5, "tHold")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Analyze(p, core.Config{Engine: vvp.EngineKernel, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}

	coord := NewCoordinator(Config{
		Metrics:    obs.NewRegistry(),
		leaseTTL:   300 * time.Millisecond,
		sweepEvery: 50 * time.Millisecond,
	})
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { coord.Close(); ts.Close() })

	// The wedge: the victim's first simulated path blocks inside OnHalt —
	// before its outcome is reported — until the test revives it. From the coordinator's side this is indistinguishable
	// from a crash: progress stops, heartbeats stop, the lease lapses.
	gotUnit := make(chan struct{})
	blockCh := make(chan struct{})
	var wedgeOnce, reviveOnce sync.Once
	revive := func() { reviveOnce.Do(func() { close(blockCh) }) }
	t.Cleanup(revive) // never leave the victim blocked if the test bails

	victim := &Worker{
		Coordinator: ts.URL,
		Name:        "victim",
		Metrics:     obs.NewRegistry(),
		PollEvery:   10 * time.Millisecond,
		tuneConfig: func(runID string, cc *core.Config) {
			cc.OnHalt = func(pathID int, st vvp.State) {
				wedgeOnce.Do(func() { close(gotUnit) })
				<-blockCh
			}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = victim.Run(ctx) }()
	t.Cleanup(func() { cancel(); wg.Wait() })

	id, err := coord.NewRun(RunSpec{Design: "dr5", Bench: "tHold"})
	if err != nil {
		t.Fatal(err)
	}

	// The victim is the only worker: it must be the one holding the
	// cold-boot segment when it wedges.
	select {
	case <-gotUnit:
	case <-time.After(30 * time.Second):
		t.Fatal("victim never leased the cold-boot segment")
	}

	// Now start the healthy fleet. It can only make progress once the
	// sweeper lapses the victim's lease and puts the segment back.
	for i := 0; i < 2; i++ {
		w := &Worker{
			Coordinator: ts.URL,
			Name:        fmt.Sprintf("healthy%d", i),
			Metrics:     obs.NewRegistry(),
			PollEvery:   10 * time.Millisecond,
		}
		wg.Add(1)
		go func() { defer wg.Done(); _ = w.Run(ctx) }()
	}

	waitCtx, waitCancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer waitCancel()
	got, err := coord.Wait(waitCtx, id)
	if err != nil {
		t.Fatal(err)
	}
	requireDichotomyEqual(t, got, want)
	requireAccounted(t, got)

	st, err := coord.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Errorf("run state = %q, want done", st.State)
	}
	if n := coord.om.requeues.Value(); n < 1 {
		t.Errorf("expected at least one put-back of the wedged segment, got %d", n)
	}
	if n := coord.om.expiries.Value(); n < 1 {
		t.Errorf("expected at least one lease expiry, got %d", n)
	}
	// The wedged segment is path 0: it kept its ID across the put-back
	// and settled under the epoch after the victim's.
	coord.mu.Lock()
	epoch := coord.runs[id].settled[0]
	coord.mu.Unlock()
	if epoch != 2 {
		t.Errorf("path 0 settled under epoch %d, want 2 (victim's lease + 1)", epoch)
	}

	// Revive the victim. Its explorer resumes, but its epoch is dead: the
	// report it issues must bounce off the 409 fence — observed on its side
	// as a stale segment — and must not disturb the finished run.
	revive()
	deadline := time.Now().Add(30 * time.Second)
	for victim.om.unitsStale.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := victim.om.unitsStale.Value(); n < 1 {
		t.Errorf("revived victim never saw its unit fenced as stale")
	} else if n := coord.om.staleRPCs.Value(); n < 1 {
		t.Errorf("coordinator fenced nothing despite the victim observing staleness")
	}
	st2, err := coord.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st2 != st {
		t.Errorf("revived victim disturbed the finished run: before %+v after %+v", st, st2)
	}
}

// TestClusterUnitExhaustsAttemptsFailsRun pins the other side of the
// put-back policy: a segment that keeps dying doesn't spin forever — after
// maxAttempts leases the run fails loudly, with the error naming the
// path, and Wait returns the failure.
func TestClusterUnitExhaustsAttemptsFailsRun(t *testing.T) {
	coord := NewCoordinator(Config{
		Metrics:     obs.NewRegistry(),
		leaseTTL:    time.Hour, // failures drive the put-back, not expiry
		maxAttempts: 3,
	})
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { coord.Close(); ts.Close() })

	id, err := coord.NewRun(RunSpec{Design: "dr5", Bench: "tHold"})
	if err != nil {
		t.Fatal(err)
	}
	cc := newCoordClient(ts.URL)
	for i := 0; i < 3; i++ {
		ls, ok, err := cc.lease()
		if err != nil || !ok || len(ls.Segments) != 1 {
			t.Fatalf("lease %d: ls=%+v ok=%v err=%v", i, ls, ok, err)
		}
		// The same path every time, one epoch later each.
		if sg := ls.Segments[0]; sg.ID != 0 || sg.Epoch != i+1 {
			t.Fatalf("lease %d granted path %d epoch %d, want path 0 epoch %d", i, sg.ID, sg.Epoch, i+1)
		}
		if err := cc.fail(ls.RunID, ls.Segments[0].ID, ls.Segments[0].Epoch, "simulated crash"); err != nil {
			t.Fatalf("fail %d: %v", i, err)
		}
		if err := cc.fail(ls.RunID, ls.Segments[0].ID, ls.Segments[0].Epoch, "replayed"); !errors.Is(err, ErrStale) {
			t.Fatalf("replayed fail %d: err = %v, want ErrStale (409)", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := coord.Wait(ctx, id); err == nil {
		t.Fatal("run should have failed after exhausting attempts")
	}
	if st, _ := coord.Status(id); st.State != "failed" {
		t.Errorf("run state = %q, want failed", st.State)
	}
	if n := coord.om.runsFailed.Value(); n != 1 {
		t.Errorf("runs_failed = %d, want 1", n)
	}
}
