package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"symsim/internal/core"
	"symsim/internal/obs"
	"symsim/internal/report"
)

// oneShot is a core.Source holding a single leased segment: core.Explore
// simulates it and leaves its outcome here, so a test can play a worker
// one RPC at a time against the coordinator's methods.
type oneShot struct {
	seg     *segment
	outcome []byte
}

func (o *oneShot) Admit() (int, []byte, bool) {
	if o.seg == nil {
		return 0, nil, false
	}
	sg := o.seg
	o.seg = nil
	return sg.ID, sg.Work, true
}
func (o *oneShot) Settle(_ int, out []byte) { o.outcome = append([]byte(nil), out...) }
func (o *oneShot) Stopping() bool           { return false }
func (o *oneShot) Advance(uint64)           {}

// simulate runs one leased segment of dr5/tHold to its outcome.
func simulate(t *testing.T, sg segment) []byte {
	t.Helper()
	p, err := report.BuildPlatform(report.DR5, "tHold")
	if err != nil {
		t.Fatal(err)
	}
	src := &oneShot{seg: &sg}
	if err := core.Explore(p, core.Config{Metrics: obs.NewRegistry()}, src); err != nil {
		t.Fatal(err)
	}
	if src.outcome == nil {
		t.Fatalf("path %d produced no outcome", sg.ID)
	}
	return src.outcome
}

// leaseOne takes the single segment a one-lane lease grants.
func leaseOne(t *testing.T, coord *Coordinator, worker string) segment {
	t.Helper()
	ls, err := coord.Lease(context.Background(), worker, time.Second)
	if err != nil || ls == nil || len(ls.Segments) != 1 {
		t.Fatalf("lease: ls=%+v err=%v", ls, err)
	}
	return ls.Segments[0]
}

// TestSweepMultiUnitExhaustionFailsRunOnce pins the sweep/fail interplay
// the single-exhausted-segment torture drill never reaches: TWO leased
// segments of one run expire in the same sweep pass with their attempts
// already exhausted (a wedged or partitioned fleet climbs every segment's
// attempt count together). Each exhaustion fails the run; the second must
// land on failRunLocked idempotently instead of closing doneCh twice and
// downing the whole coordinator process with it.
func TestSweepMultiUnitExhaustionFailsRunOnce(t *testing.T) {
	coord := NewCoordinator(Config{
		Metrics:     obs.NewRegistry(),
		MaxAttempts: 1,
		LeaseTTL:    time.Hour, // the test drives sweep by hand
		SweepEvery:  time.Hour,
	})
	t.Cleanup(coord.Close)
	id, err := coord.NewRun(RunSpec{Design: "dr5", Bench: "tHold"})
	if err != nil {
		t.Fatal(err)
	}

	// Settle the cold-boot segment for real: it forks, and its two children
	// go out as two simultaneous leases.
	genesis := leaseOne(t, coord, "doomed")
	resp, err := coord.Report(id, "doomed", genesis.ID, genesis.Epoch, simulate(t, genesis), 1)
	if err != nil || len(resp.Segments) != 1 {
		t.Fatalf("report: resp=%+v err=%v", resp, err)
	}
	leaseOne(t, coord, "doomed")

	coord.mu.Lock()
	r := coord.runs[id]
	out := 0
	for _, l := range r.leases {
		if l.out {
			out++
			l.deadline = time.Now().Add(-time.Minute)
		}
	}
	coord.mu.Unlock()
	if out != 2 {
		t.Fatalf("%d segments leased out, want 2", out)
	}

	// Both leases are expired AND out of attempts: one pass must fail the
	// run exactly once — a double close of doneCh panics right here.
	coord.sweep(time.Now())

	st, err := coord.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" {
		t.Errorf("run state = %q, want failed", st.State)
	}
	if n := coord.om.runsFailed.Value(); n != 1 {
		t.Errorf("runs_failed = %d, want 1", n)
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := coord.Wait(waitCtx, id); err == nil {
		t.Error("Wait should surface the run failure")
	}
}

// TestReportRetryIsAcknowledgedNotAbsorbedTwice pins the lost-response
// path of the one RPC that changes the run: a report settles its segment —
// the toggle profile is absorbed, the halt forks — and a retry of the same
// report, sent because the first response never arrived, must be
// acknowledged without settling anything again. A report under any other
// epoch is fenced.
func TestReportRetryIsAcknowledgedNotAbsorbedTwice(t *testing.T) {
	coord := NewCoordinator(Config{Metrics: obs.NewRegistry()})
	t.Cleanup(coord.Close)
	id, err := coord.NewRun(RunSpec{Design: "dr5", Bench: "tHold"})
	if err != nil {
		t.Fatal(err)
	}
	genesis := leaseOne(t, coord, "w")
	outcome := simulate(t, genesis)

	if _, err := coord.Report(id, "w", genesis.ID, genesis.Epoch+1, outcome, 0); !errors.Is(err, ErrStale) {
		t.Fatalf("report under a foreign epoch: err = %v, want ErrStale", err)
	}
	if _, err := coord.Report(id, "w", genesis.ID, genesis.Epoch, outcome, 0); err != nil {
		t.Fatal(err)
	}
	first, err := coord.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if first.PathsDone != 1 || first.PathsPending != 2 {
		t.Fatalf("after one report: %+v, want 1 path done and its 2 children pending", first)
	}

	retry, err := coord.Report(id, "w", genesis.ID, genesis.Epoch, outcome, 1)
	if err != nil {
		t.Fatalf("retried report: %v", err)
	}
	if n := coord.om.duplicateReports.Value(); n != 1 {
		t.Errorf("duplicate_reports = %d, want 1", n)
	}
	if n := coord.om.settles.Value(); n != 1 {
		t.Errorf("units_retired = %d, want 1", n)
	}
	// The acknowledgement still carries work, like any report's response.
	if len(retry.Segments) != 1 {
		t.Errorf("retried report was handed %d segments, want 1", len(retry.Segments))
	}
	again, err := coord.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if again.PathsDone != 1 || again.PathsPending+again.PathsInFlight != 2 || again.SimulatedCycles != first.SimulatedCycles {
		t.Errorf("retried report changed the run: before %+v after %+v", first, again)
	}

	// Garbage is refused without costing the segment its lease.
	child := retry.Segments[0]
	if _, err := coord.Report(id, "w", child.ID, child.Epoch, outcome[:len(outcome)/2], 0); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("truncated outcome: err = %v, want ErrBadPayload", err)
	}
	if _, err := coord.Report(id, "w", child.ID, child.Epoch, simulate(t, child), 0); err != nil {
		t.Fatalf("report after a refused one: %v", err)
	}
}
