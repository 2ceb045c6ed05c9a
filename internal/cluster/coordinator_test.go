package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
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
	outcome, err := simulateSegment(sg)
	if err != nil {
		t.Fatal(err)
	}
	return outcome
}

// simulateSegment is simulate for goroutines that may not call t.Fatal.
func simulateSegment(sg segment) ([]byte, error) {
	p, err := report.BuildPlatform(report.DR5, "tHold")
	if err != nil {
		return nil, err
	}
	src := &oneShot{seg: &sg}
	if err := core.Explore(p, core.Config{Metrics: obs.NewRegistry()}, src); err != nil {
		return nil, err
	}
	if src.outcome == nil {
		return nil, fmt.Errorf("path %d produced no outcome", sg.ID)
	}
	return src.outcome, nil
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

// counterSamples parses the *_total samples of a Prometheus text scrape,
// keyed by series (name plus label set).
func counterSamples(t *testing.T, text string) map[string]uint64 {
	out := make(map[string]uint64)
	for _, line := range strings.Split(text, "\n") {
		series, val, ok := strings.Cut(line, " ")
		name, _, _ := strings.Cut(series, "{")
		if !ok || strings.HasPrefix(line, "#") || !strings.HasSuffix(name, "_total") {
			continue
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			t.Errorf("counter sample %q: %v", line, err)
			continue
		}
		out[series] = n
	}
	return out
}

// TestScrapeWhileMutating is what the retired lock-scope rule (SA003)
// claimed to protect, as a test: the coordinator counts under c.mu, and a
// scrape renders GaugeFuncs that take c.mu (and, through Progress, the
// analysis's own lock). Three hand-driven workers lease, heartbeat, report
// and fail segments of back-to-back runs while a sweeper expires leases
// and a scraper renders the registry in a loop; nothing may deadlock and
// no counter may go backwards. Run under -race.
func TestScrapeWhileMutating(t *testing.T) {
	reg := obs.NewRegistry()
	coord := NewCoordinator(Config{
		Metrics:     reg,
		MaxAttempts: 1 << 20, // expiries below must not fail the run
		LeaseTTL:    time.Hour,
		SweepEvery:  time.Hour, // the test drives sweep by hand
	})
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	spawn := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				f()
			}
		}()
	}

	spawn(func() {
		id, err := coord.NewRun(RunSpec{Design: "dr5", Bench: "tHold"})
		if err != nil {
			t.Errorf("new run: %v", err)
			return
		}
		if _, err := coord.Wait(ctx, id); err != nil && ctx.Err() == nil {
			t.Errorf("run %s: %v", id, err)
		}
	})
	for w := 0; w < 3; w++ {
		name, n := fmt.Sprintf("w%d", w), 0
		spawn(func() {
			ls, err := coord.Lease(ctx, name, 10*time.Millisecond)
			if err != nil || ls == nil {
				return
			}
			// A lapsed lease (the sweeper below) fences every RPC about it.
			for segs := ls.Segments; len(segs) > 0 && ctx.Err() == nil; n++ {
				sg := segs[0]
				if err := coord.Heartbeat(ls.RunID, []leaseRef{{ID: sg.ID, Epoch: sg.Epoch}}); err != nil && !errors.Is(err, ErrStale) {
					t.Errorf("heartbeat: %v", err)
				}
				if n%7 == 6 {
					if err := coord.Fail(ls.RunID, sg.ID, sg.Epoch, "drill"); err != nil && !errors.Is(err, ErrStale) {
						t.Errorf("fail: %v", err)
					}
					return
				}
				outcome, err := simulateSegment(sg)
				if err != nil {
					t.Errorf("simulate: %v", err)
					return
				}
				resp, err := coord.Report(ls.RunID, name, sg.ID, sg.Epoch, outcome, 1)
				if err != nil {
					if !errors.Is(err, ErrStale) {
						t.Errorf("report: %v", err)
					}
					return
				}
				segs = resp.Segments
			}
		})
	}
	sweeps := 0
	spawn(func() {
		// Every tenth sweep runs two hours ahead and expires every lease out.
		if sweeps++; sweeps%10 == 0 {
			coord.sweep(time.Now().Add(2 * time.Hour))
		} else {
			coord.sweep(time.Now())
		}
		time.Sleep(time.Millisecond)
	})
	scrapes := 0
	last := map[string]uint64{}
	spawn(func() {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Errorf("scrape: %v", err)
		}
		now := counterSamples(t, buf.String())
		for series, was := range last {
			if now[series] < was {
				t.Errorf("%s went backwards: %d then %d", series, was, now[series])
			}
		}
		last = now
		scrapes++
	})

	done := make(chan struct{})
	go func() { wg.Wait(); coord.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("deadlock: workers, sweeper, scraper or Close still running 30 s after the deadline\n%s", buf[:runtime.Stack(buf, true)])
	}
	if scrapes == 0 || last["symsim_cluster_units_retired_total"] == 0 || last["symsim_cluster_lease_expiries_total"] == 0 {
		t.Errorf("%d scrapes, %d segments settled, %d leases expired: the test exercised nothing",
			scrapes, last["symsim_cluster_units_retired_total"], last["symsim_cluster_lease_expiries_total"])
	}
}
