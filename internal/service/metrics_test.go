package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"symsim/internal/core"
	"symsim/internal/fault"
	"symsim/internal/obs"
)

// TestRefusedSubmitIsNotAccepted: jobs_accepted_total and
// cache_misses_total move only for a Submit that returns a JobView. A
// refusal — store down (ErrDegraded), queue full, bad spec, draining —
// moves neither.
func TestRefusedSubmitIsNotAccepted(t *testing.T) {
	// The first CreateTemp under jobs/ fails, so the first submission is
	// refused with ErrDegraded; the fault budget is then spent.
	plan := &fault.Plan{Rules: []fault.Rule{{Op: fault.OpCreateTemp, Match: "jobs", Nth: 1, Kind: fault.KindEIO}}}
	gate := make(chan struct{})
	svc, err := New(Config{
		DataDir:       t.TempDir(),
		Workers:       1,
		QueueCap:      1,
		progressEvery: time.Millisecond,
		buildPlatform: loopPlatform(t, 0x3),
		Metrics:       obs.NewRegistry(),
		fs:            fault.NewInjector(nil, plan),
		tuneConfig:    func(string, *core.Config) { <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	wantCounts := func(when string, accepted, misses uint64) {
		t.Helper()
		if m := svc.MetricsSnapshot(); m.Accepted != accepted || m.CacheMisses != misses {
			t.Errorf("%s: accepted %d, cache misses %d; want %d and %d", when, m.Accepted, m.CacheMisses, accepted, misses)
		}
	}

	if _, err := svc.Submit(JobSpec{Design: "dr5", Bench: "a"}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("submit with the store down = %v, want ErrDegraded", err)
	}
	wantCounts("after ErrDegraded", 0, 0)

	running, err := svc.Submit(JobSpec{Design: "dr5", Bench: "a"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, running.ID, StateRunning)
	if _, err := svc.Submit(JobSpec{Design: "dr5", Bench: "b"}); err != nil {
		t.Fatal(err)
	}
	wantCounts("one running, one queued", 2, 2)

	if _, err := svc.Submit(JobSpec{Design: "dr5", Bench: "c"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit over capacity = %v, want ErrQueueFull", err)
	}
	wantCounts("after ErrQueueFull", 2, 2)

	var bad *BadSpecError
	if _, err := svc.Submit(JobSpec{Design: "nope", Bench: "a"}); !errors.As(err, &bad) {
		t.Fatalf("submit of an unknown design = %v, want *BadSpecError", err)
	}
	wantCounts("after BadSpecError", 2, 2)

	close(gate)
	svc.Drain()
	if _, err := svc.Submit(JobSpec{Design: "dr5", Bench: "d"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
	wantCounts("after ErrDraining", 2, 2)
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
// claimed to protect, as a test: counters are incremented under s.mu, and
// a scrape renders GaugeFuncs that take s.mu themselves. Submissions and
// cancels run from several goroutines while another scrapes in a loop;
// nothing may deadlock and no counter may go backwards.
// Run under -race (make race, the CI step of the same name).
func TestScrapeWhileMutating(t *testing.T) {
	svc, err := New(Config{
		DataDir:       t.TempDir(),
		Workers:       2,
		QueueCap:      8,
		progressEvery: time.Millisecond,
		buildPlatform: loopPlatform(t, 0x1),
		Metrics:       obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
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

	for g := 0; g < 3; g++ {
		g, i := g, 0
		spawn(func() {
			i++
			// Four benches a goroutine: resubmissions hit the cache, the
			// rest queue or bounce off the full queue.
			view, err := svc.Submit(JobSpec{Design: "dr5", Bench: fmt.Sprintf("b%d-%d", g, i%4)})
			switch {
			case errors.Is(err, ErrQueueFull):
				time.Sleep(time.Millisecond)
			case err != nil:
				t.Errorf("submit: %v", err)
			case i%2 == 0:
				if err := svc.Cancel(view.ID); err != nil && !errors.Is(err, ErrJobFinished) {
					t.Errorf("cancel: %v", err)
				}
			}
		})
	}
	scrapes := 0
	last := map[string]uint64{}
	spawn(func() {
		var buf bytes.Buffer
		if err := svc.Registry().WritePrometheus(&buf); err != nil {
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
		_ = svc.MetricsSnapshot()
	})

	done := make(chan struct{})
	go func() { wg.Wait(); svc.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("deadlock: mutators, scraper or drain still running 30 s after the deadline\n%s", buf[:runtime.Stack(buf, true)])
	}
	if scrapes == 0 || last["symsim_service_jobs_accepted_total"] == 0 {
		t.Errorf("%d scrapes, %d jobs accepted: the test exercised nothing", scrapes, last["symsim_service_jobs_accepted_total"])
	}
}

// familyNames lists the metric families of reg's exposition, in its
// (sorted) order.
func familyNames(t *testing.T, reg *obs.Registry) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			names = append(names, name)
		}
	}
	return names
}

// The catalog of a service's registry (DESIGN §10): its own series and
// those of the core runs its jobs make. A new series is added here,
// deliberately, along with the test or benchmark metric that reads it.
func TestServiceMetricsCatalog(t *testing.T) {
	reg := obs.NewRegistry()
	svc, err := New(Config{DataDir: t.TempDir(), Workers: 1, buildPlatform: loopPlatform(t, 0x3), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	job, err := svc.Submit(JobSpec{Design: "dr5", Bench: "loop"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, job.ID, StateDone)
	want := []string{
		"symsim_budget_trips_total",
		"symsim_csm_decisions_total",
		"symsim_csm_pruned_forks_total",
		"symsim_csm_x_gained_bits_total",
		"symsim_cycles_total",
		"symsim_paths_total",
		"symsim_quarantines_total",
		"symsim_runs_complete_total",
		"symsim_runs_total",
		"symsim_segment_cycles",
		"symsim_service_cache_hits_total",
		"symsim_service_cache_misses_total",
		"symsim_service_degraded",
		"symsim_service_jobs_accepted_total",
		"symsim_service_jobs_canceled_total",
		"symsim_service_jobs_degraded_total",
		"symsim_service_jobs_done_total",
		"symsim_service_jobs_failed_total",
		"symsim_service_jobs_requeued_total",
		"symsim_service_jobs_running",
		"symsim_service_queue_depth",
		"symsim_service_store_faults_total",
		"symsim_service_tmp_reaped_total",
		"symsim_vvp_gate_evals_total",
		"symsim_vvp_kernel_sweeps_total",
	}
	if got := familyNames(t, reg); !reflect.DeepEqual(got, want) {
		t.Errorf("service families:\n got %q\nwant %q", got, want)
	}
}
