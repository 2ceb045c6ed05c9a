package service

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"symsim/internal/core"
	"symsim/internal/fault"
	"symsim/internal/obs"
)

// scrapeCounters reads every *_total sample of the service's registry.
func scrapeCounters(t *testing.T, svc *Service) map[string]uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := svc.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return counterSamples(t, buf.String())
}

// movedCounters is what a scrape gained over an earlier one.
func movedCounters(before, after map[string]uint64) map[string]uint64 {
	moved := map[string]uint64{}
	for name, n := range after {
		if d := n - before[name]; d != 0 {
			moved[name] = d
		}
	}
	return moved
}

// TestEveryAcceptedJobIsCountedOnce drives every way a job can end and
// checks the ledger: once all jobs are terminal, each accepted one sits in
// exactly one of cache_hits, jobs_done, jobs_degraded, jobs_failed and
// jobs_canceled. Before the one transition the cancel that runJob observes
// (the worker had popped the job before Cancel could withdraw it) was
// counted nowhere.
func TestEveryAcceptedJobIsCountedOnce(t *testing.T) {
	var svc *Service
	var gates sync.Map // bench -> chan struct{} the job's analysis waits on
	var failBuilds atomic.Int32
	build := loopPlatform(t, 0xF)
	svc, err := New(Config{
		DataDir:       t.TempDir(),
		Workers:       1,
		progressEvery: time.Millisecond,
		Metrics:       obs.NewRegistry(),
		BuildPlatform: func(design, bench string) (*core.Platform, error) {
			// "fail" builds for Submit and not for the analysis after it.
			if bench == "fail" && failBuilds.Add(1) > 1 {
				return nil, errors.New("platform went away")
			}
			return build(design, bench)
		},
		tuneConfig: func(id string, _ *core.Config) {
			v, err := svc.Job(id)
			if err != nil {
				t.Error(err)
				return
			}
			if g, ok := gates.Load(v.Spec.Bench); ok {
				<-g.(chan struct{})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	submit := func(spec JobSpec) JobView {
		t.Helper()
		spec.Design, spec.Workers = "dr5", 1
		v, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cancel := func(id string) {
		t.Helper()
		if err := svc.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}

	// Canceled while running — and the gated job that keeps the one worker
	// busy for the two cancels below.
	holdRun := make(chan struct{})
	gates.Store("run", holdRun)
	running := submit(JobSpec{Bench: "run"})
	waitState(t, svc, running.ID, StateRunning)

	// Canceled while queued.
	queued := submit(JobSpec{Bench: "queued"})
	cancel(queued.ID)
	waitState(t, svc, queued.ID, StateCanceled)

	// Cancel observed by runJob: the test plays the worker that has popped
	// the job when Cancel arrives.
	popped := submit(JobSpec{Bench: "popped"})
	if !svc.queue.Remove(popped.ID) {
		t.Fatal("job to pop was not in the queue")
	}
	cancel(popped.ID)
	if v, _ := svc.Job(popped.ID); v.State != StateQueued {
		t.Fatalf("popped job after Cancel = %s, want still queued (the worker settles it)", v.State)
	}
	svc.runJob(popped.ID)
	waitState(t, svc, popped.ID, StateCanceled)

	cancel(running.ID)
	close(holdRun)
	waitState(t, svc, running.ID, StateCanceled)

	complete := submit(JobSpec{Bench: "complete"})
	waitState(t, svc, complete.ID, StateDone)
	if hit := submit(JobSpec{Bench: "complete"}); !hit.Cached || hit.State != StateDone {
		t.Fatalf("resubmission not served from the cache: %+v", hit)
	}
	degraded := submit(JobSpec{Bench: "budget", MaxForks: 2})
	waitState(t, svc, degraded.ID, StateDone)
	failed := submit(JobSpec{Bench: "fail"})
	waitState(t, svc, failed.ID, StateFailed)

	c := scrapeCounters(t, svc)
	get := func(name string) uint64 { return c["symsim_service_"+name+"_total"] }
	want := map[string]uint64{
		"jobs_accepted": 7, "cache_hits": 1, "jobs_done": 1, "jobs_degraded": 1, "jobs_failed": 1, "jobs_canceled": 3,
		"cache_misses": 6,
	}
	for name, n := range want {
		if get(name) != n {
			t.Errorf("%s = %d, want %d", name, get(name), n)
		}
	}
	settled := get("cache_hits") + get("jobs_done") + get("jobs_degraded") + get("jobs_failed") + get("jobs_canceled")
	if get("jobs_accepted") != settled {
		t.Errorf("accepted %d jobs, %d counted as settled: every terminal job belongs to exactly one counter", get("jobs_accepted"), settled)
	}
}

// transitionFixture is a service with idle workers whose jobs the table
// test places by hand, so each row makes exactly one transition.
type transitionFixture struct {
	t   *testing.T
	svc *Service
}

func newTransitionFixture(t *testing.T, vfs fault.FS) *transitionFixture {
	svc, err := New(Config{
		DataDir:       t.TempDir(),
		Workers:       1,
		BuildPlatform: loopPlatform(t, 0x1),
		Metrics:       obs.NewRegistry(),
		fs:            vfs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return &transitionFixture{t: t, svc: svc}
}

// place puts a job in state from the way the service would have: record on
// disk and one event on its stream. A running job holds a cancel handle. A
// job in no state yet is what Submit holds before its first move: nothing
// on disk, no event, unknown to the service.
func (f *transitionFixture) place(from State) *job {
	f.t.Helper()
	s := f.svc
	spec, err := normalize(JobSpec{Design: "dr5", Bench: "key", Workers: 1}, nil)
	if err != nil {
		f.t.Fatal(err)
	}
	j := &job{rec: &jobRecord{ID: newJobID(), Spec: spec, State: from, Submitted: time.Now().UnixNano(), CacheKey: "key"}}
	if from == StateRunning {
		j.rec.Started = 1
		j.cancel = func() {}
	}
	if from == "" {
		return j
	}
	if err := s.store.saveJob(j.rec); err != nil {
		f.t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.rec.ID] = j
	s.hub.Publish(Event{Type: "state", Job: j.rec.ID, State: from})
	return j
}

// move makes one transition under the service's lock. Nothing else moves a
// placed job — the workers are idle — so a test reads it afterwards
// without the lock.
func (f *transitionFixture) move(j *job, to State, why cause, data []byte) (landed bool) {
	f.svc.mu.Lock()
	defer f.svc.mu.Unlock()
	return f.svc.moveLocked(j, to, why, data)
}

// diskRecord decodes the job's record file.
func (f *transitionFixture) diskRecord(j *job) *jobRecord {
	f.t.Helper()
	data, err := os.ReadFile(f.svc.store.jobPath(j.rec.ID))
	if err != nil {
		f.t.Fatal(err)
	}
	rec, err := decodeJobRecord(data)
	if err != nil {
		f.t.Fatal(err)
	}
	return rec
}

// checkMoved asserts what every transition owes its job: the record on disk
// (disk is the state it must show), the result file exactly when the job is
// done there, and one "state" event numbered next on the job's stream.
func (f *transitionFixture) checkMoved(j *job, to, disk State, seqBefore uint64, result []byte) {
	f.t.Helper()
	s := f.svc
	if j.rec.State != to {
		f.t.Errorf("state = %s, want %s", j.rec.State, to)
	}
	if j.cancel != nil {
		f.t.Error("cancel handle of the state left behind survived the transition")
	}
	rec := f.diskRecord(j)
	if rec.State != disk {
		f.t.Errorf("record on disk = %s, want %s", rec.State, disk)
	}
	if disk == to && !reflect.DeepEqual(rec, j.rec) {
		f.t.Errorf("record on disk = %+v, in memory %+v", rec, j.rec)
	}
	got, err := os.ReadFile(s.store.resultPath(j.rec.ID))
	if disk == StateDone {
		if err != nil || !bytes.Equal(got, result) {
			f.t.Errorf("result file = %q, %v; want %q", got, err, result)
		}
	} else if err == nil {
		f.t.Errorf("a %s record has a result file", disk)
	}
	events, latest, _ := s.hub.since(j.rec.ID, seqBefore)
	if len(events) != 1 || events[0].Type != "state" || events[0].State != to || events[0].Seq != seqBefore+1 || latest != seqBefore+1 {
		f.t.Errorf("events after the move = %+v (latest %d), want one state event %s numbered %d", events, latest, to, seqBefore+1)
	}
}

// TestTransitionTable walks every edge of the job lifecycle through the one
// transition: what is stamped, what lands on disk and in which state, the
// event and the one counter the cause owns.
func TestTransitionTable(t *testing.T) {
	result := []byte(`{"complete":true}`)
	const prefix = "symsim_service_"
	rows := []struct {
		name     string
		from, to State
		why      cause
		data     []byte
		counter  string // "" when the edge owns none
		// stamps checks the times and flags of the moved record.
		stamps func(t *testing.T, r *jobRecord)
	}{
		{name: "queued→running", from: StateQueued, to: StateRunning, why: causeStart,
			stamps: func(t *testing.T, r *jobRecord) {
				if r.Started == 0 || r.Finished != 0 {
					t.Errorf("started %d finished %d, want started only", r.Started, r.Finished)
				}
			}},
		{name: "running→done", from: StateRunning, to: StateDone, why: causeComplete, data: result,
			counter: "jobs_done_total",
			stamps: func(t *testing.T, r *jobRecord) {
				if r.Started != 1 || r.Finished == 0 || r.Cached {
					t.Errorf("started %d finished %d cached %v, want the run's start kept, finished now, not cached", r.Started, r.Finished, r.Cached)
				}
			}},
		{name: "running→done-degraded", from: StateRunning, to: StateDone, why: causeBudget, data: result,
			counter: "jobs_degraded_total"},
		{name: "running→failed", from: StateRunning, to: StateFailed, why: causeError,
			counter: "jobs_failed_total"},
		{name: "running→canceled", from: StateRunning, to: StateCanceled, why: causeCancel,
			counter: "jobs_canceled_total"},
		{name: "running→queued-by-drain", from: StateRunning, to: StateQueued, why: causeDrain,
			counter: "jobs_requeued_total",
			stamps: func(t *testing.T, r *jobRecord) {
				if r.Started != 0 || r.Finished != 0 {
					t.Errorf("started %d finished %d, want a job that runs again from the beginning", r.Started, r.Finished)
				}
			}},
		{name: "queued→canceled", from: StateQueued, to: StateCanceled, why: causeCancel,
			counter: "jobs_canceled_total",
			stamps: func(t *testing.T, r *jobRecord) {
				if r.Started != 0 || r.Finished == 0 {
					t.Errorf("started %d finished %d, want finished only", r.Started, r.Finished)
				}
			}},
		{name: "new→queued", to: StateQueued, why: causeAccept,
			stamps: func(t *testing.T, r *jobRecord) {
				if r.Started != 0 || r.Finished != 0 {
					t.Errorf("started %d finished %d, want a job with no history", r.Started, r.Finished)
				}
			}},
		{name: "new→done-cached", to: StateDone, why: causeCacheHit, data: result,
			counter: "cache_hits_total",
			stamps: func(t *testing.T, r *jobRecord) {
				if !r.Cached || r.Started == 0 || r.Started != r.Finished {
					t.Errorf("cached %v started %d finished %d, want cached and over in no time", r.Cached, r.Started, r.Finished)
				}
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			f := newTransitionFixture(t, nil)
			j := f.place(row.from)
			seq := uint64(1)
			if row.from == "" {
				seq = 0
			}
			before := scrapeCounters(t, f.svc)
			if !f.move(j, row.to, row.why, row.data) {
				t.Error("the move did not land on a healthy store")
			}
			f.checkMoved(j, row.to, row.to, seq, row.data)
			if row.stamps != nil {
				row.stamps(t, j.rec)
			}
			want := map[string]uint64{}
			if row.counter != "" {
				want[prefix+row.counter] = 1
			}
			if moved := movedCounters(before, scrapeCounters(t, f.svc)); !reflect.DeepEqual(moved, want) {
				t.Errorf("counters moved = %v, want %v", moved, want)
			}
		})
	}

	// The degraded-store arm: the result cannot be written, so the bytes are
	// served from memory and the record on disk stays where it was — never
	// a done record without its result file.
	t.Run("degraded store", func(t *testing.T) {
		plan := &fault.Plan{Rules: []fault.Rule{{Op: fault.OpCreateTemp, Match: "results", Nth: 1, Kind: fault.KindEIO}}}
		f := newTransitionFixture(t, fault.NewInjector(nil, plan))
		j := f.place(StateRunning)
		before := scrapeCounters(t, f.svc)
		if f.move(j, StateDone, causeComplete, result) {
			t.Error("the move reports it landed; the result file was refused")
		}
		f.checkMoved(j, StateDone, StateRunning, 1, result)
		if got, err := f.svc.Result(j.rec.ID); err != nil || !bytes.Equal(got, result) {
			t.Errorf("Result = %q, %v; want the bytes from memory", got, err)
		}
		if h := f.svc.Health(); h.Status != "degraded" {
			t.Errorf("health = %+v, want degraded", h)
		}
		want := map[string]uint64{prefix + "jobs_done_total": 1, prefix + "store_faults_total": 1}
		if moved := movedCounters(before, scrapeCounters(t, f.svc)); !reflect.DeepEqual(moved, want) {
			t.Errorf("counters moved = %v, want %v", moved, want)
		}
	})

	// A job's first move is its acceptance: when that cannot land, nothing
	// has happened — no event, no count but the store fault — and Submit
	// refuses.
	for _, first := range []struct {
		name string
		to   State
		why  cause
		data []byte
		dir  string // the store directory whose first temp file fails
	}{
		{"refused/queued", StateQueued, causeAccept, nil, "jobs"},
		{"refused/done-cached", StateDone, causeCacheHit, result, "results"},
	} {
		t.Run(first.name, func(t *testing.T) {
			plan := &fault.Plan{Rules: []fault.Rule{{Op: fault.OpCreateTemp, Match: first.dir, Nth: 1, Kind: fault.KindEIO}}}
			f := newTransitionFixture(t, fault.NewInjector(nil, plan))
			j := f.place("")
			before := scrapeCounters(t, f.svc)
			if f.move(j, first.to, first.why, first.data) {
				t.Fatal("a first move that wrote no record reports it landed")
			}
			if _, err := os.Stat(f.svc.store.jobPath(j.rec.ID)); err == nil {
				t.Error("a refused job has a record on disk")
			}
			if events, latest, _ := f.svc.hub.since(j.rec.ID, 0); len(events) != 0 || latest != 0 {
				t.Errorf("a refused job published %+v", events)
			}
			want := map[string]uint64{prefix + "store_faults_total": 1}
			if moved := movedCounters(before, scrapeCounters(t, f.svc)); !reflect.DeepEqual(moved, want) {
				t.Errorf("counters moved = %v, want %v", moved, want)
			}
		})
	}
}
