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
	"symsim/internal/vvp"
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
		ProgressEvery: time.Millisecond,
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

	// A complete leader, one follower done with its bytes, one canceled
	// while parked.
	holdLead := make(chan struct{})
	gates.Store("lead", holdLead)
	leader := submit(JobSpec{Bench: "lead"})
	waitState(t, svc, leader.ID, StateRunning)
	follower := submit(JobSpec{Bench: "lead"})
	dropped := submit(JobSpec{Bench: "lead"})
	cancel(dropped.ID)
	waitState(t, svc, dropped.ID, StateCanceled)
	close(holdLead)
	waitState(t, svc, leader.ID, StateDone)
	waitState(t, svc, follower.ID, StateDone)

	if hit := submit(JobSpec{Bench: "lead"}); !hit.Cached || hit.State != StateDone {
		t.Fatalf("resubmission not served from the cache: %+v", hit)
	}
	degraded := submit(JobSpec{Bench: "budget", MaxForks: 2})
	waitState(t, svc, degraded.ID, StateDone)
	failed := submit(JobSpec{Bench: "fail"})
	waitState(t, svc, failed.ID, StateFailed)

	c := scrapeCounters(t, svc)
	get := func(name string) uint64 { return c["symsim_service_"+name+"_total"] }
	want := map[string]uint64{
		"jobs_accepted": 9, "cache_hits": 1, "jobs_done": 2, "jobs_degraded": 1, "jobs_failed": 1, "jobs_canceled": 4,
		"cache_misses": 8, "coalesced": 2,
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

// TestCancelQueuedResumableRemovesCheckpoint: a job a drain left queued
// with its checkpoint on disk is canceled before it runs again. The
// checkpoint goes with it — once only a finishing run removed checkpoints,
// and this one stayed on disk forever.
func TestCancelQueuedResumableRemovesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	midRun := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc1, err := New(Config{
		DataDir:         dir,
		Workers:         1,
		CheckpointEvery: time.Millisecond,
		ProgressEvery:   time.Millisecond,
		BuildPlatform:   loopPlatform(t, 0x7),
		tuneConfig: func(id string, cc *core.Config) {
			cc.OnHalt = func(int, vvp.State) {
				once.Do(func() {
					close(midRun)
					<-release
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resumable, err := svc1.Submit(JobSpec{Design: "dr5", Bench: "resumable", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-midRun
	// Queued behind the interrupted job, and ahead of it after the restart.
	ahead, err := svc1.Submit(JobSpec{Design: "dr5", Bench: "ahead", Workers: 1, Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc1.beginDrain()
	close(release)
	svc1.waitIdle()

	gate := make(chan struct{})
	svc2, err := New(Config{
		DataDir:       dir,
		Workers:       1,
		ProgressEvery: time.Millisecond,
		BuildPlatform: loopPlatform(t, 0x7),
		tuneConfig:    func(string, *core.Config) { <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc2, ahead.ID, StateRunning)
	if v, _ := svc2.Job(resumable.ID); v.State != StateQueued || !v.Resumable || !svc2.store.hasCheckpoint(resumable.ID) {
		t.Fatalf("recovered job = %+v (checkpoint %v), want queued and resumable with its checkpoint on disk",
			v, svc2.store.hasCheckpoint(resumable.ID))
	}
	if err := svc2.Cancel(resumable.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, svc2, resumable.ID, StateCanceled)
	if svc2.store.hasCheckpoint(resumable.ID) {
		t.Error("checkpoint of a job canceled while queued is still on disk")
	}
	close(gate)
	waitState(t, svc2, ahead.ID, StateDone)
	svc2.Close()

	svc3, err := New(Config{DataDir: dir, Workers: 1, BuildPlatform: loopPlatform(t, 0x7)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc3.Close()
	if v, _ := svc3.Job(resumable.ID); v.State != StateCanceled {
		t.Errorf("canceled job after restart = %s, want canceled", v.State)
	}
	if svc3.store.hasCheckpoint(resumable.ID) {
		t.Error("checkpoint of the canceled job is back after a restart")
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
// disk, one event on its stream and — unless it is parked behind leader —
// the lead of its cache key. A running job holds a cancel handle and, like
// any job with run history, a checkpoint. A job in no state yet is what
// Submit holds before its first move: nothing on disk, no event, unknown
// to the service.
func (f *transitionFixture) place(from State, key string, leader *job, checkpoint bool) *job {
	f.t.Helper()
	s := f.svc
	spec, err := normalize(JobSpec{Design: "dr5", Bench: key, Workers: 1}, nil)
	if err != nil {
		f.t.Fatal(err)
	}
	j := &job{rec: &jobRecord{ID: newJobID(), Spec: spec, State: from, Submitted: time.Now().UnixNano(), CacheKey: key}}
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
	if checkpoint {
		if err := os.WriteFile(s.store.checkpointPath(j.rec.ID), []byte("ckpt"), 0o644); err != nil {
			f.t.Fatal(err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.rec.ID] = j
	if leader != nil {
		s.followers[leader.rec.ID] = append(s.followers[leader.rec.ID], j.rec.ID)
	} else {
		s.inflightByKey[key] = j.rec.ID
	}
	s.hub.Publish(Event{Type: "state", Job: j.rec.ID, State: from})
	return j
}

// move makes one transition under the service's lock. Nothing else moves a
// placed job — the workers are idle and there is no watchdog — so a test
// reads it afterwards without the lock.
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
// done there, no checkpoint once terminal, and one "state" event numbered
// next on the job's stream.
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
	if terminal(to) && s.store.hasCheckpoint(j.rec.ID) {
		f.t.Errorf("checkpoint survived the move to %s", to)
	}
	events, latest, _ := s.hub.since(j.rec.ID, seqBefore)
	if len(events) != 1 || events[0].Type != "state" || events[0].State != to || events[0].Seq != seqBefore+1 || latest != seqBefore+1 {
		f.t.Errorf("events after the move = %+v (latest %d), want one state event %s numbered %d", events, latest, to, seqBefore+1)
	}
}

// TestTransitionTable walks every edge of the job lifecycle through the one
// transition: what is stamped, what lands on disk and in which state, the
// event, the one counter the cause owns, and who leads the cache key
// afterwards.
func TestTransitionTable(t *testing.T) {
	result := []byte(`{"complete":true}`)
	const prefix = "symsim_service_"
	rows := []struct {
		name       string
		from, to   State
		why        cause
		data       []byte
		checkpoint bool
		counter    string // "" when the edge owns none
		// stamps checks the times and flags of the moved record.
		stamps func(t *testing.T, r *jobRecord)
	}{
		{name: "queued→running", from: StateQueued, to: StateRunning, why: causeStart, checkpoint: true,
			stamps: func(t *testing.T, r *jobRecord) {
				if r.Started == 0 || r.Finished != 0 {
					t.Errorf("started %d finished %d, want started only", r.Started, r.Finished)
				}
			}},
		{name: "running→done", from: StateRunning, to: StateDone, why: causeComplete, data: result, checkpoint: true,
			counter: "jobs_done_total",
			stamps: func(t *testing.T, r *jobRecord) {
				if r.Started != 1 || r.Finished == 0 || r.Cached {
					t.Errorf("started %d finished %d cached %v, want the run's start kept, finished now, not cached", r.Started, r.Finished, r.Cached)
				}
			}},
		{name: "running→done-degraded", from: StateRunning, to: StateDone, why: causeBudget, data: result, checkpoint: true,
			counter: "jobs_degraded_total"},
		{name: "running→failed", from: StateRunning, to: StateFailed, why: causeError, checkpoint: true,
			counter: "jobs_failed_total"},
		{name: "running→canceled", from: StateRunning, to: StateCanceled, why: causeCancel, checkpoint: true,
			counter: "jobs_canceled_total"},
		{name: "running→queued-by-drain", from: StateRunning, to: StateQueued, why: causeDrain, checkpoint: true,
			counter: "jobs_requeued_total",
			stamps: func(t *testing.T, r *jobRecord) {
				if r.Started != 0 || !r.Resumable {
					t.Errorf("started %d resumable %v, want a resumable job that has not started", r.Started, r.Resumable)
				}
			}},
		{name: "running→queued-by-lease", from: StateRunning, to: StateQueued, why: causeLease,
			counter: "lease_expiries_total",
			stamps: func(t *testing.T, r *jobRecord) {
				if r.Started != 0 || r.Resumable {
					t.Errorf("started %d resumable %v, want a fresh start: there is no checkpoint", r.Started, r.Resumable)
				}
			}},
		{name: "queued→canceled", from: StateQueued, to: StateCanceled, why: causeCancel, checkpoint: true,
			counter: "jobs_canceled_total",
			stamps: func(t *testing.T, r *jobRecord) {
				if r.Started != 0 || r.Finished == 0 {
					t.Errorf("started %d finished %d, want finished only", r.Started, r.Finished)
				}
			}},
		{name: "new→queued", to: StateQueued, why: causeAccept,
			stamps: func(t *testing.T, r *jobRecord) {
				if r.Started != 0 || r.Finished != 0 || r.Resumable {
					t.Errorf("started %d finished %d resumable %v, want a job with no history", r.Started, r.Finished, r.Resumable)
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
			j := f.place(row.from, "key", nil, row.checkpoint)
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
			if !terminal(row.to) && row.checkpoint && !f.svc.store.hasCheckpoint(j.rec.ID) {
				t.Error("checkpoint of a job that will run again was removed")
			}
			want := map[string]uint64{}
			if row.counter != "" {
				want[prefix+row.counter] = 1
			}
			if moved := movedCounters(before, scrapeCounters(t, f.svc)); !reflect.DeepEqual(moved, want) {
				t.Errorf("counters moved = %v, want %v", moved, want)
			}
			// (Who leads after an acceptance is Submit's to say.)
			lead, leads := f.svc.inflightByKey["key"]
			if row.from != "" && terminal(row.to) == leads {
				t.Errorf("after %s the cache key is led by %q; a job leads its key exactly while it can still produce the result", row.to, lead)
			}
		})
	}

	// A complete leader hands its bytes to every follower (queued→done-
	// coalesced); any other end promotes the first follower and leaves the
	// rest behind it.
	t.Run("coalition/complete", func(t *testing.T) {
		f := newTransitionFixture(t, nil)
		leader := f.place(StateRunning, "key", nil, true)
		f1 := f.place(StateQueued, "key", leader, false)
		f2 := f.place(StateQueued, "key", leader, false)
		before := scrapeCounters(t, f.svc)
		f.move(leader, StateDone, causeComplete, result)
		for _, j := range []*job{leader, f1, f2} {
			f.checkMoved(j, StateDone, StateDone, 1, result)
		}
		if !f1.rec.Cached || f1.rec.Started != f1.rec.Finished || leader.rec.Cached {
			t.Errorf("follower %+v, leader %+v: want the followers cached and the leader not", f1.rec, leader.rec)
		}
		if len(f.svc.inflightByKey) != 0 || len(f.svc.followers) != 0 {
			t.Errorf("coalition not dissolved: inflight %v followers %v", f.svc.inflightByKey, f.svc.followers)
		}
		moved := movedCounters(before, scrapeCounters(t, f.svc))
		if want := map[string]uint64{prefix + "jobs_done_total": 3}; !reflect.DeepEqual(moved, want) {
			t.Errorf("counters moved = %v, want %v", moved, want)
		}
	})
	t.Run("coalition/promote", func(t *testing.T) {
		f := newTransitionFixture(t, nil)
		leader := f.place(StateRunning, "key", nil, true)
		f1 := f.place(StateQueued, "key", leader, false)
		f2 := f.place(StateQueued, "key", leader, false)
		// The promoted follower is in the queue and the idle worker will take
		// it: hold the lock over the assertions.
		f.svc.mu.Lock()
		defer f.svc.mu.Unlock()
		f.svc.moveLocked(leader, StateDone, causeBudget, result)
		f.checkMoved(leader, StateDone, StateDone, 1, result)
		if f1.rec.State != StateQueued || f2.rec.State != StateQueued {
			t.Errorf("followers = %s, %s; a degraded result is not theirs to share", f1.rec.State, f2.rec.State)
		}
		if got := f.svc.inflightByKey["key"]; got != f1.rec.ID {
			t.Errorf("cache key led by %q, want the first follower", got)
		}
		if got := f.svc.followers[f1.rec.ID]; len(f.svc.followers) != 1 || len(got) != 1 || got[0] != f2.rec.ID {
			t.Errorf("followers = %v, want the second follower behind the first", f.svc.followers)
		}
	})

	// The degraded-store arm: the result cannot be written, so the bytes are
	// served from memory and the record on disk stays where it was — never
	// a done record without its result file.
	t.Run("degraded store", func(t *testing.T) {
		plan, err := fault.ParsePlan("createtemp@1~results=eio")
		if err != nil {
			t.Fatal(err)
		}
		f := newTransitionFixture(t, fault.NewInjector(nil, plan))
		j := f.place(StateRunning, "key", nil, true)
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
		plan string
	}{
		{"refused/queued", StateQueued, causeAccept, nil, "createtemp@1~jobs=eio"},
		{"refused/done-cached", StateDone, causeCacheHit, result, "createtemp@1~results=eio"},
	} {
		t.Run(first.name, func(t *testing.T) {
			plan, err := fault.ParsePlan(first.plan)
			if err != nil {
				t.Fatal(err)
			}
			f := newTransitionFixture(t, fault.NewInjector(nil, plan))
			j := f.place("", "key", nil, false)
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
