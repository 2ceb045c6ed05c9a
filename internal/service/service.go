package service

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"symsim/internal/core"
	"symsim/internal/fault"
	"symsim/internal/obs"
	"symsim/internal/report"
)

// Config configures a Service.
type Config struct {
	// DataDir is the root of the durable store (jobs, results, cache).
	// Required.
	DataDir string
	// Workers is the job worker pool size (concurrent analyses, each on
	// one explorer). Default 2.
	Workers int
	// QueueCap bounds the pending-job queue; submissions beyond it get
	// ErrQueueFull (HTTP 429). Default 64.
	QueueCap int
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Metrics is the observability registry the service (and every job's
	// core analysis) publishes into, served at /metrics in Prometheus
	// text format. Nil selects obs.Default.
	Metrics *obs.Registry

	// progressEvery, when non-zero, replaces the progress heartbeat
	// interval streamed to subscribers (defaultProgressEvery) — a test
	// seam for streams that must heartbeat fast or not at all.
	progressEvery time.Duration
	// sseKeepAlive, when non-zero, replaces the interval of the ": ping"
	// comment lines event streams emit (defaultSSEKeepAlive) — a test seam
	// for a stream that must show its pings quickly.
	sseKeepAlive time.Duration
	// buildPlatform, when non-nil, resolves a design/bench pair to a
	// platform instead of the shipped evaluation platforms
	// (report.BuildPlatform) — the seam through which tests run small
	// synthetic platforms.
	buildPlatform func(design, bench string) (*core.Platform, error)
	// tuneConfig, when non-nil, is applied to each job's core.Config just
	// before the analysis starts — a test seam for installing hooks
	// (e.g. an OnHalt that blocks mid-run to make drain deterministic).
	tuneConfig func(jobID string, cc *core.Config)
	// fs, when non-nil, is the filesystem the durable store writes
	// through instead of the real OS — the fault-injection tests' seam
	// for a fault.Injector.
	fs fault.FS
}

// defaultProgressEvery is the interval of the progress heartbeats a
// running job streams to its subscribers.
const defaultProgressEvery = 250 * time.Millisecond

// defaultSSEKeepAlive is the interval of the ": ping" comment lines an
// event stream emits between events, so proxy and load-balancer idle
// timeouts do not sever the streams of long-quiet jobs.
const defaultSSEKeepAlive = 15 * time.Second

// job is the in-memory view of one job: its persisted record plus the
// cancel handle of its running analysis.
type job struct {
	rec             *jobRecord
	cancel          context.CancelFunc
	cancelRequested bool
	// cpuSeconds accumulates the analysis' BusyTime (summed path-segment
	// wall time — the job's CPU attribution) across its runs, a drained
	// run's included. In-memory only: the job record (SYMSIMJ3) does not
	// carry it, so the figure resets on daemon restart.
	cpuSeconds float64
	// resultData is the degraded-mode fallback: when the store cannot
	// persist a finished job's result, the bytes are kept here so Result
	// still serves them — the daemon degrades instead of failing the job.
	resultData []byte
}

// Service is the analysis daemon core: a bounded FIFO queue feeding a
// worker pool of core.AnalyzeContext runs, a durable job store, a
// content-addressed result cache and an event hub for progress streaming.
// It is transport-agnostic; Handler wraps it in HTTP.
type Service struct {
	cfg   Config
	store *store
	queue *jobQueue
	hub   *hub
	reg   *obs.Registry
	om    *svcObs

	mu       sync.Mutex
	jobs     map[string]*job
	draining bool
	wg       sync.WaitGroup

	// degraded flips on when a store write fails and off on the next
	// success; degradedReason (mu-guarded) carries the last failure.
	degraded       atomic.Bool
	degradedReason string

	// simulatedCycles and busySeconds accumulate the finished analyses'
	// throughput for Metrics (mu-guarded).
	simulatedCycles uint64
	busySeconds     float64
}

// svcObs caches the service's counters: the one set behind both the
// Prometheus series and the JSON Metrics snapshot.
type svcObs struct {
	accepted    *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	degraded    *obs.Counter
	requeued    *obs.Counter
	failed      *obs.Counter
	done        *obs.Counter
	canceled    *obs.Counter
	storeFaults *obs.Counter
	tmpReaped   *obs.Counter
}

func newSvcObs(reg *obs.Registry) *svcObs {
	return &svcObs{
		accepted:    reg.Counter("symsim_service_jobs_accepted_total", "Jobs accepted by Submit."),
		cacheHits:   reg.Counter("symsim_service_cache_hits_total", "Submissions satisfied from the result cache."),
		cacheMisses: reg.Counter("symsim_service_cache_misses_total", "Submissions that had to run."),
		degraded:    reg.Counter("symsim_service_jobs_degraded_total", "Jobs finished with a budget-degraded result."),
		requeued:    reg.Counter("symsim_service_jobs_requeued_total", "Jobs re-queued by a drain."),
		failed:      reg.Counter("symsim_service_jobs_failed_total", "Jobs finished in error."),
		done:        reg.Counter("symsim_service_jobs_done_total", "Jobs finished successfully."),
		canceled:    reg.Counter("symsim_service_jobs_canceled_total", "Jobs canceled before completing."),
		storeFaults: reg.Counter("symsim_service_store_faults_total", "Durable-store I/O failures observed (each one trips or extends degraded mode)."),
		tmpReaped:   reg.Counter("symsim_service_tmp_reaped_total", "Orphan temp files reaped from the store at startup."),
	}
}

// ErrUnknownJob is returned for operations on a job ID the service has
// never seen.
var ErrUnknownJob = errors.New("service: unknown job")

// ErrJobFinished is returned by Cancel on a job that already reached a
// terminal state.
var ErrJobFinished = errors.New("service: job already finished")

// ErrNotDone is returned by Result for a job without a stored result yet.
var ErrNotDone = errors.New("service: job has no result yet")

// ErrDraining is returned by Submit once a drain has begun.
var ErrDraining = errors.New("service: draining, not accepting jobs")

// ErrDegraded is returned by Submit when the durable store cannot persist
// the job record: the service refuses rather than accepting a job it
// could lose on restart. The HTTP layer maps it to 503 so well-behaved
// clients retry with backoff once the disk recovers.
var ErrDegraded = errors.New("service: store degraded, submission refused")

// New opens (or creates) the durable store under cfg.DataDir, recovers
// jobs interrupted by a crash or drain — running records return to the
// queue, to run again from cold boot — and starts the worker pool.
func New(cfg Config) (*Service, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: Config.DataDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.progressEvery <= 0 {
		cfg.progressEvery = defaultProgressEvery
	}
	if cfg.sseKeepAlive <= 0 {
		cfg.sseKeepAlive = defaultSSEKeepAlive
	}
	if cfg.buildPlatform == nil {
		cfg.buildPlatform = func(design, bench string) (*core.Platform, error) {
			return report.BuildPlatform(report.Design(design), bench)
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default
	}

	st, reaped, reapErrs, err := openStore(cfg.DataDir, cfg.fs)
	if err != nil {
		return nil, err
	}
	for _, e := range reapErrs {
		cfg.Logf("service: store reap: %v", e)
	}
	if reaped > 0 {
		cfg.Logf("service: reaped %d orphan temp file(s) from interrupted writes", reaped)
	}
	s := &Service{
		cfg:   cfg,
		store: st,
		queue: newJobQueue(cfg.QueueCap),
		hub:   newHub(),
		reg:   cfg.Metrics,
		jobs:  make(map[string]*job),
	}
	s.om = newSvcObs(s.reg)
	s.om.tmpReaped.Add(uint64(reaped))
	s.reg.GaugeFunc("symsim_service_queue_depth", "Pending jobs in the queue.",
		func() float64 { return float64(s.queue.Len()) })
	s.reg.GaugeFunc("symsim_service_degraded", "1 while the durable store is failing writes (degraded mode), else 0.",
		func() float64 {
			if s.degraded.Load() {
				return 1
			}
			return 0
		})
	s.reg.GaugeFunc("symsim_service_jobs_running", "Jobs currently analyzing.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, j := range s.jobs {
				if j.rec.State == StateRunning {
					n++
				}
			}
			return float64(n)
		})

	recs, errs := st.loadJobs()
	for _, e := range errs {
		cfg.Logf("service: skipping unreadable job record: %v", e)
	}
	for _, rec := range recs {
		// Crash recovery: a record stuck in "running" was interrupted
		// without a clean finish. It goes back to the queue and runs
		// again from the beginning.
		if rec.State == StateRunning {
			rec.State = StateQueued
			rec.Started = 0
			if err := st.saveJob(rec); err != nil {
				// Degrade, don't die: the in-memory state is repaired and
				// the job still runs; the stale on-disk "running" record
				// would simply be repaired again by the next restart.
				cfg.Logf("service: persisting crash repair of job %s: %v", rec.ID, err)
				s.noteStoreFaultLocked(err)
			}
		}
		s.jobs[rec.ID] = &job{rec: rec}
		if rec.State == StateQueued {
			// Recovered pushes bypass the capacity check: the daemon
			// must not reject jobs it already accepted.
			if err := s.queue.Push(rec.ID, true); err != nil {
				return nil, err
			}
			cfg.Logf("service: recovered job %s", rec.ID)
		}
	}

	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		id, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.runJob(id)
	}
}

// Submit normalizes and accepts a job. Acceptance is the job's first move
// (moveLocked) landing on disk: to queued, or — if an identical analysis
// (by content-addressed cache key) already completed — straight to done
// from the cache, without queueing. A job whose first record the store
// cannot write is refused with ErrDegraded; a full queue returns
// ErrQueueFull before anything is written; an invalid spec a
// *BadSpecError. Only a submission that comes back as a JobView counts as
// accepted (and, unless the cache served it, as a cache miss).
func (s *Service) Submit(spec JobSpec) (JobView, error) {
	spec, err := normalize(spec)
	if err != nil {
		return JobView{}, err
	}
	p, err := s.cfg.buildPlatform(spec.Design, spec.Bench)
	if err != nil {
		return JobView{}, &BadSpecError{Reason: err.Error()}
	}
	hash := p.Design.Hash()
	key := cacheKey(hash, spec)

	// State stays empty until the first move lands: the job is not accepted.
	j := &job{rec: &jobRecord{
		ID:         newJobID(),
		Spec:       spec,
		Submitted:  time.Now().UnixNano(),
		CacheKey:   key,
		DesignHash: hash.String(),
	}}
	id := j.rec.ID

	// The cache read happens before the lock: a file read must not stall
	// every concurrent submission behind s.mu.
	data, hit, cacheErr := s.store.readCache(key)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobView{}, ErrDraining
	}
	if cacheErr != nil {
		// A faulting or corrupt cache entry is a miss, never an error to
		// the client: the submission simply runs instead.
		s.cfg.Logf("service: job %s: cache read: %v", id, cacheErr)
		s.noteStoreFaultLocked(cacheErr)
	}

	// A miss is queued before its first move, so a full queue refuses it
	// with nothing written; no worker gets to the job before this function
	// returns, because runJob starts by taking s.mu.
	to, why := StateQueued, causeAccept
	if hit {
		// Content-addressed hit: the exact analysis already ran to
		// completion. Serve the stored result without spending a cycle.
		to, why = StateDone, causeCacheHit
	} else if err := s.queue.Push(id, false); err != nil {
		return JobView{}, err
	}
	if !s.moveLocked(j, to, why, data) { // data is nil on a miss
		// Refuse rather than accept a job the daemon could lose on
		// restart: with no durable record, a crash would silently drop it.
		if !hit {
			s.queue.Remove(id)
		}
		return JobView{}, fmt.Errorf("%w: %s", ErrDegraded, s.degradedReason)
	}
	s.jobs[id] = j
	s.om.accepted.Inc()
	if !hit {
		s.om.cacheMisses.Inc()
	}
	return viewOf(j), nil
}

// cause is why a job changes state. With the target state it names one
// edge of the lifecycle (DESIGN.md §9 has the table), and each cause owns
// at most one counter.
type cause int

const (
	causeAccept   cause = iota // Submit, the job's first move (Submit counts what a submission is: accepted, miss)
	causeStart                 // a worker took the job off the queue (no counter)
	causeComplete              // the analysis explored every path: jobs_done
	causeBudget                // a budget tripped, the result is sound but over-approximate: jobs_degraded
	causeCacheHit              // Submit found the finished analysis in the cache: cache_hits
	causeError                 // the analysis (or encoding its result) failed: jobs_failed
	causeCancel                // a client asked: jobs_canceled
	causeDrain                 // shutdown interrupted the analysis: jobs_requeued
)

// moveLocked is the one place a job changes state once New's recovery loop
// is over (mu held). From the target state, the cause and the result bytes
// (non-nil exactly on the way to done) it stamps the record's times, writes
// result then record, counts the cause, publishes the state event, drops
// the cancel handle of the state being left. Callers say where to and why,
// and do only what is theirs alone: the queue, the cache, the error text.
//
// It reports whether the move landed: the record on disk shows the new
// state. An accepted job moves in memory either way — the daemon degrades,
// it does not fail work — but a job's first move is its acceptance, and if
// that does not land nothing has happened: no count, no event, false.
func (s *Service) moveLocked(j *job, to State, why cause, data []byte) (landed bool) {
	rec := j.rec
	from := rec.State
	now := time.Now().UnixNano()
	switch {
	case to == StateRunning:
		rec.Started = now
	case to == StateQueued:
		// Back from a drain, the job will run again from cold boot.
		rec.Started = 0
	default:
		rec.Finished = now
		if from != StateRunning && to == StateDone {
			// Served without running, from the cache.
			rec.Cached, rec.Started = true, now
		}
	}
	rec.State = to
	j.cancel = nil

	// Result before record: a done record is never on disk without its
	// result file (the half-written state the torture sweep hunts). When
	// the bytes cannot be persisted the job still finished — they are kept
	// in memory so Result serves them, the service enters degraded mode
	// instead of failing work that is already done, and the durable record
	// is NOT advanced: it stays at its last persisted state, so a restart
	// runs the job again.
	if data != nil {
		if err := s.store.writeResult(rec.ID, data); err != nil {
			s.cfg.Logf("service: job %s: persisting result: %v (serving from memory)", rec.ID, err)
			s.noteStoreFaultLocked(err)
			j.resultData = data
		}
	}
	if j.resultData == nil {
		if err := s.store.saveJob(rec); err != nil {
			s.cfg.Logf("service: persisting job %s: %v", rec.ID, err)
			s.noteStoreFaultLocked(err)
		} else {
			s.noteStoreOKLocked()
			landed = true
		}
	}
	if from == "" && !landed {
		return false
	}

	switch why {
	case causeComplete:
		s.om.done.Inc()
	case causeBudget:
		s.om.degraded.Inc()
	case causeCacheHit:
		s.om.cacheHits.Inc()
	case causeError:
		s.om.failed.Inc()
	case causeCancel:
		s.om.canceled.Inc()
	case causeDrain:
		s.om.requeued.Inc()
	}
	s.hub.Publish(Event{Type: "state", Job: rec.ID, State: to})
	return landed
}

// runJob executes one queued job to a terminal state (or back to the
// queue on drain). Runs on a worker goroutine.
func (s *Service) runJob(id string) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil || j.rec.State != StateQueued {
		s.mu.Unlock()
		return
	}
	if j.cancelRequested {
		// Cancel did not find the job in the queue: this worker had
		// already popped it.
		s.moveLocked(j, StateCanceled, causeCancel, nil)
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.moveLocked(j, StateRunning, causeStart, nil)
	j.cancel = cancel
	spec := j.rec.Spec
	s.mu.Unlock()
	defer cancel()

	res, err := s.analyze(ctx, id, spec)
	s.finishJob(id, res, err)
}

// analyze maps a job spec onto a core run from cold boot: platform,
// policy, budgets, and progress heartbeats published to the hub.
func (s *Service) analyze(ctx context.Context, id string, spec JobSpec) (*core.Result, error) {
	p, err := s.cfg.buildPlatform(spec.Design, spec.Bench)
	if err != nil {
		return nil, err
	}
	cc, err := spec.Config()
	if err != nil {
		return nil, err
	}
	cc.ProgressEvery = s.cfg.progressEvery
	cc.Metrics = s.reg
	cc.Progress = func(pr core.Progress) {
		s.hub.Publish(Event{Type: "progress", Job: id, Progress: &pr})
	}
	if s.cfg.tuneConfig != nil {
		s.cfg.tuneConfig(id, &cc)
	}
	return core.AnalyzeContext(ctx, p, cc)
}

// finishJob decides where a finished analysis goes — a terminal state, or
// back into the queue when a drain interrupted it — and moves it there.
func (s *Service) finishJob(id string, res *core.Result, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if res != nil {
		// Accumulate across runs: a drained-and-restarted job keeps the
		// CPU it already spent.
		j.cpuSeconds += res.BusyTime.Seconds()
	}

	// An incomplete result with nobody having interrupted it is a budget
	// degradation: terminal, result served, never cached.
	to, why := StateDone, causeBudget
	switch {
	case err != nil: // failed, below — like a marshal error
	case res.Complete:
		why = causeComplete
	case j.cancelRequested:
		to, why = StateCanceled, causeCancel
	case s.draining:
		to, why = StateQueued, causeDrain
	}
	var data []byte
	if err == nil && to == StateDone {
		data, err = json.Marshal(report.Summarize(j.rec.Spec.Design, j.rec.Spec.Bench, res))
	}
	if err != nil {
		// A marshal failure is a bug, not a disk fault: it fails the job
		// like an analysis error does.
		to, why, data = StateFailed, causeError, nil
		j.rec.Error = err.Error()
	}
	landed := s.moveLocked(j, to, why, data)
	if to == StateDone {
		s.noteThroughputLocked(j.rec, res)
	}
	// Only complete results enter the content cache: a degraded dichotomy
	// is sound but over-approximate, and caching it would freeze the
	// degradation into every future identical submission. When the job's
	// own files did not land the cache write is bypassed outright — it
	// would only burn another fault.
	if why == causeComplete && landed {
		if werr := s.store.writeCache(j.rec.CacheKey, data); werr != nil {
			s.cfg.Logf("service: job %s: caching result: %v", id, werr)
			s.noteStoreFaultLocked(werr)
		}
	}
}

// noteThroughputLocked accrues a finished analysis's cycles and run time
// (mu held).
func (s *Service) noteThroughputLocked(rec *jobRecord, res *core.Result) {
	s.simulatedCycles += res.SimulatedCycles
	if rec.Finished > rec.Started && rec.Started > 0 {
		s.busySeconds += time.Duration(rec.Finished - rec.Started).Seconds()
	}
}

// noteStoreFaultLocked counts a durable-store I/O failure: the service
// enters (or stays in) degraded mode until a store write succeeds again.
// Callers hold s.mu (or, during New, have not yet published the Service).
func (s *Service) noteStoreFaultLocked(err error) {
	s.om.storeFaults.Inc()
	s.degradedReason = err.Error()
	if s.degraded.CompareAndSwap(false, true) {
		s.cfg.Logf("service: entering degraded mode: %v", err)
	}
}

// noteStoreOKLocked clears degraded mode after a successful store write —
// every ordinary write doubles as the recovery probe, so no separate
// health-check goroutine is needed.
func (s *Service) noteStoreOKLocked() {
	if s.degraded.CompareAndSwap(true, false) {
		s.degradedReason = ""
		s.cfg.Logf("service: store recovered, leaving degraded mode")
	}
}

// Cancel stops a job: a queued job is withdrawn, a running one has its
// analysis context canceled (the core drains soundly and the job settles
// as canceled).
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return ErrUnknownJob
	}
	switch j.rec.State {
	case StateQueued:
		j.cancelRequested = true
		if s.queue.Remove(id) {
			s.moveLocked(j, StateCanceled, causeCancel, nil)
		}
		// Otherwise a worker has already popped the ID and will observe
		// cancelRequested in runJob.
		return nil
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
		return nil
	default:
		return ErrJobFinished
	}
}

// Job returns the current view of one job.
func (s *Service) Job(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobView{}, ErrUnknownJob
	}
	return viewOf(j), nil
}

// Jobs lists every known job in submission order.
func (s *Service) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	views := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, viewOf(j))
	}
	slices.SortFunc(views, func(a, b JobView) int {
		return cmp.Or(cmp.Compare(a.Submitted, b.Submitted), cmp.Compare(a.ID, b.ID))
	})
	return views
}

// Result returns the stored result JSON for a done job. When the durable
// store faulted at finish time, the in-memory fallback copy is served
// instead — a finished job's result survives a failing disk (but not a
// daemon restart; the job would then run again).
func (s *Service) Result(id string) ([]byte, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return nil, ErrUnknownJob
	}
	if j.rec.State != StateDone {
		s.mu.Unlock()
		return nil, ErrNotDone
	}
	mem := j.resultData
	s.mu.Unlock()
	data, err := s.store.readResult(id)
	if err != nil && mem != nil {
		return mem, nil
	}
	return data, err
}

// HealthView is the /healthz body: "ok" normally, "degraded" with the
// last store error while the durable store is failing writes.
type HealthView struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// Health returns the current health view.
func (s *Service) Health() HealthView {
	if !s.degraded.Load() {
		return HealthView{Status: "ok"}
	}
	s.mu.Lock()
	reason := s.degradedReason
	s.mu.Unlock()
	return HealthView{Status: "degraded", Reason: reason}
}

// beginDrain makes the shutdown decision visible everywhere at once:
// submissions are refused, blocked workers wake and exit, and every
// running analysis is canceled — finishJob re-queues those jobs, which
// lose the work they had done and run again from cold boot.
func (s *Service) beginDrain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	for _, j := range s.jobs {
		if j.rec.State == StateRunning && j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	s.queue.Close()
}

// waitIdle blocks until every worker has exited.
func (s *Service) waitIdle() { s.wg.Wait() }

// Drain gracefully shuts the service down: no new jobs, running analyses
// stop and re-queue, workers exit. Safe to call more than once.
func (s *Service) Drain() {
	s.beginDrain()
	s.waitIdle()
}

// Close is Drain (the store needs no explicit close).
func (s *Service) Close() { s.Drain() }

// JobView is the externally visible state of a job.
type JobView struct {
	ID        string  `json:"id"`
	State     State   `json:"state"`
	Spec      JobSpec `json:"spec"`
	Submitted int64   `json:"submittedUnixNs"`
	Started   int64   `json:"startedUnixNs,omitempty"`
	Finished  int64   `json:"finishedUnixNs,omitempty"`
	Error     string  `json:"error,omitempty"`
	// Cached marks a submission satisfied from the result cache.
	Cached     bool   `json:"cached,omitempty"`
	DesignHash string `json:"designHash,omitempty"`
	CacheKey   string `json:"cacheKey,omitempty"`
	// CPUSeconds is the analysis CPU-time attribution: wall time summed
	// over the job's path segments (core.Result.BusyTime), accumulated
	// across the runs a drain interrupted. In-memory only — it resets to zero on
	// daemon restart (the durable record format is unchanged).
	CPUSeconds float64 `json:"cpuSeconds,omitempty"`
}

func viewOf(j *job) JobView {
	r := j.rec
	return JobView{
		ID:         r.ID,
		State:      r.State,
		Spec:       r.Spec,
		Submitted:  r.Submitted,
		Started:    r.Started,
		Finished:   r.Finished,
		Error:      r.Error,
		Cached:     r.Cached,
		DesignHash: r.DesignHash,
		CacheKey:   r.CacheKey,
		CPUSeconds: j.cpuSeconds,
	}
}

// Metrics is a snapshot of the service's observable counters.
type Metrics struct {
	QueueDepth   int           `json:"queueDepth"`
	Running      int           `json:"running"`
	JobsByState  map[State]int `json:"jobsByState"`
	Accepted     uint64        `json:"accepted"`
	CacheHits    uint64        `json:"cacheHits"`
	CacheMisses  uint64        `json:"cacheMisses"`
	CacheHitRate float64       `json:"cacheHitRate"`
	Degraded     uint64        `json:"degraded"`
	Requeued     uint64        `json:"requeued"`
	Failed       uint64        `json:"failed"`
	// StoreFaults counts durable-store I/O failures the service observed
	// (each one trips or extends degraded mode); StoreDegraded is the
	// current degraded-mode gauge.
	StoreFaults   uint64 `json:"storeFaults"`
	StoreDegraded bool   `json:"storeDegraded"`
	// TmpReaped counts orphan temp files reaped at startup.
	TmpReaped uint64 `json:"tmpReaped"`
	// SimulatedCycles and BusySeconds sum the finished analyses' simulated
	// cycles and run time; CyclesPerSec is their ratio.
	SimulatedCycles uint64  `json:"simulatedCycles"`
	BusySeconds     float64 `json:"busySeconds"`
	CyclesPerSec    float64 `json:"cyclesPerSec"`
}

// Registry returns the observability registry the service publishes
// into, for the Prometheus /metrics endpoint and the debug listener.
func (s *Service) Registry() *obs.Registry { return s.reg }

// MetricsSnapshot assembles the current metrics. The counters are the
// registry's (Config.Metrics): services sharing one registry, as every
// service of a process does by default, share them too.
func (s *Service) MetricsSnapshot() Metrics {
	m := Metrics{
		JobsByState:   make(map[State]int),
		Accepted:      s.om.accepted.Value(),
		CacheHits:     s.om.cacheHits.Value(),
		CacheMisses:   s.om.cacheMisses.Value(),
		Degraded:      s.om.degraded.Value(),
		Requeued:      s.om.requeued.Value(),
		Failed:        s.om.failed.Value(),
		StoreFaults:   s.om.storeFaults.Value(),
		StoreDegraded: s.degraded.Load(),
		TmpReaped:     s.om.tmpReaped.Value(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m.QueueDepth = s.queue.Len()
	for _, j := range s.jobs {
		m.JobsByState[j.rec.State]++
		if j.rec.State == StateRunning {
			m.Running++
		}
	}
	if lookups := m.CacheHits + m.CacheMisses; lookups > 0 {
		m.CacheHitRate = float64(m.CacheHits) / float64(lookups)
	}
	m.SimulatedCycles, m.BusySeconds = s.simulatedCycles, s.busySeconds
	if m.BusySeconds > 0 {
		m.CyclesPerSec = float64(m.SimulatedCycles) / m.BusySeconds
	}
	return m
}

// newJobID returns a random 96-bit hex job identifier.
func newJobID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; if it somehow
		// does, a time-derived ID preserves liveness.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
