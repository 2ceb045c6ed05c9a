package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"symsim/internal/core"
	"symsim/internal/fault"
	"symsim/internal/obs"
	"symsim/internal/report"
	"symsim/internal/wire"
)

// Config configures a Service.
type Config struct {
	// DataDir is the root of the durable store (jobs, results, cache,
	// checkpoints). Required.
	DataDir string
	// Workers is the job worker pool size (concurrent analyses); each job
	// additionally uses its own spec.Workers path workers. Default 2.
	Workers int
	// QueueCap bounds the pending-job queue; submissions beyond it get
	// ErrQueueFull (HTTP 429). Default 64.
	QueueCap int
	// CheckpointEvery is the periodic checkpoint interval for running
	// jobs. The final checkpoint on drain/degradation is written
	// regardless. Default 15s.
	CheckpointEvery time.Duration
	// ProgressEvery is the heartbeat interval streamed to subscribers.
	// Default 250ms.
	ProgressEvery time.Duration
	// Defaults fills zero-valued tuning fields of submitted specs before
	// the flag defaults do (typically the daemon's own parsed flags).
	Defaults *JobSpec
	// BuildPlatform resolves a design/bench pair to a platform. Nil means
	// the shipped evaluation platforms (report.BuildPlatform). Tests
	// inject small synthetic platforms here.
	BuildPlatform func(design, bench string) (*core.Platform, error)
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// SSEKeepAlive is the interval at which event streams emit SSE
	// comment lines (": ping") so proxy/LB idle timeouts don't sever
	// streams of long-quiet jobs. Default 15s.
	SSEKeepAlive time.Duration
	// Metrics is the observability registry the service (and every job's
	// core analysis) publishes into, served at /metrics in Prometheus
	// text format. Nil selects obs.Default.
	Metrics *obs.Registry
	// FS is the filesystem the durable store writes through. Nil means
	// the real OS; the fault-injection harness (and symsimd's chaos flag)
	// installs a fault.Injector here.
	FS fault.FS
	// LeaseTTL enables the job-lease watchdog: a running job whose
	// analysis makes no observable progress for LeaseTTL is presumed
	// wedged, its context is canceled, and the job re-queues under a new
	// lease (resuming from its checkpoint when one exists). Zero disables
	// the watchdog. Liveness is measured on the Progress snapshot
	// *content* — the heartbeat ticker keeps firing when a path worker is
	// stuck, so only advancing counters count as a heartbeat.
	LeaseTTL time.Duration
	// LeaseCheckEvery is the watchdog sweep interval: LeaseTTL/4, at least
	// 10ms, unless a test sets it to drive sweeps its own way.
	LeaseCheckEvery time.Duration
	// RemoteCache, when non-nil, is a cluster-wide second-level result
	// cache: local cache misses fall through to it, remote hits are
	// adopted into the local store, and completed results publish back so
	// the whole worker fleet shares one memo table (the coordinator's
	// SYMSIMK2 cache; see internal/cluster.MemoClient). Remote trouble is
	// always a miss, never an error — the analysis just runs.
	RemoteCache CacheClient

	// tuneConfig, when non-nil, is applied to each job's core.Config just
	// before the analysis starts — a test seam for installing hooks
	// (e.g. an OnHalt that blocks mid-run to make drain deterministic).
	tuneConfig func(jobID string, cc *core.Config)
}

// job is the in-memory view of one job: its persisted record plus the
// cancel handle of its running analysis.
type job struct {
	rec             *jobRecord
	cancel          context.CancelFunc
	cancelRequested bool
	// cpuSeconds accumulates the analysis' BusyTime (summed path-segment
	// wall time — the job's CPU attribution) across run segments.
	// In-memory only: the SYMSIMJ1 record format is strict and
	// intentionally unchanged, so the figure resets on daemon restart.
	cpuSeconds float64
	// attempt is the lease epoch: it increments each time a worker starts
	// the job, and a finishing worker whose attempt is stale (the lease
	// watchdog re-queued the job, or a newer attempt ran) must not touch
	// the record. In-memory only, like cpuSeconds.
	attempt int
	// beat is the last observed-liveness time (unix nanos) and progFP the
	// progress-snapshot fingerprint it was derived from; both are written
	// by the heartbeat callback without taking Service.mu.
	beat   atomic.Int64
	progFP atomic.Uint64
	// resultData is the degraded-mode fallback: when the store cannot
	// persist a finished job's result, the bytes are kept here so Result
	// still serves them — the daemon degrades instead of failing the job.
	resultData []byte
}

// Service is the analysis daemon core: a bounded priority queue feeding a
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

	mu   sync.Mutex
	jobs map[string]*job
	// inflightByKey maps a cache key to the job currently running (or
	// queued to run) that analysis — the coalescing leader. followers maps
	// a leader's ID to the coalesced duplicate submissions parked behind
	// it: durable queued records that are deliberately NOT in the queue.
	// When the leader lands a complete result every follower settles done
	// with the same bytes; any other outcome promotes the first follower
	// to leader and releases the rest behind it. Coalescing state is
	// in-memory only — after a restart the recovered records simply all
	// queue (and the first to run re-primes the cache for the rest).
	inflightByKey map[string]string
	followers     map[string][]string

	draining bool
	wg       sync.WaitGroup

	// degraded flips on when a store write fails and off on the next
	// success; degradedReason (mu-guarded) carries the last failure.
	degraded       atomic.Bool
	degradedReason string
	// stopLease ends the lease watchdog on drain.
	stopLease chan struct{}

	// engines accumulates per-engine throughput for Metrics (mu-guarded).
	engines map[string]*engineStat
}

// svcObs caches the service's counters: the one set behind both the
// Prometheus series and the JSON Metrics snapshot.
type svcObs struct {
	accepted    *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	coalesced   *obs.Counter
	degraded    *obs.Counter
	resumed     *obs.Counter
	requeued    *obs.Counter
	failed      *obs.Counter
	done        *obs.Counter
	canceled    *obs.Counter
	storeFaults *obs.Counter
	leaseExpiry *obs.Counter
	tmpReaped   *obs.Counter
	remoteHits  *obs.Counter
	remoteMiss  *obs.Counter
	remoteErrs  *obs.Counter
}

func newSvcObs(reg *obs.Registry) *svcObs {
	return &svcObs{
		accepted:    reg.Counter("symsim_service_jobs_accepted_total", "Jobs accepted by Submit."),
		cacheHits:   reg.Counter("symsim_service_cache_hits_total", "Submissions satisfied from the result cache."),
		cacheMisses: reg.Counter("symsim_service_cache_misses_total", "Submissions that had to run."),
		coalesced:   reg.Counter("symsim_service_coalesced_total", "Cache-miss submissions coalesced behind an identical in-flight job."),
		degraded:    reg.Counter("symsim_service_jobs_degraded_total", "Jobs finished with a budget-degraded result."),
		resumed:     reg.Counter("symsim_service_jobs_resumed_total", "Jobs resumed from a checkpoint."),
		requeued:    reg.Counter("symsim_service_jobs_requeued_total", "Jobs re-queued by a drain."),
		failed:      reg.Counter("symsim_service_jobs_failed_total", "Jobs finished in error."),
		done:        reg.Counter("symsim_service_jobs_done_total", "Jobs finished successfully."),
		canceled:    reg.Counter("symsim_service_jobs_canceled_total", "Jobs canceled before completing."),
		storeFaults: reg.Counter("symsim_service_store_faults_total", "Durable-store I/O failures observed (each one trips or extends degraded mode)."),
		leaseExpiry: reg.Counter("symsim_service_lease_expiries_total", "Running jobs re-queued by the lease watchdog after their worker stopped making progress."),
		tmpReaped:   reg.Counter("symsim_service_tmp_reaped_total", "Orphan temp files reaped from the store at startup."),
		remoteHits:  reg.Counter("symsim_service_remote_cache_hits_total", "Local cache misses satisfied by the cluster memo table."),
		remoteMiss:  reg.Counter("symsim_service_remote_cache_misses_total", "Cluster memo-table lookups that missed."),
		remoteErrs:  reg.Counter("symsim_service_remote_cache_errors_total", "Cluster memo-table operations that failed (treated as misses)."),
	}
}

// CacheClient is the cluster-wide second-level result cache seam (see
// Config.RemoteCache). Implementations must be safe for concurrent use;
// internal/cluster.MemoClient is the HTTP one.
type CacheClient interface {
	// Get fetches a memoized result summary; ok is false on miss.
	Get(key string) (data []byte, ok bool, err error)
	// Put publishes a complete result summary under its cache key.
	Put(key string, data []byte) error
}

type engineStat struct {
	cycles  uint64
	seconds float64
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
// queue, resumable ones will continue from their checkpoint — and starts
// the worker pool.
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
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 15 * time.Second
	}
	if cfg.ProgressEvery <= 0 {
		cfg.ProgressEvery = 250 * time.Millisecond
	}
	if cfg.BuildPlatform == nil {
		cfg.BuildPlatform = func(design, bench string) (*core.Platform, error) {
			return report.BuildPlatform(report.Design(design), bench)
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.SSEKeepAlive <= 0 {
		cfg.SSEKeepAlive = 15 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default
	}
	if cfg.LeaseTTL > 0 && cfg.LeaseCheckEvery <= 0 {
		cfg.LeaseCheckEvery = max(cfg.LeaseTTL/4, 10*time.Millisecond)
	}

	st, reaped, reapErrs, err := openStore(cfg.DataDir, cfg.FS)
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
		cfg:           cfg,
		store:         st,
		queue:         newJobQueue(cfg.QueueCap),
		hub:           newHub(),
		reg:           cfg.Metrics,
		jobs:          make(map[string]*job),
		inflightByKey: make(map[string]string),
		followers:     make(map[string][]string),
		stopLease:     make(chan struct{}),
		engines:       make(map[string]*engineStat),
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
		// Crash/drain recovery: a record stuck in "running" was
		// interrupted without a clean finish. It goes back to the queue;
		// if its checkpoint survived, the analysis resumes from it
		// instead of restarting.
		if rec.State == StateRunning {
			rec.State = StateQueued
			rec.Started = 0
			rec.Resumable = st.hasCheckpoint(rec.ID)
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
			if err := s.queue.Push(rec.ID, rec.Spec.Priority, true); err != nil {
				return nil, err
			}
			cfg.Logf("service: recovered job %s (resumable=%v)", rec.ID, rec.Resumable)
		}
	}

	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if cfg.LeaseTTL > 0 {
		s.wg.Add(1)
		go s.leaseWatchdog()
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

// Submit normalizes and accepts a job. If an identical analysis (by
// content-addressed cache key) already completed, the job is satisfied
// instantly from the cache without queueing. A full queue returns
// ErrQueueFull; an invalid spec a *BadSpecError. Only a submission that
// comes back as a JobView counts as accepted (and, unless the cache served
// it, as a cache miss): the three returns that hand one out count it.
func (s *Service) Submit(spec JobSpec) (JobView, error) {
	spec, err := normalize(spec, s.cfg.Defaults)
	if err != nil {
		return JobView{}, err
	}
	p, err := s.cfg.BuildPlatform(spec.Design, spec.Bench)
	if err != nil {
		return JobView{}, &BadSpecError{Reason: err.Error()}
	}
	hash := p.Design.Hash()
	key := cacheKey(hash, spec)

	rec := &jobRecord{
		ID:         newJobID(),
		Spec:       spec,
		State:      StateQueued,
		Submitted:  time.Now().UnixNano(),
		CacheKey:   key,
		DesignHash: hash.String(),
	}

	// The cache lookup happens before the lock: the local read is cheap,
	// but the remote fallback is a network RPC that must not stall every
	// concurrent submission behind s.mu.
	cl := s.lookupCache(rec.ID, key)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobView{}, ErrDraining
	}
	switch {
	case cl.remoteHit:
		s.om.remoteHits.Inc()
	case cl.remoteMiss:
		s.om.remoteMiss.Inc()
	case cl.remoteErr:
		s.om.remoteErrs.Inc()
	}

	if data, ok, cacheErr := cl.data, cl.ok, cl.err; cacheErr != nil {
		// A faulting or corrupt cache entry is a miss, never an error to
		// the client: the submission simply runs instead.
		s.cfg.Logf("service: job %s: cache read: %v", rec.ID, cacheErr)
		s.noteStoreFaultLocked(cacheErr)
	} else if ok {
		// Content-addressed hit: the exact analysis already ran to
		// completion. Serve the stored result without spending a cycle.
		now := time.Now().UnixNano()
		rec.State = StateDone
		rec.Cached = true
		rec.Started, rec.Finished = now, now
		werr := s.store.writeResult(rec.ID, data)
		if werr == nil {
			werr = s.store.saveJob(rec)
		}
		if werr == nil {
			s.noteStoreOKLocked()
			s.om.accepted.Inc()
			s.om.cacheHits.Inc()
			s.jobs[rec.ID] = &job{rec: rec}
			s.hub.Publish(Event{Type: "state", Job: rec.ID, State: StateDone})
			return viewOf(s.jobs[rec.ID]), nil
		}
		// The hit couldn't persist: fall through to the queued path (which
		// refuses only if the record itself can't be saved) rather than
		// failing a submission the analysis engine can still satisfy.
		s.cfg.Logf("service: job %s: persisting cache hit: %v", rec.ID, werr)
		s.noteStoreFaultLocked(werr)
		rec.State = StateQueued
		rec.Cached = false
		rec.Started, rec.Finished = 0, 0
	}

	if err := s.store.saveJob(rec); err != nil {
		// Refuse rather than accept a job the daemon could lose on
		// restart: with no durable record, a crash would silently drop it.
		s.noteStoreFaultLocked(err)
		return JobView{}, fmt.Errorf("%w: %v", ErrDegraded, err)
	}
	s.noteStoreOKLocked()
	s.jobs[rec.ID] = &job{rec: rec}

	// Single-flight: an identical analysis is already in flight. Park this
	// submission behind it instead of queueing a duplicate run — its
	// durable record is saved (a restart would just re-queue it), but no
	// worker will pick it up until the leader settles.
	if leaderID, ok := s.inflightByKey[key]; ok {
		if lj := s.jobs[leaderID]; lj != nil && !terminal(lj.rec.State) {
			s.followers[leaderID] = append(s.followers[leaderID], rec.ID)
			s.om.accepted.Inc()
			s.om.cacheMisses.Inc()
			s.om.coalesced.Inc()
			s.hub.Publish(Event{Type: "state", Job: rec.ID, State: StateQueued})
			return viewOf(s.jobs[rec.ID]), nil
		}
		delete(s.inflightByKey, key)
	}

	if err := s.queue.Push(rec.ID, spec.Priority, false); err != nil {
		delete(s.jobs, rec.ID)
		// Best effort: the record file is orphaned on error; restart
		// would re-queue it, which is acceptable for a rejected submit.
		if rmErr := s.removeJobFile(rec.ID); rmErr != nil {
			s.cfg.Logf("service: removing rejected job record: %v", rmErr)
		}
		return JobView{}, err
	}
	s.inflightByKey[key] = rec.ID
	s.om.accepted.Inc()
	s.om.cacheMisses.Inc()
	s.hub.Publish(Event{Type: "state", Job: rec.ID, State: StateQueued})
	return viewOf(s.jobs[rec.ID]), nil
}

func (s *Service) removeJobFile(id string) error {
	return s.store.removeFile(s.store.jobPath(id))
}

// cacheLookup is the outcome of the two-level cache probe.
type cacheLookup struct {
	data []byte
	ok   bool
	// err is a LOCAL store fault (degraded-mode accounting applies);
	// remote trouble is never an error, only remoteErr.
	err error
	// remoteHit/remoteMiss/remoteErr record whether the cluster memo
	// table answered, for the metrics published under s.mu.
	remoteHit  bool
	remoteMiss bool
	remoteErr  bool
}

// lookupCache probes the local result cache and, on a clean local miss,
// the cluster-wide memo table. Called WITHOUT s.mu held — the remote
// probe is a network round-trip. A remote hit is adopted into the local
// store (best effort) so the next identical submission never leaves the
// machine.
func (s *Service) lookupCache(jobID, key string) cacheLookup {
	data, ok, err := s.store.readCache(key)
	if err != nil || ok {
		return cacheLookup{data: data, ok: ok, err: err}
	}
	rc := s.cfg.RemoteCache
	if rc == nil {
		return cacheLookup{}
	}
	rdata, rok, rerr := rc.Get(key)
	if rerr != nil {
		s.cfg.Logf("service: job %s: remote cache get: %v", jobID, rerr)
		return cacheLookup{remoteErr: true}
	}
	if !rok {
		return cacheLookup{remoteMiss: true}
	}
	if !json.Valid(rdata) {
		// The memo table serves opaque bytes; a corrupt peer must not be
		// able to park garbage in front of a runnable analysis.
		s.cfg.Logf("service: job %s: remote cache entry %s is not JSON, ignoring", jobID, key)
		return cacheLookup{remoteErr: true}
	}
	if werr := s.store.writeCache(key, rdata); werr != nil {
		// Adoption is an optimization; the authoritative copy is remote.
		s.cfg.Logf("service: job %s: adopting remote cache entry: %v", jobID, werr)
	}
	return cacheLookup{data: rdata, ok: true, remoteHit: true}
}

// ErrBadCacheKey rejects memo-table keys that are not the 64 lowercase
// hex digits the service mints (SHA-256): anything else could never have
// come from cacheKey, and path metacharacters must not reach the store.
var ErrBadCacheKey = errors.New("service: cache keys are 64 lowercase hex digits")

// CacheGet serves one content-addressed cache entry — the coordinator
// side of the cluster-wide memo table (it makes *Service satisfy
// internal/cluster's Memo seam). A store fault counts toward degraded
// mode exactly as every other cache read.
func (s *Service) CacheGet(key string) ([]byte, bool, error) {
	if !wire.ValidCacheKey(key) {
		return nil, false, ErrBadCacheKey
	}
	data, ok, err := s.store.readCache(key)
	if err != nil {
		s.cfg.Logf("service: memo get %s: %v", key, err)
		s.mu.Lock()
		s.noteStoreFaultLocked(err)
		s.mu.Unlock()
		return nil, false, err
	}
	return data, ok, nil
}

// CachePut stores one memo-table entry published by a worker. Only valid
// JSON is accepted — the entries are result summaries, and a corrupt
// peer must not be able to poison every fleet member's cache.
func (s *Service) CachePut(key string, data []byte) error {
	if !wire.ValidCacheKey(key) {
		return ErrBadCacheKey
	}
	if !json.Valid(data) {
		return fmt.Errorf("service: memo put %s: payload is not JSON", key)
	}
	if err := s.store.writeCache(key, data); err != nil {
		s.cfg.Logf("service: memo put %s: %v", key, err)
		s.mu.Lock()
		s.noteStoreFaultLocked(err)
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	s.noteStoreOKLocked()
	s.mu.Unlock()
	return nil
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
		j.rec.State = StateCanceled
		j.rec.Finished = time.Now().UnixNano()
		s.persistJobLocked(j)
		s.hub.Publish(Event{Type: "state", Job: id, State: StateCanceled})
		s.settleFollowersLocked(id, nil)
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	j.rec.State = StateRunning
	j.rec.Started = time.Now().UnixNano()
	// A fresh lease: the attempt epoch marks this worker's run, and the
	// liveness beat starts now.
	j.attempt++
	attempt := j.attempt
	j.beat.Store(time.Now().UnixNano())
	resumable := j.rec.Resumable
	spec := j.rec.Spec
	s.persistJobLocked(j)
	s.hub.Publish(Event{Type: "state", Job: id, State: StateRunning})
	s.mu.Unlock()
	defer cancel()

	res, err := s.analyze(ctx, j, id, spec, resumable)
	s.finishJob(id, attempt, res, err)
}

// analyze maps a job spec onto a core run: platform, policy, budgets,
// periodic checkpoints to the job's checkpoint file, resume from a
// surviving checkpoint, and progress heartbeats published to the hub.
func (s *Service) analyze(ctx context.Context, jb *job, id string, spec JobSpec, resumable bool) (*core.Result, error) {
	p, err := s.cfg.BuildPlatform(spec.Design, spec.Bench)
	if err != nil {
		return nil, err
	}
	cc, err := spec.Config()
	if err != nil {
		return nil, err
	}
	cc.Checkpoint = &core.CheckpointConfig{Path: s.store.checkpointPath(id), Interval: s.cfg.CheckpointEvery}
	cc.ProgressEvery = s.cfg.ProgressEvery
	cc.Metrics = s.reg
	cc.Progress = func(pr core.Progress) {
		prCopy := pr
		// Lease heartbeat: the snapshot ticker fires even when every path
		// worker is wedged, so only a *changing* snapshot counts as
		// liveness (see core.Progress.Fingerprint).
		if fp := pr.Fingerprint(); jb.progFP.Swap(fp) != fp {
			jb.beat.Store(time.Now().UnixNano())
		}
		s.hub.Publish(Event{Type: "progress", Job: id, Progress: &prCopy})
	}
	if resumable {
		ckpt, err := core.LoadCheckpoint(s.store.checkpointPath(id))
		if err != nil {
			// A corrupt or missing checkpoint degrades to a fresh run;
			// the analysis result is identical, only slower.
			s.cfg.Logf("service: job %s: checkpoint unusable, restarting: %v", id, err)
		} else {
			cc.Resume = ckpt
			s.om.resumed.Inc()
			s.cfg.Logf("service: job %s: resuming from checkpoint (%d pending paths)", id, len(ckpt.Pending))
		}
	}
	if s.cfg.tuneConfig != nil {
		s.cfg.tuneConfig(id, &cc)
	}
	return core.AnalyzeContext(ctx, p, cc)
}

// finishJob settles a finished analysis into its terminal state — or back
// into the queue when a drain interrupted it. attempt is the lease epoch
// the finishing worker ran under; a stale epoch means the lease watchdog
// re-queued the job (or a newer attempt ran it), and the stale result is
// discarded without touching the record.
func (s *Service) finishJob(id string, attempt int, res *core.Result, err error) {
	// A complete result also publishes to the cluster memo table. The RPC
	// runs in this deferred step — registered before the lock so it
	// executes after the unlock (defers are LIFO) — because a network
	// round-trip has no business inside s.mu.
	var remoteKey string
	var remoteData []byte
	defer func() {
		if remoteData == nil {
			return
		}
		if perr := s.cfg.RemoteCache.Put(remoteKey, remoteData); perr != nil {
			s.cfg.Logf("service: job %s: remote cache put: %v", id, perr)
			s.om.remoteErrs.Inc()
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return
	}
	if j.attempt != attempt || j.rec.State != StateRunning {
		// The lease expired and the job re-queued (state queued, same
		// epoch) or already re-ran (newer epoch): this worker unwedged
		// too late and its outcome is void.
		s.cfg.Logf("service: job %s: discarding stale result from expired lease (attempt %d, current %d, state %s)",
			id, attempt, j.attempt, j.rec.State)
		return
	}
	now := time.Now().UnixNano()
	if res != nil {
		// Accumulate across segments: a drained-and-resumed job keeps the
		// CPU it already spent.
		j.cpuSeconds += res.BusyTime.Seconds()
	}

	// settleData is the complete-result bytes handed verbatim to coalesced
	// followers; nil means the followers must run for themselves.
	var settleData []byte
	// Set when the result bytes could not be persisted and live only in
	// j.resultData: the durable record must then NOT be advanced to done —
	// a done record without its result file is exactly the half-written
	// state the torture sweep hunts. The record stays at its last
	// persisted state (running), so a restart re-runs the job.
	memOnly := false

	switch {
	case err != nil:
		j.rec.State = StateFailed
		j.rec.Error = err.Error()
		j.rec.Finished = now
		s.om.failed.Inc()
		s.store.removeCheckpoint(id)

	case j.cancelRequested && !res.Complete:
		j.rec.State = StateCanceled
		j.rec.Finished = now
		s.om.canceled.Inc()
		s.store.removeCheckpoint(id)

	case res.Complete:
		j.rec.State = StateDone
		j.rec.Finished = now
		data, merr := json.Marshal(report.Summarize(j.rec.Spec.Design, j.rec.Spec.Bench, res))
		if merr != nil {
			// A marshal failure is a bug, not a disk fault: fail the job.
			j.rec.State = StateFailed
			j.rec.Error = merr.Error()
			break
		}
		settleData = data
		if werr := s.store.writeResult(id, data); werr != nil {
			// Disk fault: the job still finished — keep the result bytes
			// in memory so Result serves them, and enter degraded mode
			// instead of failing work that is already done.
			s.cfg.Logf("service: job %s: persisting result: %v (serving from memory)", id, werr)
			j.resultData = data
			memOnly = true
			s.noteStoreFaultLocked(werr)
		} else {
			s.noteStoreOKLocked()
			// Only complete results enter the content cache: a degraded
			// dichotomy is sound but over-approximate, and caching it
			// would freeze the degradation into every future identical
			// submission. While the store is degraded the cache write is
			// bypassed outright — it would only burn another fault.
			if werr := s.store.writeCache(j.rec.CacheKey, data); werr != nil {
				s.cfg.Logf("service: job %s: caching result: %v", id, werr)
				s.noteStoreFaultLocked(werr)
			}
			if s.cfg.RemoteCache != nil {
				// Publish to the fleet after the unlock (see the deferred
				// remote put above).
				remoteKey, remoteData = j.rec.CacheKey, data
			}
		}
		s.store.removeCheckpoint(id)
		s.noteEngineLocked(j.rec, res)
		s.om.done.Inc()

	case s.draining:
		// Drain interruption: the final checkpoint was written by the
		// core before it force-merged, so the job re-queues resumable
		// and the restarted daemon continues where this one stopped.
		j.rec.State = StateQueued
		j.rec.Started = 0
		j.rec.Resumable = s.store.hasCheckpoint(id)
		s.om.requeued.Inc()

	default:
		// Budget-degraded completion: terminal, result served, never
		// cached.
		j.rec.State = StateDone
		j.rec.Finished = now
		s.om.degraded.Inc()
		data, merr := json.Marshal(report.Summarize(j.rec.Spec.Design, j.rec.Spec.Bench, res))
		if merr != nil {
			j.rec.State = StateFailed
			j.rec.Error = merr.Error()
			break
		}
		if werr := s.store.writeResult(id, data); werr != nil {
			s.cfg.Logf("service: job %s: persisting degraded result: %v (serving from memory)", id, werr)
			j.resultData = data
			memOnly = true
			s.noteStoreFaultLocked(werr)
		} else {
			s.noteStoreOKLocked()
		}
		s.store.removeCheckpoint(id)
		s.noteEngineLocked(j.rec, res)
	}

	j.cancel = nil
	if !memOnly {
		s.persistJobLocked(j)
	}
	s.hub.Publish(Event{Type: "state", Job: id, State: j.rec.State})
	s.settleFollowersLocked(id, settleData)
}

// settleFollowersLocked dissolves a leader's coalition (mu held). With a
// complete result (data != nil) every follower settles done with the same
// bytes — the coalescing payoff. Without one (failure, cancel, drain,
// budget degradation) the first surviving follower is promoted to leader
// for the cache key and re-queued; the rest stay coalesced behind it, so
// at most one duplicate analysis runs at a time no matter how the leader
// ends.
func (s *Service) settleFollowersLocked(leaderID string, data []byte) {
	ids := s.followers[leaderID]
	delete(s.followers, leaderID)
	var key string
	for k, lid := range s.inflightByKey {
		if lid == leaderID {
			key = k
			delete(s.inflightByKey, k)
		}
	}
	newLeader := ""
	for _, fid := range ids {
		fj := s.jobs[fid]
		if fj == nil || fj.rec.State != StateQueued {
			continue
		}
		if fj.cancelRequested {
			fj.rec.State = StateCanceled
			fj.rec.Finished = time.Now().UnixNano()
			s.persistJobLocked(fj)
			s.om.canceled.Inc()
			s.hub.Publish(Event{Type: "state", Job: fid, State: StateCanceled})
			continue
		}
		if data == nil {
			if newLeader == "" {
				newLeader = fid
				if key != "" {
					s.inflightByKey[key] = fid
				}
				// Recovered=true: the job was already accepted; releasing it
				// must not bounce off a full queue.
				if err := s.queue.Push(fid, fj.rec.Spec.Priority, true); err != nil {
					// Push only fails after Close (drain); the durable queued
					// record re-queues on restart.
					s.cfg.Logf("service: releasing coalesced job %s: %v", fid, err)
				}
			} else {
				s.followers[newLeader] = append(s.followers[newLeader], fid)
			}
			continue
		}
		now := time.Now().UnixNano()
		fj.rec.State = StateDone
		fj.rec.Cached = true
		fj.rec.Started, fj.rec.Finished = now, now
		memOnly := false
		if werr := s.store.writeResult(fid, data); werr != nil {
			// Same degraded-mode contract as the leader: serve from memory,
			// leave the durable record at queued so a restart re-runs rather
			// than leaving a done record without its result file.
			s.cfg.Logf("service: job %s: persisting coalesced result: %v (serving from memory)", fid, werr)
			fj.resultData = data
			memOnly = true
			s.noteStoreFaultLocked(werr)
		} else {
			s.noteStoreOKLocked()
		}
		if !memOnly {
			s.persistJobLocked(fj)
		}
		s.om.done.Inc()
		s.hub.Publish(Event{Type: "state", Job: fid, State: StateDone})
	}
}

// removeFollowerLocked withdraws id from whichever coalition holds it (mu
// held), reporting whether it was a parked follower — a queued record that
// is not in the queue, so Cancel must settle it directly.
func (s *Service) removeFollowerLocked(id string) bool {
	for leader, ids := range s.followers {
		for i, fid := range ids {
			if fid == id {
				s.followers[leader] = append(ids[:i:i], ids[i+1:]...)
				return true
			}
		}
	}
	return false
}

// noteEngineLocked accrues per-engine throughput counters (mu held).
func (s *Service) noteEngineLocked(rec *jobRecord, res *core.Result) {
	st := s.engines[rec.Spec.Engine]
	if st == nil {
		st = &engineStat{}
		s.engines[rec.Spec.Engine] = st
	}
	st.cycles += res.SimulatedCycles
	if rec.Finished > rec.Started && rec.Started > 0 {
		st.seconds += time.Duration(rec.Finished - rec.Started).Seconds()
	}
}

// persistJobLocked saves the job record, tracking store health.
func (s *Service) persistJobLocked(j *job) {
	if err := s.store.saveJob(j.rec); err != nil {
		s.cfg.Logf("service: persisting job %s: %v", j.rec.ID, err)
		s.noteStoreFaultLocked(err)
		return
	}
	s.noteStoreOKLocked()
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

// leaseWatchdog periodically sweeps running jobs for expired leases.
// Runs on its own goroutine (registered on s.wg) until drain.
func (s *Service) leaseWatchdog() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.LeaseCheckEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopLease:
			return
		case <-t.C:
			s.leaseSweep()
		}
	}
}

// leaseSweep expires the lease of every running job whose analysis has
// made no observable progress for LeaseTTL: the wedged attempt's context
// is canceled, the job re-queues (resuming from its checkpoint when one
// exists), and a replacement worker is spawned so a pool fully occupied
// by wedged workers still drains the queue. If the old worker ever
// unwedges, finishJob finds its attempt epoch stale and discards its
// outcome.
func (s *Service) leaseSweep() {
	now := time.Now()
	var expired []string
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	for id, j := range s.jobs {
		if j.rec.State != StateRunning {
			continue
		}
		if now.Sub(time.Unix(0, j.beat.Load())) < s.cfg.LeaseTTL {
			continue
		}
		if j.cancel != nil {
			j.cancel()
			j.cancel = nil
		}
		j.rec.State = StateQueued
		j.rec.Started = 0
		j.rec.Resumable = s.store.hasCheckpoint(id)
		s.om.leaseExpiry.Inc()
		s.persistJobLocked(j)
		if err := s.queue.Push(id, j.rec.Spec.Priority, true); err != nil {
			// Push only fails after Close; the restart repair path will
			// re-queue this job from its durable record then.
			s.cfg.Logf("service: lease requeue of job %s: %v", id, err)
		}
		s.hub.Publish(Event{Type: "state", Job: id, State: StateQueued})
		expired = append(expired, id)
	}
	s.mu.Unlock()
	for _, id := range expired {
		s.cfg.Logf("service: lease expired for job %s: no progress for %v, requeued", id, s.cfg.LeaseTTL)
		// The wedged worker still occupies its pool slot (blocked inside
		// the analysis), so spawn a replacement. The pool can transiently
		// exceed Workers if the wedged worker later revives; the extra
		// goroutines drain once the queue closes. Safe to Add here: the
		// watchdog itself holds a wg slot, so the counter cannot have
		// reached zero.
		s.wg.Add(1)
		go s.worker()
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
		if s.queue.Remove(id) || s.removeFollowerLocked(id) {
			j.rec.State = StateCanceled
			j.rec.Finished = time.Now().UnixNano()
			s.persistJobLocked(j)
			s.om.canceled.Inc()
			s.hub.Publish(Event{Type: "state", Job: id, State: StateCanceled})
			// A withdrawn queued leader releases its coalition.
			s.settleFollowersLocked(id, nil)
		}
		// If both misses, a worker has already popped the ID and will
		// observe cancelRequested in runJob.
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
	sortViews(views)
	return views
}

// Result returns the stored result JSON for a done job. When the durable
// store faulted at finish time, the in-memory fallback copy is served
// instead — a finished job's result survives a failing disk (but not a
// daemon restart; the job would then re-run from its checkpoint).
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

// Subscribe streams a job's events (progress heartbeats and state
// transitions); call the returned cancel when done.
func (s *Service) Subscribe(id string) (<-chan Event, func(), error) {
	s.mu.Lock()
	known := s.jobs[id] != nil
	s.mu.Unlock()
	if !known {
		return nil, nil, ErrUnknownJob
	}
	ch, cancel := s.hub.Subscribe(id)
	return ch, cancel, nil
}

// beginDrain makes the shutdown decision visible everywhere at once:
// submissions are refused, blocked workers wake and exit, and every
// running analysis is canceled — the core writes its final checkpoint
// before returning, so finishJob re-queues those jobs resumable.
func (s *Service) beginDrain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	close(s.stopLease)
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
// checkpoint and re-queue, workers exit. Safe to call more than once.
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
	Cached bool `json:"cached,omitempty"`
	// Resumable marks a queued job that will continue from a checkpoint.
	Resumable  bool   `json:"resumable,omitempty"`
	DesignHash string `json:"designHash,omitempty"`
	CacheKey   string `json:"cacheKey,omitempty"`
	// CPUSeconds is the analysis CPU-time attribution: wall time summed
	// over the job's path segments (core.Result.BusyTime), accumulated
	// across drain/resume segments. In-memory only — it resets to zero on
	// daemon restart (the durable record format is unchanged).
	CPUSeconds float64 `json:"cpuSeconds,omitempty"`
	// Attempts is the number of lease epochs (worker runs) this job has
	// started; >1 means the lease watchdog or a drain re-ran it.
	// In-memory only, like CPUSeconds.
	Attempts int `json:"attempts,omitempty"`
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
		Resumable:  r.Resumable,
		DesignHash: r.DesignHash,
		CacheKey:   r.CacheKey,
		CPUSeconds: j.cpuSeconds,
		Attempts:   j.attempt,
	}
}

func sortViews(views []JobView) {
	for i := 1; i < len(views); i++ {
		for k := i; k > 0 && less(views[k], views[k-1]); k-- {
			views[k], views[k-1] = views[k-1], views[k]
		}
	}
}

func less(a, b JobView) bool {
	if a.Submitted != b.Submitted {
		return a.Submitted < b.Submitted
	}
	return a.ID < b.ID
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
	// Coalesced counts cache-miss submissions parked behind an identical
	// in-flight job instead of running their own analysis.
	Coalesced uint64 `json:"coalesced"`
	Degraded  uint64 `json:"degraded"`
	Resumed   uint64 `json:"resumed"`
	Requeued  uint64 `json:"requeued"`
	Failed    uint64 `json:"failed"`
	// StoreFaults counts durable-store I/O failures the service observed
	// (each one trips or extends degraded mode); StoreDegraded is the
	// current degraded-mode gauge.
	StoreFaults   uint64 `json:"storeFaults"`
	StoreDegraded bool   `json:"storeDegraded"`
	// LeaseExpiries counts running jobs re-queued by the lease watchdog;
	// TmpReaped counts orphan temp files reaped at startup.
	LeaseExpiries uint64 `json:"leaseExpiries"`
	TmpReaped     uint64 `json:"tmpReaped"`
	// RemoteCacheHits counts local misses the cluster memo table
	// satisfied; errors are operations against it that failed (always
	// treated as misses).
	RemoteCacheHits   uint64                   `json:"remoteCacheHits"`
	RemoteCacheMisses uint64                   `json:"remoteCacheMisses"`
	RemoteCacheErrors uint64                   `json:"remoteCacheErrors"`
	Engines           map[string]EngineMetrics `json:"engines"`
}

// EngineMetrics is accumulated per-engine throughput.
type EngineMetrics struct {
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
		JobsByState:       make(map[State]int),
		Accepted:          s.om.accepted.Value(),
		CacheHits:         s.om.cacheHits.Value(),
		CacheMisses:       s.om.cacheMisses.Value(),
		Coalesced:         s.om.coalesced.Value(),
		Degraded:          s.om.degraded.Value(),
		Resumed:           s.om.resumed.Value(),
		Requeued:          s.om.requeued.Value(),
		Failed:            s.om.failed.Value(),
		StoreFaults:       s.om.storeFaults.Value(),
		StoreDegraded:     s.degraded.Load(),
		LeaseExpiries:     s.om.leaseExpiry.Value(),
		TmpReaped:         s.om.tmpReaped.Value(),
		RemoteCacheHits:   s.om.remoteHits.Value(),
		RemoteCacheMisses: s.om.remoteMiss.Value(),
		RemoteCacheErrors: s.om.remoteErrs.Value(),
		Engines:           make(map[string]EngineMetrics),
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
	for name, st := range s.engines {
		em := EngineMetrics{SimulatedCycles: st.cycles, BusySeconds: st.seconds}
		if st.seconds > 0 {
			em.CyclesPerSec = float64(st.cycles) / st.seconds
		}
		m.Engines[name] = em
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
