package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"symsim/internal/core"
	"symsim/internal/obs"
	"symsim/internal/report"
)

// Config tunes a Coordinator. The zero value is usable: platforms build
// through the report catalogue and metrics go to obs.Default.
type Config struct {
	// BuildPlatform constructs the platform for a run spec's design and
	// bench names. Nil uses the report catalogue (bm32 | omsp430 | dr5 ×
	// the embedded benchmark programs).
	BuildPlatform func(design, bench string) (*core.Platform, error)
	// Metrics receives coordinator metrics and the exploration metrics of
	// every run it hosts; nil uses obs.Default.
	Metrics *obs.Registry

	// leaseTTL is how long a leased segment may go without a heartbeat
	// before it is put back and leased again under a new epoch
	// (defaultLeaseTTL). Test seam, like sweepEvery and maxAttempts.
	leaseTTL time.Duration
	// sweepEvery is the lease-expiry scan period: leaseTTL/4, at least
	// 10ms, unless a test sets it to drive sweeps its own way.
	sweepEvery time.Duration
	// maxAttempts bounds lease attempts per segment before the whole run
	// is failed (defaultMaxAttempts).
	maxAttempts int
}

// Defaults for the zero Config.
const (
	defaultLeaseTTL    = 10 * time.Second
	defaultMaxAttempts = 5
)

// Coordinator hosts the state of a set of distributed runs — one core.Run
// each — and leases their path segments to workers. All methods are safe
// for concurrent use. Lock order: c.mu, then a run's own lock inside
// core.Run; core never calls back into the coordinator.
type Coordinator struct {
	cfg Config
	om  *coordMetrics
	// tuneConfig, when non-nil, may adjust a run's core.Config before it
	// opens. Test seam (tracing a fleet run).
	tuneConfig func(cc *core.Config)

	mu     sync.Mutex
	cond   *sync.Cond // signals new work / a put-back / a run ending / close
	runs   map[string]*run
	order  []string // lease scan order: creation order
	rr     int      // round-robin offset into order, so workers spread across runs
	nextID int
	closed bool

	stopSweep chan struct{}
	wg        sync.WaitGroup // the sweeper and one waiter per run
}

// run is one distributed co-analysis: the analysis itself plus the lease
// table over the segments it has in flight.
type run struct {
	id     string
	spec   RunSpec
	h      *core.Run
	cancel context.CancelFunc // stops h (run failed, coordinator closed)

	// leases has an entry for every segment that is, or was before it was
	// put back, leased out; settled records the epoch each segment settled
	// under, which is what makes a retried report an acknowledgement.
	leases  map[int]*lease
	settled map[int]int

	state  string // "running" | "done" | "failed"
	errMsg string
	res    *core.Result
	doneCh chan struct{}
}

// lease is the coordinator's record of one path ID: under which epoch it
// is out, and until when. out is false while the segment sits on the
// frontier again after a put-back; its next admission is epoch+1.
type lease struct {
	epoch    int
	attempts int
	out      bool
	deadline time.Time
}

// NewCoordinator starts a coordinator and its lease-expiry sweeper.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.BuildPlatform == nil {
		cfg.BuildPlatform = func(design, bench string) (*core.Platform, error) {
			return report.BuildPlatform(report.Design(design), bench)
		}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default
	}
	if cfg.leaseTTL <= 0 {
		cfg.leaseTTL = defaultLeaseTTL
	}
	if cfg.sweepEvery <= 0 {
		cfg.sweepEvery = max(cfg.leaseTTL/4, 10*time.Millisecond)
	}
	if cfg.maxAttempts <= 0 {
		cfg.maxAttempts = defaultMaxAttempts
	}
	c := &Coordinator{
		cfg:       cfg,
		runs:      make(map[string]*run),
		stopSweep: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	c.om = newCoordMetrics(cfg.Metrics, c)
	c.wg.Add(1)
	go c.sweeper()
	return c
}

// Close fails every live run, stops the sweeper and wakes every lease
// long-poller with ErrClosed. Finished runs stay queryable.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, id := range c.order {
		c.failRunLocked(c.runs[id], "coordinator closed")
	}
	close(c.stopSweep)
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
}

// NewRun registers a distributed run: it normalizes the spec as every
// door does, builds the platform and opens the analysis — policy, frontier
// with the cold-boot entry, toggle profile — exactly as a single-node run
// would, minus the explorers. What a fleet cannot honour is rejected here,
// by name, rather than ignored. It returns the run ID workers will see in
// their leases.
func (c *Coordinator) NewRun(spec RunSpec) (string, error) {
	spec, err := spec.Normalize(nil)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if spec.Workers > 1 {
		return "", fmt.Errorf("%w: workers=%d: a worker slot is one explorer; run more worker slots instead", ErrBadPayload, spec.Workers)
	}
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"deadlineMs", spec.DeadlineMS != 0},
		{"maxCycles", spec.MaxCycles != 0},
		{"maxForks", spec.MaxForks != 0},
		{"maxCsmStates", spec.MaxCSMStates != 0},
	} {
		if f.set {
			return "", fmt.Errorf("%w: %s: a fleet carries no budgets", ErrBadPayload, f.name)
		}
	}
	cc, err := spec.Config()
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	cc.Metrics = c.cfg.Metrics
	p, err := c.cfg.BuildPlatform(spec.Design, spec.Bench)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if c.tuneConfig != nil {
		c.tuneConfig(&cc)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h, err := core.Open(ctx, p, cc)
	if err != nil {
		cancel()
		return "", fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	r := &run{
		spec:    spec,
		h:       h,
		cancel:  cancel,
		leases:  make(map[int]*lease),
		settled: make(map[int]int),
		state:   "running",
		doneCh:  make(chan struct{}),
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		r.cancel()
		_, _ = h.Wait() // releases the analysis; a run that never started has no result
		return "", ErrClosed
	}
	c.nextID++
	r.id = fmt.Sprintf("r%d", c.nextID)
	c.runs[r.id] = r
	c.order = append(c.order, r.id)
	c.wg.Add(1)
	c.cond.Broadcast()
	c.mu.Unlock()

	go c.await(r)
	c.om.runs.Inc()
	return r.id, nil
}

// await is the run's waiter: it blocks in core.Run.Wait until the analysis
// is over and records how it ended.
func (c *Coordinator) await(r *run) {
	defer c.wg.Done()
	res, err := r.h.Wait()
	r.cancel()

	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case r.state != "running":
		// Already failed (attempts exhausted, coordinator closed): the
		// canceled analysis's degraded result is of no use to anyone.
	case err != nil:
		c.failRunLocked(r, err.Error())
	case !res.Complete:
		d := res.Degradation
		c.failRunLocked(r, fmt.Sprintf("exploration incomplete: trip %s, %d paths quarantined, %d pending", d.Trip, len(d.Quarantined), d.PendingPaths))
	default:
		r.res = res
		r.state = "done"
		close(r.doneCh)
		c.cond.Broadcast()
		c.om.runsDone.Inc()
	}
}

// Lease hands out work for one worker slot — one segment of one run —
// long-polling up to wait for work to appear. It returns (nil, nil) when
// none materialized within wait.
func (c *Coordinator) Lease(ctx context.Context, wait time.Duration) (*leaseResponse, error) {
	deadline := time.Now().Add(wait)
	// cond.Wait cannot time out; these wakers make the long-poll bounded
	// by wait and by the caller's context. They broadcast with c.mu held:
	// a bare broadcast could land in the window between the deadline check
	// below and cond.Wait parking, and a poller that misses its own waker
	// stays parked until some unrelated broadcast happens along.
	wake := func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	}
	timer := time.AfterFunc(wait, wake)
	defer timer.Stop()
	stopCtx := context.AfterFunc(ctx, wake)
	defer stopCtx()

	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if ls := c.leaseLocked(); ls != nil {
			c.mu.Unlock()
			c.om.leases.Add(uint64(len(ls.Segments)))
			return ls, nil
		}
		if ctx.Err() != nil || !time.Now().Before(deadline) {
			c.mu.Unlock()
			return nil, nil
		}
		c.cond.Wait()
	}
}

// leaseLocked scans runs round-robin for work, so a fleet spreads across
// concurrent runs instead of piling onto the oldest. Caller holds c.mu.
func (c *Coordinator) leaseLocked() *leaseResponse {
	for i := 0; i < len(c.order); i++ {
		r := c.runs[c.order[(c.rr+i)%len(c.order)]]
		segs := c.grantLocked(r)
		if len(segs) == 0 {
			continue
		}
		c.rr = (c.rr + i + 1) % len(c.order)
		return &leaseResponse{
			RunID:      r.id,
			LeaseTTLMS: c.cfg.leaseTTL.Milliseconds(),
			Spec:       r.spec,
			Segments:   segs,
		}
	}
	return nil
}

// grantLocked admits a segment of r, if one is pending, and leases it
// out. A path ID seen before — put back after its lease lapsed — goes
// out under the next epoch. Caller holds c.mu.
func (c *Coordinator) grantLocked(r *run) []segment {
	if r.state != "running" {
		return nil
	}
	id, work, ok := r.h.Admit()
	if !ok {
		return nil
	}
	l := r.leases[id]
	if l == nil {
		l = &lease{}
		r.leases[id] = l
	}
	l.epoch++
	l.attempts++
	l.out = true
	l.deadline = time.Now().Add(c.cfg.leaseTTL)
	return []segment{{ID: id, Epoch: l.epoch, Work: work}}
}

// heldLocked fences an RPC about a segment: the run must be live and the
// segment leased out under exactly the caller's epoch. Caller holds c.mu.
func (r *run) heldLocked(id, epoch int) *lease {
	if l := r.leases[id]; r.state == "running" && l != nil && l.out && l.epoch == epoch {
		return l
	}
	return nil
}

// Report settles a leased segment with its outcome — core.Run.Settle:
// absorb, classify, fork — and leases the reporting slot its next segment
// of the same run. A report of the epoch that already settled the segment
// (the worker lost the first response and retried) is acknowledged without
// absorbing anything; any other epoch is stale.
func (c *Coordinator) Report(runID string, id, epoch int, outcome []byte) (*reportResponse, error) {
	c.mu.Lock()
	r, ok := c.runs[runID]
	if !ok {
		c.mu.Unlock()
		return nil, ErrUnknownRun
	}
	l := r.heldLocked(id, epoch)
	if l != nil {
		// The lease ends here, before the settle below runs without c.mu:
		// no sweep, fail or second report can act on it in between.
		delete(r.leases, id)
		r.settled[id] = epoch
	} else if e, done := r.settled[id]; r.state != "running" || !done || e != epoch {
		c.mu.Unlock()
		c.om.staleRPCs.Inc()
		return nil, ErrStale
	}
	c.mu.Unlock()

	if l == nil {
		c.om.duplicateReports.Inc()
	} else if err := r.h.Settle(id, outcome); err != nil {
		// Nothing was absorbed. If the run is still live the outcome was
		// malformed: the lease goes back as it was and will lapse — a
		// worker that sends garbage does not get to retry it.
		c.mu.Lock()
		live := r.state == "running"
		delete(r.settled, id)
		r.leases[id] = l
		c.mu.Unlock()
		if !live {
			c.om.staleRPCs.Inc()
			return nil, ErrStale
		}
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	} else {
		c.om.settles.Inc()
	}

	c.mu.Lock()
	segs := c.grantLocked(r)
	// The settle may have forked more than this slot takes.
	c.cond.Broadcast()
	c.mu.Unlock()
	c.om.leases.Add(uint64(len(segs)))
	return &reportResponse{Segments: segs}, nil
}

// Fail hands back a segment the worker could not simulate; it is put back
// for another attempt (or the run fails once attempts are exhausted).
func (c *Coordinator) Fail(runID string, id, epoch int, reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.runs[runID]
	if !ok {
		return ErrUnknownRun
	}
	l := r.heldLocked(id, epoch)
	if l == nil {
		c.om.staleRPCs.Inc()
		return ErrStale
	}
	c.putBackLocked(r, id, l, reason)
	return nil
}

// Heartbeat extends the leases refs names that are still held. It is
// ErrStale when none of them is.
func (c *Coordinator) Heartbeat(runID string, refs []leaseRef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.runs[runID]
	if !ok {
		return ErrUnknownRun
	}
	held := 0
	for _, ref := range refs {
		if l := r.heldLocked(ref.ID, ref.Epoch); l != nil {
			l.deadline = time.Now().Add(c.cfg.leaseTTL)
			held++
		}
	}
	c.om.heartbeats.Add(uint64(held))
	if held == 0 {
		c.om.staleRPCs.Inc()
		return ErrStale
	}
	return nil
}

// putBackLocked ends a lease without an outcome: the segment goes back on
// the run's frontier under its path ID, to be leased again under the next
// epoch, or the run fails when the segment is out of attempts. Caller
// holds c.mu.
func (c *Coordinator) putBackLocked(r *run, id int, l *lease, reason string) {
	l.out = false
	if l.attempts >= c.cfg.maxAttempts {
		c.failRunLocked(r, fmt.Sprintf("path %d exhausted %d attempts (last: %s)", id, l.attempts, reason))
		return
	}
	r.h.PutBack(id)
	c.cond.Broadcast()
	c.om.requeues.Inc()
}

// failRunLocked marks a run failed, stops its analysis and wakes waiters.
// Idempotent: sweep can exhaust several of a run's segments in one pass,
// and each exhaustion lands here — only the first closes doneCh and
// records the failure. Caller holds c.mu.
func (c *Coordinator) failRunLocked(r *run, msg string) {
	if r.state != "running" {
		return
	}
	r.state = "failed"
	r.errMsg = msg
	r.cancel()
	close(r.doneCh)
	c.cond.Broadcast() // parked lease waiters must re-check the state
	c.om.runsFailed.Inc()
}

// sweeper periodically puts back segments whose lease expired — the
// crash-recovery path: a worker that died (or wedged) mid-segment stops
// heartbeating, its lease lapses, and the segment is leased again under
// the next epoch while every RPC from the dead epoch bounces off 409.
func (c *Coordinator) sweeper() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.sweepEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stopSweep:
			return
		case now := <-t.C:
			c.sweep(now)
		}
	}
}

// sweep puts back every expired lease.
func (c *Coordinator) sweep(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rid := range c.order {
		r := c.runs[rid]
		for id, l := range r.leases {
			if r.state != "running" {
				// Not live, or an exhausted segment just failed the run:
				// its remaining leases are moot.
				break
			}
			if !l.out || l.deadline.After(now) {
				continue
			}
			c.om.expiries.Inc()
			c.putBackLocked(r, id, l, "lease expired")
		}
	}
}

// Status reports a run's externally visible state.
func (c *Coordinator) Status(runID string) (RunStatusView, error) {
	c.mu.Lock()
	r, ok := c.runs[runID]
	if !ok {
		c.mu.Unlock()
		return RunStatusView{}, ErrUnknownRun
	}
	v := RunStatusView{ID: r.id, State: r.state, Error: r.errMsg, Spec: r.spec}
	c.mu.Unlock()
	pr := r.h.Progress()
	v.PathsDone, v.PathsPending, v.PathsInFlight = pr.PathsDone, pr.PathsPending, pr.PathsInFlight
	v.SimulatedCycles, v.CSMStates = pr.SimulatedCycles, pr.CSMStates
	return v, nil
}

// Wait blocks until the run is done or failed (or ctx ends) and returns
// its result. The returned Result is owned by the coordinator; callers
// must not mutate it.
func (c *Coordinator) Wait(ctx context.Context, runID string) (*core.Result, error) {
	c.mu.Lock()
	r, ok := c.runs[runID]
	c.mu.Unlock()
	if !ok {
		return nil, ErrUnknownRun
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-r.doneCh:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.state == "failed" {
		return nil, fmt.Errorf("cluster: run %s failed: %s", r.id, r.errMsg)
	}
	return r.res, nil
}
