package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"symsim/internal/core"
	"symsim/internal/obs"
	"symsim/internal/report"
)

// Worker leases path segments from a coordinator and drives them with
// core.Explore, the single-node explorer loop, reporting each outcome
// back. One Worker runs Slots explorers concurrently; its RPCs go through
// the shared hardened unary client (internal/httpx).
type Worker struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8466".
	Coordinator string
	// BuildPlatform constructs platforms for leased specs; nil uses the
	// report catalogue. Platforms are cached per design/bench, so the
	// compiled kernel is built once per worker, not once per lease.
	BuildPlatform func(design, bench string) (*core.Platform, error)
	// Name labels the worker for its caller. Nothing in the fleet reads
	// it: a lease goes to whichever slot asks, and no RPC carries a name.
	Name string
	// Slots is the number of explorers run concurrently (default 1).
	Slots int
	// Metrics receives worker metrics. Nil uses obs.Default.
	Metrics *obs.Registry
	// PollEvery is the idle delay between empty lease polls (default
	// 250ms; the coordinator additionally long-polls server-side).
	PollEvery time.Duration

	// tuneConfig, when non-nil, may adjust an explorer's core.Config before
	// it starts. Test seam (fault injection: wedging a segment).
	tuneConfig func(runID string, cc *core.Config)

	om *workerMetrics

	pmu       sync.Mutex
	platforms map[string]*core.Platform
}

// Run leases and explores segments until ctx ends. It returns ctx.Err().
func (w *Worker) Run(ctx context.Context) error {
	if w.Metrics == nil {
		w.Metrics = obs.Default
	}
	if w.Slots <= 0 {
		w.Slots = 1
	}
	if w.PollEvery <= 0 {
		w.PollEvery = 250 * time.Millisecond
	}
	if w.BuildPlatform == nil {
		w.BuildPlatform = func(design, bench string) (*core.Platform, error) {
			return report.BuildPlatform(report.Design(design), bench)
		}
	}
	w.om = newWorkerMetrics(w.Metrics)
	w.platforms = make(map[string]*core.Platform)
	cc := newCoordClient(w.Coordinator)

	var wg sync.WaitGroup
	for range w.Slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.pull(ctx, cc)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// pull is one slot's lease loop.
func (w *Worker) pull(ctx context.Context, cc *coordClient) {
	for ctx.Err() == nil {
		ls, ok, err := cc.lease()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, ErrClosed) {
				return
			}
			w.om.rpcErrors.With("lease").Inc()
			ok = false
		}
		if !ok {
			w.om.leaseEmpty.Inc()
			select {
			case <-ctx.Done():
				return
			case <-time.After(w.PollEvery):
			}
			continue
		}
		w.explore(ctx, cc, ls)
	}
}

// platform returns the cached platform for a design/bench pair.
func (w *Worker) platform(design, bench string) (*core.Platform, error) {
	key := design + "\x00" + bench
	w.pmu.Lock()
	defer w.pmu.Unlock()
	if p, ok := w.platforms[key]; ok {
		return p, nil
	}
	p, err := w.BuildPlatform(design, bench)
	if err != nil {
		return nil, err
	}
	w.platforms[key] = p
	return p, nil
}

// explore drives the leased segments, and whatever the coordinator hands
// back with each report, through core.Explore — the same loop a single-node
// run's explorers execute — until the run has nothing more for this slot.
func (w *Worker) explore(ctx context.Context, cc *coordClient, ls *leaseResponse) {
	src := &leased{w: w, cc: cc, runID: ls.RunID, ctx: ctx, queue: ls.Segments, held: make(map[int]int)}
	for _, sg := range ls.Segments {
		src.held[sg.ID] = sg.Epoch
	}
	p, cfg, err := w.engine(ls)
	if err != nil {
		src.failHeld(err.Error())
		return
	}

	// Heartbeats keep the lease alive only while the explorer advances: a
	// wedged simulation stops beating and the coordinator puts its segment
	// back.
	ttl := time.Duration(ls.LeaseTTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	every := max(ttl/4, 10*time.Millisecond)
	beatDone := make(chan struct{})
	var beat sync.WaitGroup
	beat.Add(1)
	go func() {
		defer beat.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-beatDone:
				return
			case <-tick.C:
				src.heartbeat()
			}
		}
	}()
	err = core.Explore(p, cfg, src)
	close(beatDone)
	beat.Wait()
	if err != nil {
		src.failHeld(fmt.Sprintf("explore: %v", err))
	}
}

// engine resolves a lease's spec into the platform and the core.Config
// it describes, of which core.Explore reads the driver's half.
func (w *Worker) engine(ls *leaseResponse) (*core.Platform, core.Config, error) {
	cfg, err := ls.Spec.Config()
	if err != nil {
		return nil, cfg, err
	}
	cfg.Metrics = w.Metrics
	p, err := w.platform(ls.Spec.Design, ls.Spec.Bench)
	if err != nil {
		return nil, cfg, fmt.Errorf("platform: %w", err)
	}
	if w.tuneConfig != nil {
		w.tuneConfig(ls.RunID, &cfg)
	}
	return p, cfg, nil
}

// leased is a worker slot's core.Source: the segment of one run the
// coordinator has leased to it. Admit hands the explorer what the last
// lease or report response carried; Settle reports an outcome and takes
// the response's segment in turn — one round trip per segment.
type leased struct {
	w     *Worker
	cc    *coordClient
	runID string
	ctx   context.Context
	// moved records that the explorer advanced since the last heartbeat
	// tick.
	moved atomic.Bool

	// mu guards queue and held against the heartbeat goroutine.
	mu    sync.Mutex
	queue []segment   // leased, not yet admitted
	held  map[int]int // path ID → epoch of every lease not yet reported
}

func (s *leased) Admit() (id int, work []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return 0, nil, false
	}
	sg := s.queue[0]
	s.queue = s.queue[1:]
	return sg.ID, sg.Work, true
}

func (s *leased) Settle(id int, outcome []byte) {
	s.mu.Lock()
	epoch := s.held[id]
	delete(s.held, id)
	s.mu.Unlock()

	resp, err := s.cc.report(s.runID, id, epoch, outcome)
	switch {
	case errors.Is(err, ErrStale):
		// The lease lapsed mid-segment (this worker stalled and recovered)
		// or the run is over: the segment is someone else's now.
		s.w.om.unitsStale.Inc()
	case err != nil:
		// The lease will lapse and the segment go out again.
		s.w.om.rpcErrors.With("report").Inc()
	default:
		s.w.om.unitsReported.Inc()
		s.mu.Lock()
		for _, sg := range resp.Segments {
			s.held[sg.ID] = sg.Epoch
		}
		s.queue = append(s.queue, resp.Segments...)
		s.mu.Unlock()
	}
}

func (s *leased) Stopping() bool { return s.ctx.Err() != nil }
func (s *leased) Advance(uint64) { s.moved.Store(true) }

// heartbeat extends the held lease if the explorer advanced since last
// asked.
func (s *leased) heartbeat() {
	if !s.moved.Swap(false) {
		return
	}
	s.mu.Lock()
	refs := make([]leaseRef, 0, len(s.held))
	for id, epoch := range s.held {
		refs = append(refs, leaseRef{ID: id, Epoch: epoch})
	}
	s.mu.Unlock()
	if len(refs) == 0 {
		return
	}
	s.w.om.heartbeats.Inc()
	// Best effort: a lease whose every beat misses lapses, as it should.
	_ = s.cc.heartbeat(s.runID, refs)
}

// failHeld hands every lease the slot still holds back to the coordinator.
func (s *leased) failHeld(reason string) {
	s.mu.Lock()
	held := s.held
	s.held, s.queue = map[int]int{}, nil
	s.mu.Unlock()
	for id, epoch := range held {
		err := s.cc.fail(s.runID, id, epoch, reason)
		switch {
		case errors.Is(err, ErrStale):
			s.w.om.unitsStale.Inc()
		case err != nil:
			// The lease will lapse instead.
			s.w.om.rpcErrors.With("fail").Inc()
		default:
			s.w.om.unitsFailed.Inc()
		}
	}
}
