package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"symsim/internal/cliflags"
	"symsim/internal/core"
	"symsim/internal/obs"
	"symsim/internal/report"
)

// Worker pulls leased work units from a coordinator, simulates them with
// the existing single-node machinery (Config.Resume over the seed
// checkpoint, CSM decisions through the remote manager) and reports the
// outcome back. One Worker runs Slots units concurrently; a symsimd in
// worker mode embeds exactly one.
type Worker struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8466".
	Coordinator string
	// Client overrides the HTTP client; nil uses the shared hardened
	// unary client (internal/httpx).
	Client *http.Client
	// BuildPlatform constructs platforms for leased specs; nil uses the
	// report catalogue. Platforms are cached per design/bench, so the
	// compiled kernel is built once per worker, not once per unit.
	BuildPlatform func(design, bench string) (*core.Platform, error)
	// Name identifies the worker in coordinator logs.
	Name string
	// Slots is the number of units simulated concurrently (default 1).
	Slots int
	// Metrics receives worker metrics — including the engine metrics of
	// every unit simulation (lane occupancy per worker). Nil uses
	// obs.Default.
	Metrics *obs.Registry
	// Logf receives operational logging; nil discards.
	Logf func(format string, args ...any)
	// PollEvery is the idle delay between empty lease polls (default
	// 250ms; the coordinator additionally long-polls server-side).
	PollEvery time.Duration

	// tuneConfig, when non-nil, may adjust each unit's core.Config before
	// simulation. Test seam (fault injection: wedging a unit mid-shard).
	tuneConfig func(runID string, unit int, cc *core.Config)

	om *workerMetrics

	pmu       sync.Mutex
	platforms map[string]*core.Platform
}

// Run pulls and simulates units until ctx ends. It returns ctx.Err().
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
	if w.Logf == nil {
		w.Logf = func(string, ...any) {}
	}
	if w.BuildPlatform == nil {
		w.BuildPlatform = func(design, bench string) (*core.Platform, error) {
			return report.BuildPlatform(report.Design(design), bench)
		}
	}
	w.om = newWorkerMetrics(w.Metrics)
	w.platforms = make(map[string]*core.Platform)
	cc := newCoordClient(w.Coordinator, w.Client)

	var wg sync.WaitGroup
	for s := 0; s < w.Slots; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w.pull(ctx, cc, slot)
		}(s)
	}
	wg.Wait()
	return ctx.Err()
}

// pull is one slot's lease loop.
func (w *Worker) pull(ctx context.Context, cc *coordClient, slot int) {
	name := w.Name
	if name == "" {
		name = "worker"
	}
	name = fmt.Sprintf("%s/%d", name, slot)
	for ctx.Err() == nil {
		ls, ok, err := cc.lease(name)
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, ErrClosed) {
				return
			}
			w.om.rpcErrors.With("lease").Inc()
			w.Logf("cluster: %s: lease: %v", name, err)
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
		w.runUnit(ctx, cc, name, ls)
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

// runUnit simulates one leased unit and reports or fails it.
func (w *Worker) runUnit(ctx context.Context, cc *coordClient, name string, ls *leaseResponse) {
	p, err := w.platform(ls.Spec.Design, ls.Spec.Bench)
	if err != nil {
		w.failUnit(cc, name, ls, fmt.Sprintf("platform: %v", err))
		return
	}
	seed, err := core.DecodeCheckpoint(ls.Seed)
	if err != nil {
		w.failUnit(cc, name, ls, fmt.Sprintf("seed checkpoint: %v", err))
		return
	}
	rcsm := &remoteCSM{
		cc: cc, om: w.om,
		runID: ls.RunID, unit: ls.Unit, epoch: ls.Epoch,
		policyName: ls.PolicyName,
	}
	cfg := core.Config{
		// The policy is a csm.Remote, which is all the scheduler needs to
		// know: it observes unlocked, so sibling paths keep simulating
		// behind each RPC, and a degraded unit is never drained into the
		// coordinator's CSM (the report below is only sent for complete
		// runs).
		Policy:  rcsm,
		Resume:  seed,
		Workers: ls.Spec.Workers,
		Lanes:   ls.Spec.Lanes,
		Metrics: w.Metrics,
	}
	if cfg.MemX, err = cliflags.ParseMemX(ls.Spec.MemX); err != nil {
		w.failUnit(cc, name, ls, err.Error())
		return
	}
	if cfg.Engine, err = cliflags.ParseEngine(ls.Spec.Engine); err != nil {
		w.failUnit(cc, name, ls, err.Error())
		return
	}

	// Progress heartbeats keep the lease alive only while the unit makes
	// observable progress: the beat is sent when the progress fingerprint
	// CHANGES, so a wedged simulation stops beating and the coordinator
	// requeues the unit. (Elapsed is excluded from the fingerprint — time
	// passing is not progress.)
	ttl := time.Duration(ls.LeaseTTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	every := ttl / 6
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}
	cfg.ProgressEvery = every
	var lastFP uint64
	var lastBeat time.Time
	cfg.Progress = func(pr core.Progress) {
		fp := pr.Fingerprint()
		if fp == lastFP {
			return
		}
		lastFP = fp
		if time.Since(lastBeat) < ttl/4 {
			return
		}
		lastBeat = time.Now()
		w.om.heartbeats.Inc()
		if err := cc.heartbeat(ls.RunID, ls.Unit, ls.Epoch); err != nil {
			w.Logf("cluster: %s: heartbeat: %v", name, err)
		}
	}
	if w.tuneConfig != nil {
		w.tuneConfig(ls.RunID, ls.Unit, &cfg)
	}

	res, err := core.AnalyzeContext(ctx, p, cfg)
	switch {
	case err != nil:
		w.failUnit(cc, name, ls, fmt.Sprintf("analysis: %v", err))
	case rcsm.Err() != nil:
		// Some decisions were poisoned locals, not authoritative
		// verdicts: the unit's profile cannot be trusted. Hand it back.
		w.failUnit(cc, name, ls, fmt.Sprintf("remote csm: %v", rcsm.Err()))
	case !res.Complete:
		w.failUnit(cc, name, ls, fmt.Sprintf("incomplete: %v", res.Degradation))
	default:
		rep := core.UnitReport(p, rcsm.Name(), res)
		if err := cc.report(ls.RunID, ls.Unit, ls.Epoch, rep.EncodeBinary()); err != nil {
			if errors.Is(err, ErrStale) {
				// The lease lapsed mid-unit (e.g. this worker stalled and
				// recovered): the unit is someone else's now.
				w.om.unitsStale.Inc()
				w.Logf("cluster: %s: run %s unit %d: report fenced as stale", name, ls.RunID, ls.Unit)
				return
			}
			w.om.rpcErrors.With("report").Inc()
			w.Logf("cluster: %s: run %s unit %d: report: %v (lease will lapse)", name, ls.RunID, ls.Unit, err)
			return
		}
		w.om.unitsReported.Inc()
	}
}

// failUnit hands a unit back for requeue.
func (w *Worker) failUnit(cc *coordClient, name string, ls *leaseResponse, reason string) {
	if err := cc.fail(ls.RunID, ls.Unit, ls.Epoch, reason); err != nil {
		if errors.Is(err, ErrStale) {
			w.om.unitsStale.Inc()
			return
		}
		w.om.rpcErrors.With("fail").Inc()
		w.Logf("cluster: %s: run %s unit %d: fail RPC: %v (lease will lapse)", name, ls.RunID, ls.Unit, err)
		return
	}
	w.om.unitsFailed.Inc()
	w.Logf("cluster: %s: run %s unit %d failed: %s", name, ls.RunID, ls.Unit, reason)
}
