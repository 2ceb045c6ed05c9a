package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"symsim/internal/csm"
	"symsim/internal/logic"
	"symsim/internal/obs"
)

// Algorithm 1 splits in two at admit/settle. The state — frontier, CSM,
// toggle profile, path IDs, budgets, checkpoint, progress, finish — is an
// analysis and lives wherever the run was opened. A driver — explore:
// restore, step, retire over a lane engine — lives wherever there is a CPU
// and talks to the state only through "give me work" and "here is the
// outcome". AnalyzeContext runs both in one process; internal/cluster opens
// the state on a coordinator and runs the drivers on its workers
// (DESIGN.md §14).

// Run is an opened co-analysis: the state of Algorithm 1 without a driver.
// All methods are safe for concurrent use. Wait must be called exactly
// once; it releases the run's goroutines.
type Run struct{ a *analysis }

// Open validates p and cfg and opens a run: the policy is constructed, the
// frontier holds the cold-boot entry (or cfg.Resume's pending paths), and
// the governance of cfg.Budget, ctx and cfg.Progress is live. Nothing is
// simulated until a driver admits work — local explorers under
// AnalyzeContext, or anything that calls Admit and Settle.
func Open(ctx context.Context, p *Platform, cfg Config) (*Run, error) {
	if err := prepare(p, &cfg); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		cfg.Policy = csm.NewMergeAll()
	}
	a := &analysis{p: p, cfg: cfg, inflight: make(map[int]entry), done: make(chan struct{})}
	a.cond = sync.NewCond(&a.mu)
	a.m = newCoreMetrics(cfg.Metrics)
	if !cfg.DisablePrune {
		a.pruner, _ = cfg.Policy.(csm.Pruner)
	}
	a.res = &Result{
		Design:      p.Design,
		ToggledNets: make([]bool, len(p.Design.Nets)),
		ConstNets:   make([]logic.Value, len(p.Design.Nets)),
		TotalGates:  len(p.Design.Gates),
		Policy:      cfg.Policy.Name(),
	}
	a.constSeen = make([]bool, len(p.Design.Nets))

	if cfg.Resume != nil {
		if err := a.loadResume(cfg.Resume); err != nil {
			return nil, err
		}
	} else {
		// Initial path: cold boot through reset (no saved state).
		a.front.push(entry{parent: -1})
		a.res.PathsCreated = 1
	}

	a.m.runs.Inc()
	cfg.Tracer.Emit(obs.Meta{
		T:       obs.RecMeta,
		Design:  p.Design.Name,
		Bench:   p.Bench,
		Policy:  cfg.Policy.Name(),
		Engine:  cfg.Engine.String(),
		Workers: cfg.Workers,
	})
	a.govern(ctx)
	return &Run{a}, nil
}

// govern starts the run's clock and its two auxiliary goroutines: the
// watcher that turns context cancellation and the wall-clock budget into a
// drain request, and the progress heartbeat.
func (a *analysis) govern(ctx context.Context) {
	a.start = time.Now()
	a.lastCkpt = a.start

	// An already-canceled context must trip before any work is admitted;
	// leaving it to the watcher goroutine races against drivers fast
	// enough to finish the whole run first.
	if ctx.Err() != nil {
		a.tripStop(TripCanceled)
	}

	a.aux.Add(1)
	go func() {
		defer a.aux.Done()
		var wallC <-chan time.Time
		if a.cfg.Budget.WallClock > 0 {
			t := time.NewTimer(a.cfg.Budget.WallClock)
			defer t.Stop()
			wallC = t.C
		}
		select {
		case <-ctx.Done():
			a.tripStop(TripCanceled)
		case <-wallC:
			a.tripStop(TripWallClock)
		case <-a.done:
		}
	}()

	if a.cfg.Progress != nil {
		every := a.cfg.ProgressEvery
		if every <= 0 {
			every = time.Second
		}
		a.aux.Add(1)
		go func() {
			defer a.aux.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-a.done:
					return
				case <-tick.C:
					a.cfg.Progress(a.progress())
				}
			}
		}()
	}
}

// Admit pops the next live entry off the frontier and registers it in
// flight (Algorithm 1 line 12): id is its path ID and work its encoding for
// a driver (see Explore). ok is false when the frontier is empty right now
// — segments in flight may still fork — or the run is stopping.
func (r *Run) Admit() (id int, work []byte, ok bool) {
	id, e, ok := r.a.admit(false)
	if !ok {
		return 0, nil, false
	}
	return id, appendWork(nil, e), true
}

// Settle retires the in-flight segment id with the outcome a driver
// produced for it: the locked absorb → classify → fork step of Algorithm 1
// (lines 17–39), then the per-segment metrics, trace span and periodic
// checkpoint. It fails, changing nothing, when outcome is malformed or id
// is not in flight — settled already, put back, or the run is over.
func (r *Run) Settle(id int, outcome []byte) error {
	a := r.a
	out, wall, err := decodeOutcome(len(a.p.Design.Nets), a.p.Spec.Bits(), outcome)
	if err != nil {
		return err
	}
	out.stat.ID = id
	// The segment's cycles were simulated out of sight of this process.
	out.uncounted = out.stat.Cycles
	if out.quarantine != nil {
		out.quarantine.PathID = id
	}
	if !a.settle(&out, wall) {
		return fmt.Errorf("core: path %d is not in flight", id)
	}
	return nil
}

// PutBack returns the in-flight segment id to the top of the frontier
// unsimulated, keeping its path ID for when it is admitted again — what a
// lease on it lapsing means. It reports whether id was in flight.
func (r *Run) PutBack(id int) bool {
	a := r.a
	a.mu.Lock()
	ok := a.putBack(id)
	a.mu.Unlock()
	a.cond.Broadcast()
	return ok
}

// Progress returns a heartbeat snapshot of the run.
func (r *Run) Progress() Progress { return r.a.progress() }

// Lanes is the number of segments one explorer of the run's engine drives
// at a time: Config.Lanes as resolved for Config.Engine.
func (r *Run) Lanes() int { return r.a.cfg.Lanes }

// Wait blocks until the run is over — the frontier exhausted with nothing
// in flight (Algorithm 1 line 11), a budget tripped, ctx canceled, or a
// fatal error — and returns what AnalyzeContext returns: the final Result,
// degraded soundly if the run stopped early, or the fatal error. Segments
// still in flight when the run stops are put back and count as pending.
func (r *Run) Wait() (*Result, error) {
	a := r.a
	a.drivers.Wait()
	a.mu.Lock()
	for !a.stop.Load() && (a.active > 0 || a.front.len() > 0) {
		a.cond.Wait()
	}
	// From here on nothing is admitted, settled or checkpointed.
	a.stop.Store(true)
	for _, id := range a.inflightIDs() {
		a.putBack(id)
	}
	a.mu.Unlock()

	close(a.done)
	a.aux.Wait()
	if a.cfg.Progress != nil {
		a.cfg.Progress(a.progress())
	}
	// A remote segment that settled just before may still be writing its
	// periodic checkpoint; the final one must land after it.
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.ckptBusy {
		a.cond.Wait()
	}
	if a.fatal != nil {
		return nil, a.fatal
	}
	if a.ckptErr != nil {
		return nil, a.ckptErr
	}
	a.finish()
	return a.res, nil
}

// putBack moves the in-flight segment id back onto the frontier under its
// own path ID. Caller holds a.mu.
func (a *analysis) putBack(id int) bool {
	e, ok := a.inflight[id]
	if !ok {
		return false
	}
	delete(a.inflight, id)
	a.active--
	e.id, e.readmit = id, true
	a.front.push(e)
	return true
}

// Source is the state of a run as a driver in another process reaches it:
// a cluster worker's RPC client in front of a coordinator's Run. Work and
// outcomes travel in this package's segment encoding, which only it reads.
type Source interface {
	// Admit returns the next segment to simulate — a path ID and the work
	// Run.Admit encoded for it — or ok false when the source has none to
	// hand out; the explorer then finishes the lanes it has and returns.
	Admit() (id int, work []byte, ok bool)
	// Settle delivers the outcome of an admitted segment, in the encoding
	// Run.Settle takes.
	Settle(id int, outcome []byte)
	// Stopping reports that the explorer should stop: its segments are
	// settled as interrupted, partial progress included.
	Stopping() bool
	// Advance is told that the explorer's lanes simulated further cycles.
	Advance(cycles uint64)
}

// Explore drives segments of a run whose state lives behind src: the same
// admit → restore → step → retire loop AnalyzeContext runs locally, over
// the engine cfg selects, until src has nothing to admit and every lane
// has settled. Of cfg it reads the driver's half — Engine, Lanes, MemX,
// OnHalt, Trace, Metrics and the lint fields; policy, budgets,
// checkpointing and progress belong to the state. A fatal error
// (a simulator fault, the per-path cycle limit, undecodable work) is
// returned with the segments admitted so far left unsettled.
func Explore(p *Platform, cfg Config, src Source) error {
	if err := prepare(p, &cfg); err != nil {
		return err
	}
	w := &wireSource{p: p, src: src}
	x := explorer{p: p, cfg: &cfg, src: w, laneOcc: laneOccupancy(cfg.Metrics)}
	return errors.Join(x.explore(), w.err)
}

// wireSource adapts a Source to the explorer: entries are decoded on the
// way in, outcomes encoded on the way out.
type wireSource struct {
	p   *Platform
	src Source
	buf []byte
	// err is the first undecodable work item; it stops the explorer.
	err error
}

func (w *wireSource) admit(bool) (int, entry, bool) {
	if w.err != nil {
		return 0, entry{}, false
	}
	id, work, ok := w.src.Admit()
	if !ok {
		return 0, entry{}, false
	}
	e, err := decodeWork(w.p.Spec.Bits(), work)
	if err != nil {
		w.err = fmt.Errorf("core: path %d: %w", id, err)
		return 0, entry{}, false
	}
	return id, e, true
}

func (w *wireSource) settle(out *pathOutcome, wall time.Duration) bool {
	w.buf = appendOutcome(w.buf[:0], out, wall)
	w.src.Settle(out.stat.ID, w.buf)
	return true
}

func (w *wireSource) stopping() bool        { return w.err != nil || w.src.Stopping() }
func (w *wireSource) advance(cycles uint64) { w.src.Advance(cycles) }
