// Package core implements the paper's primary contribution: design-agnostic
// symbolic hardware/software co-analysis (Algorithm 1). Given a platform —
// any gate-level design exposing a program counter, monitored control-flow
// signals and a terminating condition — it simulates the application with
// all inputs replaced by Xs, forks execution at PC-changing instructions
// whose monitored signals are unknown, manages conservative states through
// a pluggable CSM policy, and produces the dichotomy of exercisable vs
// never-exercisable gates that downstream application-specific
// optimizations (bespoke processors, power gating, peak-power analysis,
// security guarantees) consume.
//
// Long runs are governed: Analyze honours context cancellation and
// wall-clock/cycle/state/fork budgets with graceful degradation (the
// result stays sound but over-approximate, see Degradation), contains
// panicking path segments instead of crashing (see Quarantine), and can
// periodically checkpoint its full exploration state for later resume
// (see CheckpointConfig and Config.Resume).
package core

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"symsim/internal/csm"
	"symsim/internal/lint"
	"symsim/internal/logic"
	"symsim/internal/netlist"
	"symsim/internal/obs"
	"symsim/internal/vvp"
)

// Platform packages everything the co-analysis needs to know about a
// design under test: the testbench harness of paper Listing 1, expressed
// as data. CPU packages construct one per {processor, application} pair.
type Platform struct {
	// Name identifies the design for reports (e.g. "bm32").
	Name string
	// Bench identifies the loaded benchmark program for reports and
	// traces (e.g. "mult"). Optional; empty when the caller builds the
	// platform by hand.
	Bench string
	// Design is the frozen gate-level netlist with the application binary
	// preloaded in its program ROM and input-dependent memory regions
	// initialized to X: for the shipped processors a view (netlist.Bind)
	// of the one design each is elaborated into, so platforms of the same
	// processor share everything but the memory contents.
	Design *netlist.Netlist
	// Spec locates the machine state (all DFFs, writable memories, PC).
	Spec *vvp.StateSpec
	// Monitor is the $monitor_x argument: control-flow signals to watch.
	Monitor vvp.MonitorXSpec
	// HalfPeriod is the clock half-period in simulation time units.
	HalfPeriod uint64
	// ResetCycles is the number of clock cycles rst_n stays asserted.
	ResetCycles int
	// Inputs holds additional primary-input events (the "provide Xs to
	// the application" initializations of Listing 1; unlisted inputs stay
	// X, which is already the most conservative assignment).
	Inputs []vvp.InputEvent
	// Specialize, when non-nil, refines a forked child's starting state
	// with the chosen branch interpretation — the paper's "Xs in the
	// monitored state are re-interpreted as ones or zeros" (§3.3). st is the
	// child's own copy, which the function may rewrite and return. The
	// openMSP430 platform uses it to pin the status flag a conditional
	// jump tests; designs whose branch conditions are relations between
	// registers (bm32, dr5) cannot refine their state this way and leave
	// it nil.
	Specialize func(st vvp.State, taken bool) vvp.State
}

// Lint returns the structural lint result for the platform's design. The
// result depends on the structure, on the platform's monitored nets and on
// the image only through lint.ImageFacts, so it is kept with the frozen
// design under exactly those (Netlist.Derived): the benchmarks of one
// processor, and the many Analyze calls a platform serves, read one
// result. It is shared — callers must not modify it.
func (p *Platform) Lint() *lint.Result {
	opts := p.LintOptions()
	key := make([]byte, 0, 128)
	for _, id := range opts.KeepAlive {
		key = strconv.AppendInt(key, int64(id), 10)
		key = append(key, ',')
	}
	type lintKey struct{ keepAlive, image string }
	k := lintKey{string(key), lint.ImageFacts(p.Design)}
	return p.Design.Derived(k, func() any { return lint.Run(p.Design, opts) }).(*lint.Result)
}

// Config tunes one co-analysis run. The zero value selects the paper's
// defaults: merge-all conservative states and a single worker (the
// deterministic Algorithm 1 ordering). There is one memory-X rule and no
// setting for it: a write through an unknown address merges into every
// word the address could name (DESIGN §2).
type Config struct {
	// Policy is the conservative state manager; nil selects MergeAll.
	Policy csm.Manager
	// Workers is the number of parallel explorers (paper §3.3: "Since
	// each branch of the simulation can be run by a separate process,
	// launching these processes in parallel can drastically improve
	// simulation time"). 0 or 1 runs the deterministic sequential order;
	// negative values are rejected by validation. EngineBatch always runs
	// one explorer: its parallelism is the lanes. No door sets it: more
	// explorers keep the dichotomy and tie-offs, not the path and cycle
	// counts, and ran no faster; the benchmark and the race tests drive it.
	Workers int
	// Engine selects the simulation machinery the explorers run on: the
	// compiled kernel (default), the reference interpreter, or the
	// bit-parallel batch engine, which packs up to 64 pending paths into
	// one simulator. The gate dichotomy and the tie-offs are identical on
	// all three. Kernel and interpreter also agree on every path and cycle
	// count; the batch engine admits entries a round at a time, so it
	// explores in a different order and its counts differ (both are pinned
	// in testdata/table4_counts.json). The cold-boot path always runs on a
	// scalar simulator.
	Engine vvp.Engine
	// Budget bounds the run with graceful degradation: on exhaustion the
	// result is still sound, just over-approximate (Complete=false).
	Budget Budget
	// Checkpoint, when non-nil, enables periodic atomic checkpointing of
	// the full exploration state to Checkpoint.Path.
	Checkpoint *CheckpointConfig
	// Resume, when non-nil, seeds the run from a previously written
	// checkpoint instead of the cold-boot path. The checkpoint must match
	// the platform (design name, net count, state bits) and the policy.
	Resume *Checkpoint
	// Progress, when non-nil, receives heartbeat snapshots from a
	// dedicated goroutine every ProgressEvery plus one final snapshot
	// when exploration stops. Must be safe for concurrent use.
	Progress func(Progress)
	// ProgressEvery is the heartbeat interval; 0 means 1s.
	ProgressEvery time.Duration
	// OnHalt, when non-nil, receives every saved halt state before the
	// CSM classifies it — the hook behind on-disk state dumps (the
	// "sim_state.log" files of the paper's flow). Called from the
	// explorers; must be concurrency-safe when Workers > 1 (no door sets it).
	OnHalt func(pathID int, st vvp.State)
	// Trace, when non-nil, records the event list of the initial
	// (cold-boot) path — enough for a symbolic waveform showing the Xs
	// flowing from the application inputs to the first fork.
	Trace *vvp.Trace
	// Metrics selects the registry the run publishes exploration metrics
	// into (paths by end, CSM verdicts, segment cycles, engine effort,
	// budget trips); nil selects obs.Default. Every series is a sum the runs
	// sharing the registry add to: what one run did at a PC is in its
	// Tracer's records, where it stands in Progress. Publication is per path
	// segment and per CSM decision, never per cycle.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives the structured exploration trace:
	// one span per path segment plus the CSM decision log, as rendered by
	// `symsim explain`. Nil disables tracing at the cost of one pointer
	// test per segment.
	Tracer *obs.Tracer

	// disablePrune turns off constraint-aware fork pruning: when the
	// policy can prove a forked child infeasible under the user's
	// application facts (csm.Pruner), the scheduler normally drops the
	// child before it is ever created. Pruning is sound by construction —
	// only states contradicting a designer-supplied fact are dropped — so
	// only the A/B test in _test.go sets it.
	disablePrune bool
	// keepSuperseded makes admit simulate the entries the frontier reports
	// superseded, i.e. plain Algorithm 1; only the A/B oracle in _test.go
	// sets it.
	keepSuperseded bool
	// noReplay runs every segment of the scalar kernel in full, with no
	// recording; only the A/B oracle in _test.go sets it.
	noReplay bool
	// allMoved makes every segment's outcome name every net moved, so
	// absorb reads every net that is not yet exercisable; only the A/B
	// oracle in _test.go sets it.
	allMoved bool
	// skipLint disables the structural pre-check (the netlist is then only
	// validated by Freeze, whose first-failure errors are far less
	// descriptive); only tests in _test.go set it.
	skipLint bool
	// maxCyclesPerPath bounds one path segment; 0 means 1<<20. Exceeding
	// it is a hard error (a runaway path is a platform bug, not a budget);
	// only tests in _test.go lower it.
	maxCyclesPerPath uint64
	// maxPaths bounds total created paths; 0 means 1<<20. Exhausting it
	// is a hard error ("no silent caps"; Budget.MaxForks is the
	// gracefully-degrading bound); only tests in _test.go lower it.
	maxPaths int
	// lanes is the number of segments one explorer drives at a time:
	// prepare resolves it to 1 for the scalar engines and to
	// vvp.BatchLanes for the batch engine; only tests in _test.go set a
	// tighter batch cap.
	lanes int
}

// PathEnd describes how one simulated path segment terminated.
type PathEnd uint8

const (
	// EndForked: the path halted at an X branch and spawned children.
	EndForked PathEnd = iota
	// EndSubsumed: the halt state was covered by the CSM (skipped).
	EndSubsumed
	// EndFinished: the application reached its terminating condition.
	EndFinished
	// EndInterrupted: the segment was stopped mid-simulation by a budget
	// trip or cancellation; its entry went back to the pending worklist.
	EndInterrupted
	// EndQuarantined: the segment's engine or OnHalt hook panicked and was
	// contained.
	EndQuarantined
)

// String returns a short name for the path end.
func (e PathEnd) String() string {
	switch e {
	case EndForked:
		return "forked"
	case EndSubsumed:
		return "subsumed"
	case EndFinished:
		return "finished"
	case EndInterrupted:
		return "interrupted"
	case EndQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("PathEnd(%d)", uint8(e))
}

// PathStat records one simulated path segment for Table 4 style reporting.
type PathStat struct {
	ID     int
	Cycles uint64
	HaltPC uint64
	End    PathEnd
}

// Result is the outcome of a co-analysis: the gate dichotomy plus the
// path/cycle accounting of paper Table 4.
type Result struct {
	Design *netlist.Netlist

	// Complete reports whether the exploration ran to exhaustion. When
	// false, a budget tripped, the context was canceled or a path was
	// quarantined, and Degradation describes how the dichotomy was kept
	// sound (over-approximate, never unsoundly pruned).
	Complete bool
	// Degradation is nil on a complete run.
	Degradation *Degradation

	// ToggledNets marks every net that toggled in some path or was unknown
	// at the end of one (absorb has the rule).
	ToggledNets []bool
	// ConstNets holds, for untoggled nets, the constant value observed
	// throughout the whole analysis (indexed by net).
	ConstNets []logic.Value
	// ExercisableGates marks gates driving a toggled net.
	ExercisableGates []bool
	// ExercisableCount is the paper's "exercisable gate count" metric.
	ExercisableCount int
	// TotalGates is the design's gate count.
	TotalGates int

	// PathsCreated counts worklist entries (the initial path plus up to
	// two per fork), each counted when it is pushed. PathsSkipped counts
	// segments that were simulated to their next halt and found covered
	// there by the CSM (Paths entries ending EndSubsumed). PathsSuperseded
	// counts entries dropped when popped, before any simulation, because a
	// later fork at the same branch PC and direction had pushed a strictly
	// wider start state; they get no path ID and no Paths entry. Every
	// created entry is accounted for:
	//
	//	PathsCreated = len(Paths) - interrupted + PathsSuperseded + pending
	//
	// where interrupted counts Paths entries ending EndInterrupted (their
	// entry went back to the worklist) and pending is
	// Degradation.PendingPaths, 0 on a complete run. PathsPruned counts
	// forked children proven infeasible under the user's application facts
	// and dropped before they were scheduled — they appear in none of the
	// other counters. PathsSuperseded and PathsPruned are in-memory only,
	// like BusyTime: checkpoints do not persist them.
	PathsCreated, PathsSkipped, PathsSuperseded, PathsPruned int
	// SimulatedCycles sums clock cycles over all simulated paths.
	SimulatedCycles uint64
	// Paths lists the per-segment statistics sorted by path ID. Under
	// Workers > 1 the list itself, like the path and cycle counts, varies
	// from run to run; the dichotomy and the tie-offs do not.
	Paths []PathStat
	// Policy names the CSM policy used.
	Policy string
	// CSMStates is the number of conservative states retained.
	CSMStates int
	// BusyTime sums wall-clock simulation time across all path segments —
	// the run's CPU-time attribution (segments run in parallel, so BusyTime
	// exceeds elapsed time at Workers > 1).
	BusyTime time.Duration
}

// ReductionPct returns the percentage of gates proven unexercisable —
// the "% reduction" of paper Table 3 / Figure 5.
func (r *Result) ReductionPct() float64 {
	if r.TotalGates == 0 {
		return 0
	}
	return 100 * float64(r.TotalGates-r.ExercisableCount) / float64(r.TotalGates)
}

// entry is one unprocessed execution path (the stack U of Algorithm 1):
// a saved state plus the control-signal setting selecting which outcome of
// the forked branch this path follows.
type entry struct {
	state    vvp.State
	forced   logic.Value
	hasForce bool
	// parent is the path ID of the segment whose fork created this entry,
	// -1 for the cold-boot path and for entries restored from a checkpoint
	// (the checkpoint format does not persist ancestry). In-memory only:
	// it feeds the trace's fork tree.
	parent int
	// id is the path ID of an earlier admission the entry keeps, valid when
	// readmit is set: a segment put back unsettled (putBack) is the same
	// segment when it is admitted again. In-memory only.
	id      int
	readmit bool
}

// pathOutcome carries what one simulated segment produced: toggled marks
// the nets that changed while it recorded, moved the nets its simulator
// committed otherwise since its profile was last absorbed (nil: every net),
// both one bit per net as vvp.Simulator.Toggled lays them out, and endVals
// is every net's value at its end; absorb reads the three together and
// consumes the first two.
type pathOutcome struct {
	stat       PathStat
	halt       vvp.State
	toggled    []uint64
	moved      []uint64
	endVals    []logic.Value
	err        error
	quarantine *Quarantine
	// evals/sweeps are the engine effort charged to this segment (see the
	// explorer's attribution marks), published as counters once it ends.
	evals  uint64
	sweeps uint64
	// replayed counts the segment's time steps the kernel replayed
	// (vvp.Replay), published in the segment's span.
	replayed uint64
	// pruned counts fork children classify dropped as fact-infeasible,
	// published with the other segment counters and in the segment's span
	// after the lock is released.
	pruned uint64
	// uncounted is the part of stat.Cycles no advance has reported yet:
	// nothing of a local explorer's segment, which flushes as it steps, all
	// of one simulated in another process.
	uncounted uint64
}

// Stimulus builds the testbench stimulus for p: clock, reset sequence and
// the platform's input events.
func (p *Platform) Stimulus() *vvp.Stimulus {
	st := vvp.NewStimulus(p.Design.Inputs[0], p.HalfPeriod)
	// By construction rtl.NewModule makes input 0 the clock and input 1
	// rst_n; assert reset just after t=0 and release mid-low-phase after
	// ResetCycles posedges.
	rstn := p.Design.Inputs[1]
	st.At(1, rstn, logic.Lo)
	st.At(p.resetEndTime(), rstn, logic.Hi)
	for _, e := range p.Inputs {
		st.At(e.Time, e.Net, e.Val)
	}
	st.Finalize()
	return st
}

// resetEndTime returns the first time at which recording should start: the
// application state right after reset deasserts (Algorithm 1 lines 4–5).
func (p *Platform) resetEndTime() uint64 {
	return (uint64(2*p.ResetCycles))*p.HalfPeriod + 1
}

// MonitorNets lists the nets the platform's $monitor_x probe observes.
// They are live sinks even when no gate consumes them, so the lint
// pre-check must not report their driver cones as dead.
func (p *Platform) MonitorNets() []netlist.NetID {
	var nets []netlist.NetID
	for _, id := range p.Monitor.Watch {
		if id != netlist.NoNet {
			nets = append(nets, id)
		}
	}
	for _, id := range []netlist.NetID{p.Monitor.BranchActive, p.Monitor.Cond, p.Monitor.Finish} {
		if id != netlist.NoNet {
			nets = append(nets, id)
		}
	}
	return nets
}

// LintOptions builds the lint configuration matching the platform's
// testbench semantics: clock and reset are concrete (only the remaining
// primary inputs inject Xs) and the monitored control-flow nets count as
// observed sinks.
func (p *Platform) LintOptions() lint.Options {
	opts := lint.Options{KeepAlive: p.MonitorNets()}
	if len(p.Design.Inputs) >= 2 {
		opts.XSources = p.Design.Inputs[2:]
	}
	return opts
}

// preCheck runs the structural lint pass that guards simulator
// construction: error-severity findings abort the analysis with a full
// diagnostic list; warnings are tolerated. The result is the platform's
// cached Lint(), so a caller that shows the warnings reads the same one.
func preCheck(p *Platform) error {
	lr := p.Lint()
	if lr.HasErrors() {
		var sb strings.Builder
		for _, d := range lr.Errors() {
			fmt.Fprintf(&sb, "\n  %s", d)
		}
		return fmt.Errorf("core: design %q failed structural lint with %d errors:%s",
			p.Design.Name, lr.ErrorCount(), sb.String())
	}
	return nil
}

// Analyze runs symbolic hardware/software co-analysis of the application
// preloaded in p against its design (paper Algorithm 1) under a
// background context.
func Analyze(p *Platform, cfg Config) (*Result, error) {
	return AnalyzeContext(context.Background(), p, cfg)
}

// AnalyzeContext is Analyze under a caller-supplied context. Cancellation
// (or an expired deadline) stops the exploration cleanly — explorers drain,
// no goroutines leak — and returns a partial but sound Result with
// Complete=false rather than an error. It is Open, Config.Workers local
// explorers, and Wait.
func AnalyzeContext(ctx context.Context, p *Platform, cfg Config) (*Result, error) {
	r, err := Open(ctx, p, cfg)
	if err != nil {
		return nil, err
	}
	a := r.a
	for w := 0; w < a.cfg.Workers; w++ {
		a.drivers.Add(1)
		go func() {
			defer a.drivers.Done()
			x := explorer{p: p, cfg: &a.cfg, src: a, replays: true}
			if err := x.explore(); err != nil {
				a.fail(err)
			}
		}()
	}
	return r.Wait()
}

// prepare validates p and cfg, fills cfg's defaults and readies the design
// (structural pre-check, freeze) — everything both halves of a run, the
// state (Open) and a driver (Explore), need before they touch the netlist.
func prepare(p *Platform, cfg *Config) error {
	if err := validate(p, cfg); err != nil {
		return err
	}
	if cfg.maxCyclesPerPath == 0 {
		cfg.maxCyclesPerPath = 1 << 20
	}
	if cfg.maxPaths == 0 {
		cfg.maxPaths = 1 << 20
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default
	}
	// An explorer drives as many lanes as its engine has: one for a scalar
	// simulator, all 64 for the batch engine, whose single explorer gets
	// its parallelism from the lanes instead of from goroutines.
	if cfg.Engine != vvp.EngineBatch {
		cfg.lanes = 1
	} else {
		cfg.Workers = 1
		if cfg.lanes == 0 {
			cfg.lanes = vvp.BatchLanes
		}
	}
	// Structural pre-check before Freeze: lint tolerates broken designs
	// and reports every hazard at once, where Freeze stops at the first.
	if !cfg.skipLint {
		if err := preCheck(p); err != nil {
			return err
		}
	}
	return p.Design.Freeze()
}

// analysis is the state of one run of Algorithm 1: the frontier, the CSM,
// the toggle profile, path IDs, budgets, checkpointing and progress.
// Drivers — explorers, here or on another machine — reach it through
// admit and settle only (see source).
type analysis struct {
	p   *Platform
	cfg Config
	res *Result

	start time.Time

	// stop requests draining: explorers retire (or interrupt) the segments
	// in their lanes and exit, nothing more is admitted, and the pending
	// frontier is handled by finish().
	stop atomic.Bool
	// ctx is the caller's context; a cancellation becomes a drain request
	// through the watcher goroutine (govern) and at the next admission,
	// whichever sees it first.
	ctx context.Context
	// liveCycles tracks simulated cycles including partial in-flight
	// segments, for the cycle budget and progress heartbeats.
	liveCycles atomic.Uint64

	// done ends the governance watcher and the heartbeat (aux); drivers
	// counts the local explorers Wait joins.
	done    chan struct{}
	aux     sync.WaitGroup
	drivers sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond
	front    frontier
	inflight map[int]entry
	active   int
	fatal    error
	// exercisable and constSeen are Result.ToggledNets and the nets whose
	// tie-off constant is recorded in Result.ConstNets, net n being bit n&63
	// of word n>>6; finish and checkpoints unpack them. The bits of
	// exercisable past the last net are set, so its complement names nets
	// only.
	exercisable []uint64
	constSeen   []uint64
	nextID      int
	// anchored reports that at least one segment was absorbed. Each carries
	// a full net valuation (possibly of partial progress), so untoggled-net
	// constants are grounded in a real observation.
	anchored bool

	trip        Trip
	quarantined []Quarantine
	forks       int
	lastCkpt    time.Time
	ckptBusy    bool
	ckptErr     error

	// pruner is the policy's pre-fork feasibility test (nil when the
	// policy has none or pruning is disabled). Immutable after
	// Open; FeasibleChild is safe without a.mu but classify happens to
	// hold it anyway.
	pruner csm.Pruner

	// m caches the run's metric handles; never nil after Open.
	m *coreMetrics
	// busy accumulates per-segment wall time (Result.BusyTime).
	busy time.Duration
}

// tripStop records the first trip cause and requests draining.
func (a *analysis) tripStop(t Trip) {
	a.mu.Lock()
	if a.trip == TripNone {
		a.trip = t
		a.recordTrip(t)
	}
	a.mu.Unlock()
	a.stop.Store(true)
	a.cond.Broadcast()
}

// recordTrip publishes the first trip to the metrics and trace. Caller
// holds a.mu.
func (a *analysis) recordTrip(t Trip) {
	a.m.trips.With(t.String()).Inc()
	obs.Emit(a.cfg.Tracer, obs.TripRec{
		T:         obs.RecTrip,
		Trip:      t.String(),
		ElapsedMS: time.Since(a.start).Milliseconds(),
	})
}

// progress assembles one heartbeat snapshot.
func (a *analysis) progress() Progress {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Progress{
		Elapsed:         time.Since(a.start),
		PathsDone:       len(a.res.Paths),
		PathsPending:    a.front.len(),
		PathsInFlight:   a.active,
		SimulatedCycles: a.liveCycles.Load(),
		CSMStates:       a.cfg.Policy.States(),
	}
}

// source is the state of a run as an explorer sees it. *analysis is the
// source of the explorers AnalyzeContext starts; wireSource stands in for
// an analysis in another process (see Explore).
type source interface {
	// admit hands out the next segment. idle says the caller holds no
	// other segment: admit then waits while segments in flight elsewhere
	// may still fork. ok is false when there is nothing to admit.
	admit(idle bool) (id int, e entry, ok bool)
	// settle retires the admitted segment out.stat.ID and reports whether
	// it was still in flight. wall is the time charged to the segment.
	settle(out *pathOutcome, wall time.Duration) bool
	// stopping reports a drain request: lanes are retired as interrupted.
	stopping() bool
	// advance counts cycles the explorer's lanes simulated.
	advance(cycles uint64)
}

// admit pops the next live entry off the frontier and registers it as an
// in-flight segment — the single admission point. It waits only for an
// idle caller, and only while another segment may still fork.
func (a *analysis) admit(idle bool) (id int, e entry, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		id, e, ok = a.admitLocked()
		if ok {
			return id, e, true
		}
		if !idle || a.active == 0 || a.stop.Load() {
			// The pop may have dropped the last, superseded, entries and
			// left the run exhausted, and an explorer that gets nothing
			// here is about to leave: whoever waits — Wait, idle peers —
			// must look again.
			a.cond.Broadcast()
			return 0, entry{}, false
		}
		a.cond.Wait()
	}
}

// admitLocked is admit's pop. Entries a wider sibling supersedes are
// dropped on the way: counted, traced as a leaf of their parent, never
// given an ID or a simulator. An entry that was put back keeps the path ID
// of its first admission; every other gets a fresh one. ok is false when
// the frontier is empty or the run is stopping (pending entries then stay
// put for the drain). Caller holds a.mu.
func (a *analysis) admitLocked() (id int, e entry, ok bool) {
	if !a.stop.Load() && a.ctx != nil && a.ctx.Err() != nil {
		// A driver fast enough to finish the run before the watcher
		// goroutine wakes would otherwise never see the cancellation.
		a.tripStopLocked(TripCanceled)
	}
	if a.stop.Load() {
		return 0, entry{}, false
	}
	for {
		var superseded bool
		e, superseded, ok = a.front.pop()
		if !ok {
			return 0, entry{}, false
		}
		if !superseded || a.cfg.keepSuperseded {
			break
		}
		a.res.PathsSuperseded++
		a.m.paths.With(obs.EndSuperseded).Inc()
		obs.Emit(a.cfg.Tracer, obs.Span{
			T:       obs.RecSpan,
			ID:      -1,
			Parent:  e.parent,
			StartPC: e.state.PC,
			Forced:  forcedLabel(e),
			End:     obs.EndSuperseded,
		})
	}
	if e.readmit {
		id, e.readmit = e.id, false
	} else {
		id = a.nextID
		a.nextID++
	}
	a.active++
	a.inflight[id] = e
	return id, e, true
}

func (a *analysis) stopping() bool { return a.stop.Load() }

// advance moves freshly simulated cycles into the live counter behind
// progress heartbeats and the cycle budget.
func (a *analysis) advance(cycles uint64) {
	if a.overBudget(cycles) {
		a.tripStop(TripCycles)
	}
}

// overBudget counts cycles and reports whether the cycle budget is spent.
func (a *analysis) overBudget(cycles uint64) bool {
	total := a.liveCycles.Add(cycles)
	return a.cfg.Budget.MaxCycles > 0 && total > a.cfg.Budget.MaxCycles
}

// fail records the first fatal error and stops the run.
func (a *analysis) fail(err error) {
	a.mu.Lock()
	a.failLocked(err)
	a.mu.Unlock()
	a.cond.Broadcast()
}

// failLocked is fail for callers already holding a.mu.
func (a *analysis) failLocked(err error) {
	if a.fatal == nil {
		a.fatal = err
	}
	a.stop.Store(true)
}

// settle retires one segment: the locked absorb/classify step, then the
// segment-granularity publication and the periodic checkpoint outside the
// scheduler lock. A fatal outcome (out.err) is recorded and nothing is
// published. It reports false, having done nothing, when the segment is not
// in flight.
func (a *analysis) settle(out *pathOutcome, wall time.Duration) bool {
	a.mu.Lock()
	e, ok := a.inflight[out.stat.ID]
	if !ok {
		a.mu.Unlock()
		return false
	}
	a.active--
	delete(a.inflight, out.stat.ID)
	a.busy += wall
	if out.uncounted != 0 && a.overBudget(out.uncounted) {
		a.tripStopLocked(TripCycles)
	}
	switch {
	case out.quarantine != nil:
		// Crash containment: record the contained path and keep going.
		a.quarantined = append(a.quarantined, *out.quarantine)
		a.res.Paths = append(a.res.Paths, out.stat)
	case out.err != nil:
		a.failLocked(out.err)
	case out.stat.End == EndInterrupted:
		// Partial segment: its observations are sound (they did happen)
		// and its entry goes back to the frontier for the degradation
		// drain or a future resume.
		a.absorb(*out)
		a.front.push(e)
	default:
		a.absorb(*out)
		if out.stat.End == EndForked {
			a.classify(out)
		}
	}
	a.mu.Unlock()
	a.cond.Broadcast()
	if out.err != nil {
		return true
	}

	// classify may have rewritten the provisional EndForked to
	// EndSubsumed, so the span and counters read the settled verdict.
	a.m.paths.With(out.stat.End.String()).Inc()
	a.m.segCycles.Observe(float64(out.stat.Cycles))
	a.m.cycles.Add(out.stat.Cycles)
	a.m.evals.Add(out.evals)
	a.m.sweeps.Add(out.sweeps)
	if out.pruned > 0 {
		a.m.pruned.Add(out.pruned)
	}
	if out.quarantine != nil {
		a.m.quarantines.Inc()
	}
	obs.Emit(a.cfg.Tracer, obs.Span{
		T:       obs.RecSpan,
		ID:      out.stat.ID,
		Parent:  e.parent,
		StartPC: e.state.PC,
		HaltPC:  out.stat.HaltPC,
		Forced:  forcedLabel(e),
		End:     out.stat.End.String(),
		Cycles:  out.stat.Cycles,
		WallUS:  wall.Microseconds(),
		Pruned:  out.pruned,
		Replay:  out.replayed,
	})
	if out.stat.End != EndInterrupted {
		a.maybeCheckpoint()
	}
	return true
}

// forcedLabel renders the branch interpretation an entry follows for the
// trace ("1"/"0"; empty for the cold-boot path).
func forcedLabel(e entry) string {
	if !e.hasForce {
		return ""
	}
	if e.forced == logic.Hi {
		return "1"
	}
	return "0"
}

// classify presents a halted state to the CSM and forks its children
// (Algorithm 1 lines 20–27). Called with a.mu held and returns with it
// held, which keeps the (CSM, worklist, result) triple a consistent cut
// for checkpoints: a halt is either still pending or fully absorbed —
// never observed by the CSM with its children missing from the worklist.
func (a *analysis) classify(out *pathOutcome) {
	// absorb just appended this path.
	idx := len(a.res.Paths) - 1
	d := a.cfg.Policy.Observe(out.halt)
	a.onDecision(out.stat.ID, out.halt, d)
	if d.Subsumed {
		out.stat.End = EndSubsumed
		a.res.Paths[idx].End = EndSubsumed
		a.res.PathsSkipped++
		return
	}
	// Both children start from the CSM's copy: an entry's state is only
	// ever read (restored, compared, encoded), so they share it. A platform
	// that specializes rewrites each child's state, so there they part.
	taken, notTaken := d.Explore, d.Explore
	if a.p.Specialize != nil {
		notTaken = a.p.Specialize(notTaken.Clone(), false)
		taken = a.p.Specialize(taken, true)
	}
	children := []entry{
		{state: taken, forced: logic.Hi, hasForce: true, parent: out.stat.ID},
		{state: notTaken, forced: logic.Lo, hasForce: true, parent: out.stat.ID},
	}
	if a.pruner != nil {
		// Constraint-aware pruning: a child whose specialized start state
		// already contradicts a designer fact can never halt in a state the
		// fact admits, so it is dropped before it is created. Sound because
		// only designer-asserted facts disprove — an all-X child is always
		// feasible.
		kept := children[:0]
		for _, ch := range children {
			if a.pruner.FeasibleChild(ch.state) {
				kept = append(kept, ch)
				continue
			}
			a.res.PathsPruned++
			out.pruned++
		}
		children = kept
	}
	if a.res.PathsCreated+len(children) > a.cfg.maxPaths {
		a.failLocked(fmt.Errorf("core: path budget %d exhausted", a.cfg.maxPaths))
		return
	}
	for _, ch := range children {
		a.front.pushFork(ch)
	}
	a.res.PathsCreated += len(children)
	// The fork happened even if pruning dropped every child: the segment
	// keeps its EndForked verdict and the fork counter advances, so the
	// fork budget sees the same exploration shape with and without pruning.
	a.forks++
	if a.cfg.Budget.MaxForks > 0 && a.forks >= a.cfg.Budget.MaxForks {
		a.tripStopLocked(TripForks)
	}
	if a.cfg.Budget.MaxCSMStates > 0 && a.cfg.Policy.States() > a.cfg.Budget.MaxCSMStates {
		a.tripStopLocked(TripCSMStates)
	}
}

// tripStopLocked is tripStop for callers already holding a.mu.
func (a *analysis) tripStopLocked(t Trip) {
	if a.trip == TripNone {
		a.trip = t
		a.recordTrip(t)
	}
	a.stop.Store(true)
}

// absorb merges one path's toggle profile and untoggled-net constants into
// the global result (Algorithm 1 lines 29–39). A net is exercisable when it
// changed on some path, or is unknown at the end of one: an unknown means
// some input could toggle it, and a net that was X when the path began to
// record either changed since — the profile has it — or still is. So the
// engines start a profile empty and the X rule is applied here, before the
// constants are looked at: an X was never a tie-off value. Caller holds a.mu.
func (a *analysis) absorb(out pathOutcome) {
	a.res.SimulatedCycles += out.stat.Cycles
	a.res.Paths = append(a.res.Paths, out.stat)
	a.anchored = true
	a.absorbProfile(out.toggled, out.moved, out.endVals)
}

// absorbProfile is absorb's word loop over the nets of toggled | moved that
// are not yet exercisable — every net that is not, when moved is nil — and
// it consumes the profile: both bitmaps are zero when it returns. A net
// outside toggled | moved holds the value it had when the same simulator's
// profile was last absorbed, which left the net exercisable or its tie-off
// constant equal to that value, and neither can be undone (DESIGN.md §8
// "The moved set").
//
//symsim:hotpath
func (a *analysis) absorbProfile(toggled, moved []uint64, endVals []logic.Value) {
	exercisable, seen, consts := a.exercisable, a.constSeen, a.res.ConstNets
	for i, t := range toggled {
		look := ^exercisable[i]
		if moved != nil {
			look &= t | moved[i]
			moved[i] = 0
		}
		toggled[i] = 0
		for ; look != 0; look &= look - 1 {
			j := bits.TrailingZeros64(look)
			bit, n := uint64(1)<<j, i<<6|j
			switch v := endVals[n]; {
			case t&bit != 0 || !v.IsKnown():
				exercisable[i] |= bit
			case seen[i]&bit == 0:
				seen[i] |= bit
				consts[n] = v
			case consts[n] != v:
				// The net is constant within each path but differs between
				// paths: no single tie-off value exists, so it counts as
				// exercisable.
				exercisable[i] |= bit
			}
		}
	}
}

// unpackBits writes the first len(dst) bits of b into dst.
func unpackBits(dst []bool, b []uint64) []bool {
	for n := range dst {
		dst[n] = b[n>>6]>>(n&63)&1 != 0
	}
	return dst
}

// packBits ORs the marks of src into b.
func packBits(b []uint64, src []bool) {
	for n, v := range src {
		if v {
			b[n>>6] |= 1 << (n & 63)
		}
	}
}

// finish turns the raw exploration outcome into the final Result: the
// degradation drain for incomplete runs, the exercisable-gate dichotomy,
// and deterministic ordering of the per-path statistics. Caller holds a.mu.
func (a *analysis) finish() {
	unpackBits(a.res.ToggledNets, a.exercisable)
	pending := a.front.len()
	if pending > 0 || len(a.quarantined) > 0 {
		a.res.Complete = false
		deg := &Degradation{Trip: a.trip, PendingPaths: pending, Quarantined: a.quarantined}

		// Write the final checkpoint before force-merging, so a resumed
		// run continues the exact frontier this run abandoned rather
		// than the over-approximated superstates.
		if a.cfg.Checkpoint != nil {
			if err := a.snapshotLocked().WriteFile(a.cfg.Checkpoint.Path); err != nil && a.ckptErr == nil {
				a.ckptErr = err
			}
		}

		// Drain the frontier: merge every pending state into the CSM
		// conservative superstate for its PC, so the stored states keep
		// covering the unexplored behaviours. The drain's decisions are
		// logged against path -1 (no segment simulated them).
		for _, e := range a.front.stack {
			if e.state.Bits.Width() > 0 && e.state.PCKnown {
				a.onDecision(-1, e.state, a.cfg.Policy.Observe(e.state))
				deg.ForcedMerges++
			}
		}

		// Soundness: everything the unexplored paths could have toggled
		// must be reported exercisable. With at least one anchoring
		// observation the dynamic cone is the right over-approximation
		// (nets outside it are constant-driven and settle to the same
		// values in every execution); with none there is no observation
		// to anchor tie-off constants and the whole design must be
		// assumed exercisable.
		observed := append([]bool(nil), a.res.ToggledNets...)
		if !a.anchored {
			for n := range a.res.ToggledNets {
				if !a.res.ToggledNets[n] {
					a.res.ToggledNets[n] = true
					deg.ConeNets++
				}
			}
		} else {
			cone := dynamicCone(a.p.Design)
			for n, in := range cone {
				if in && !a.res.ToggledNets[n] {
					a.res.ToggledNets[n] = true
					deg.ConeNets++
				}
			}
		}
		// ConeGates: gates whose exercisable verdict exists only through
		// the conservative marking, not an observed toggle.
		for gi := range a.p.Design.Gates {
			out := a.p.Design.Gates[gi].Out
			if a.res.ToggledNets[out] && !observed[out] {
				deg.ConeGates++
			}
		}
		a.res.Degradation = deg
	} else {
		a.res.Complete = true
	}

	slices.SortFunc(a.res.Paths, func(p, q PathStat) int { return cmp.Compare(p.ID, q.ID) })

	a.res.ExercisableGates = make([]bool, len(a.p.Design.Gates))
	for gi := range a.p.Design.Gates {
		if a.res.ToggledNets[a.p.Design.Gates[gi].Out] {
			a.res.ExercisableGates[gi] = true
			a.res.ExercisableCount++
		}
	}
	a.res.CSMStates = a.cfg.Policy.States()
	a.res.BusyTime = a.busy

	if a.res.Complete {
		a.m.runsComplete.Inc()
	}
	obs.Emit(a.cfg.Tracer, obs.Done{
		T:               obs.RecDone,
		Complete:        a.res.Complete,
		PathsCreated:    a.res.PathsCreated,
		PathsSkipped:    a.res.PathsSkipped,
		PathsSuperseded: a.res.PathsSuperseded,
		Cycles:          a.res.SimulatedCycles,
		Exercisable:     a.res.ExercisableCount,
		TotalGates:      a.res.TotalGates,
		CSMStates:       a.res.CSMStates,
		ElapsedMS:       time.Since(a.start).Milliseconds(),
	})
	// Flush so the trace is complete on disk before Analyze returns; a
	// write error stays retained in the tracer (obs.Tracer.Err) for the
	// caller that owns the file handle.
	_ = a.cfg.Tracer.Flush()
}

// maybeCheckpoint writes a periodic checkpoint when one is due. The
// snapshot is taken under the scheduler lock (a consistent cut); the file
// write happens outside it so explorers keep simulating, with ckptBusy
// serializing concurrent writers.
func (a *analysis) maybeCheckpoint() {
	c := a.cfg.Checkpoint
	if c == nil {
		return
	}
	a.mu.Lock()
	if a.ckptBusy || a.stop.Load() || (c.Interval > 0 && time.Since(a.lastCkpt) < c.Interval) {
		a.mu.Unlock()
		return
	}
	a.ckptBusy = true
	snap := a.snapshotLocked()
	a.mu.Unlock()

	err := snap.WriteFile(c.Path)

	a.mu.Lock()
	a.ckptBusy = false
	a.lastCkpt = time.Now()
	if err != nil && a.ckptErr == nil {
		// A run that cannot write its checkpoint has lost its crash
		// insurance; fail fast instead of discovering it at resume time.
		a.ckptErr = err
		a.stop.Store(true)
	}
	a.mu.Unlock()
	a.cond.Broadcast()
}

// snapshotLocked builds a checkpoint from the current cut. Caller holds
// a.mu. In-flight segments are appended after the stack so a resumed run
// pops them first, mirroring the order the live run would have continued.
func (a *analysis) snapshotLocked() *Checkpoint {
	c := &Checkpoint{
		Design:          a.p.Design.Name,
		Nets:            len(a.p.Design.Nets),
		StateBits:       a.p.Spec.Bits(),
		DesignHash:      a.p.Design.Hash(),
		Policy:          a.cfg.Policy.Name(),
		CSM:             a.cfg.Policy.Export(),
		Toggled:         unpackBits(make([]bool, len(a.res.ToggledNets)), a.exercisable),
		ConstSeen:       unpackBits(make([]bool, len(a.res.ToggledNets)), a.constSeen),
		ConstVals:       append([]logic.Value(nil), a.res.ConstNets...),
		PathsCreated:    a.res.PathsCreated,
		PathsSkipped:    a.res.PathsSkipped,
		SimulatedCycles: a.res.SimulatedCycles,
		NextID:          a.nextID,
		Paths:           append([]PathStat(nil), a.res.Paths...),
		Quarantined:     append([]Quarantine(nil), a.quarantined...),
	}
	for _, e := range a.front.stack {
		c.Pending = append(c.Pending, PendingPath{State: e.state.Clone(), Forced: e.forced, HasForce: e.hasForce})
	}
	for _, id := range a.inflightIDs() {
		e := a.inflight[id]
		c.Pending = append(c.Pending, PendingPath{State: e.state.Clone(), Forced: e.forced, HasForce: e.hasForce})
	}
	return c
}

// inflightIDs lists the segments in flight in ascending path ID, the order
// a checkpoint and the final put-back keep them in. Caller holds a.mu.
func (a *analysis) inflightIDs() []int {
	ids := make([]int, 0, len(a.inflight))
	for id := range a.inflight {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// loadResume seeds the analysis from a checkpoint.
func (a *analysis) loadResume(c *Checkpoint) error {
	if err := c.validateFor(a.p, a.cfg.Policy); err != nil {
		return err
	}
	if err := a.cfg.Policy.Import(c.CSM); err != nil {
		return err
	}
	packBits(a.exercisable, c.Toggled)
	packBits(a.constSeen, c.ConstSeen)
	copy(a.res.ConstNets, c.ConstVals)
	for n := range c.Toggled {
		if c.Toggled[n] || c.ConstSeen[n] {
			a.anchored = true
			break
		}
	}
	a.res.PathsCreated = c.PathsCreated
	a.res.PathsSkipped = c.PathsSkipped
	a.res.SimulatedCycles = c.SimulatedCycles
	a.liveCycles.Store(c.SimulatedCycles)
	a.nextID = c.NextID
	a.res.Paths = append(a.res.Paths, c.Paths...)
	a.quarantined = append(a.quarantined, c.Quarantined...)
	for _, p := range c.Pending {
		// Checkpoints do not persist fork ancestry; restored entries are
		// trace-tree roots. Pushing them as forks rebuilds the supersession
		// index from Pending order alone (see frontier.pop on strictness).
		a.front.pushFork(entry{state: p.State.Clone(), forced: p.Forced, hasForce: p.HasForce, parent: -1})
	}
	return nil
}

// TieOffs derives the bespoke tie-off list from a result: one constant per
// unexercisable gate (paper §3: "fanout values of pruned gates are set to
// the constant value seen during the symbolic simulation").
//
// The list is one slice of exactly its final length; it is nil when every
// gate is exercisable.
func (r *Result) TieOffs() []netlist.TieOff {
	n := len(r.Design.Gates) - r.ExercisableCount
	if n == 0 {
		return nil
	}
	ties := make([]netlist.TieOff, 0, n)
	for gi := range r.Design.Gates {
		if !r.ExercisableGates[gi] {
			ties = append(ties, netlist.TieOff{
				Gate:  netlist.GateID(gi),
				Value: r.ConstNets[r.Design.Gates[gi].Out],
			})
		}
	}
	return ties
}
