package core

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime/debug"
	"time"

	"symsim/internal/logic"
	"symsim/internal/netlist"
	"symsim/internal/obs"
	"symsim/internal/vvp"
)

// The explorer: the one driver of Algorithm 1. Every engine runs the same
// loop — admit entries into free lanes, step all occupied lanes until one
// retires, retire through settle — over a lane engine (DESIGN.md §13). The
// scalar engines are the one-lane case: each explorer pops, simulates and
// settles a single entry per round, which is the paper's LIFO order. The
// batch engine packs up to Config.Lanes entries into one simulator and a
// diverging lane costs one slot, not the whole batch.

// laneEngine is what the explorer needs from a simulator: restore a saved
// state into a lane, advance every occupied lane one time step, and read a
// lane back out. *vvp.BatchSim satisfies it as is; scalarLane adapts
// *vvp.Simulator as an engine with one lane.
type laneEngine interface {
	RestoreLane(sp *vvp.StateSpec, st vvp.State, lane int) error
	NowLane(lane int) uint64
	ForceLane(id netlist.NetID, v logic.Value, lane int, release uint64)
	StartRecordingLane(lane int)
	// StepAll advances all occupied lanes and reports the lanes whose
	// design finished and the lanes that halted on an X branch.
	StepAll() (finished, halted uint64, err error)
	// CyclesLane counts clock cycles since the lane was last restored.
	CyclesLane(lane int) uint64
	// ToggledLane, LaneNetValues and SnapshotLane return the lane's toggle
	// profile — the nets that changed since StartRecordingLane, which starts
	// it empty; a net that is X throughout is in the valuation, not here —
	// net valuation and machine state. dst is storage the engine
	// may use or ignore; the result is only valid until the engine next
	// steps or restores, or the same call is made again.
	ToggledLane(lane int, dst []bool) []bool
	LaneNetValues(lane int, dst []logic.Value) []logic.Value
	SnapshotLane(sp *vvp.StateSpec, lane int, dst vvp.State) vvp.State
	RetireLane(lane int)
	Evals() uint64
	Sweeps() uint64
}

// scalarLane is a scalar simulator seen as a one-lane engine. Restore
// overrides the entire processor and simulator state (the paper's
// $initialize_state), so one simulator serves every segment an explorer
// runs; the lane argument is always 0.
type scalarLane struct {
	sim  *vvp.Simulator
	base uint64 // sim.Cycles() when the current segment started
}

func (s *scalarLane) RestoreLane(sp *vvp.StateSpec, st vvp.State, _ int) error {
	err := s.sim.Restore(sp, st)
	s.base = s.sim.Cycles()
	return err
}

func (s *scalarLane) NowLane(int) uint64 { return s.sim.Now() }

func (s *scalarLane) ForceLane(id netlist.NetID, v logic.Value, _ int, release uint64) {
	s.sim.Force(id, v, release)
}

func (s *scalarLane) StartRecordingLane(int) { s.sim.StartRecording() }

func (s *scalarLane) StepAll() (finished, halted uint64, err error) {
	st, err := s.sim.Step()
	switch st {
	case vvp.Finished:
		finished = 1
	case vvp.HaltX:
		halted = 1
	}
	return finished, halted, err
}

func (s *scalarLane) CyclesLane(int) uint64 { return s.sim.Cycles() - s.base }

func (s *scalarLane) ToggledLane(int, []bool) []bool { return s.sim.Toggled() }

func (s *scalarLane) LaneNetValues(int, []logic.Value) []logic.Value { return s.sim.Values() }

func (s *scalarLane) SnapshotLane(sp *vvp.StateSpec, _ int, dst vvp.State) vvp.State {
	return s.sim.SnapshotInto(sp, dst)
}

func (s *scalarLane) RetireLane(int) {}
func (s *scalarLane) Evals() uint64  { return s.sim.Evals() }
func (s *scalarLane) Sweeps() uint64 { return s.sim.Sweeps() }

// newSimulator builds a scalar simulator bound to the platform's testbench.
// Under EngineBatch it is the compiled kernel: the batch data layout lives
// only in BatchSim.
func (x *explorer) newSimulator(trace *vvp.Trace) *vvp.Simulator {
	opts := vvp.Options{MemX: x.cfg.MemX, Engine: x.cfg.Engine, Trace: trace}
	if opts.Engine == vvp.EngineBatch {
		opts.Engine = vvp.EngineKernel
	}
	sim := vvp.New(x.p.Design, opts)
	sim.SetMonitorX(&x.p.Monitor)
	sim.BindStimulus(x.p.Stimulus())
	return sim
}

// coldBoot simulates the reset sequence on a fresh scalar simulator and
// returns it standing at the application's initial state (Algorithm 1
// lines 4–5). Every engine boots this way: reset is a one-off, and the
// scalar simulator is the one that can record Config.Trace. A scalar run
// keeps the simulator for every later segment (see explorer.cold).
func (x *explorer) coldBoot() (*vvp.Simulator, error) {
	sim := x.newSimulator(x.cfg.Trace)
	for resetEnd := x.p.resetEndTime(); sim.Now() <= resetEnd; {
		if _, err := sim.Step(); err != nil {
			return nil, err
		}
	}
	return sim, nil
}

// segment is one admitted path segment, from admission to settle.
type segment struct {
	id      int
	e       entry
	flushed uint64 // cycles already passed to the source's advance
}

// explorer is one driver of Algorithm 1: the platform and the engine half
// of the configuration, the source it admits from and settles to, and the
// lanes in between.
type explorer struct {
	p   *Platform
	cfg *Config
	src source
	// laneOcc is symsim_vvp_lane_occupancy in the driver's registry.
	laneOcc *obs.Histogram
	// eng is built on first use and dropped when a panic escapes it.
	eng laneEngine
	// cold marks eng as a cold-boot simulator that cannot serve the rest of
	// the run — it would keep writing Config.Trace, or the run's engine is
	// the batch one — so it is dropped after its one segment.
	cold bool
	// occupied marks the lanes holding an admitted segment; lane[l] is
	// meaningful for those.
	occupied uint64
	lane     []segment
	// toggled, endVals and halt are the scratch every outcome's profile and
	// halt state are read into: the source's settle absorbs, copies or
	// encodes them and retains none. A scalar engine hands out its own
	// toggle and value storage instead and leaves the first two nil.
	toggled []bool
	endVals []logic.Value
	halt    vvp.State
	// Attribution marks. Lanes share each engine pass, so a settled
	// segment is charged the engine effort and wall time since this
	// explorer's previous settlement; the sums over a run are exact.
	evals, sweeps uint64
	mark          time.Time
}

// explore is the body of every driver (Algorithm 1 lines 11–27): admit →
// step → retire until the source has nothing left to admit, asks to stop,
// or a fatal error ends the run. A fatal error is returned with the
// occupied lanes unsettled: the run yields the error and no result.
func (x *explorer) explore() error {
	x.lane = make([]segment, x.cfg.Lanes)
	for {
		fresh, ok := x.admit()
		if !ok {
			return nil
		}
		if fresh == x.occupied {
			// The lanes were empty: the wait for work is nobody's segment.
			x.mark = time.Now()
		}
		var fin, hal uint64
		var err error
		if !x.contain(func() {
			if err = x.restore(fresh); err == nil {
				fin, hal, err = x.step()
			}
		}) {
			continue
		}
		if err != nil {
			return err
		}
		if fin|hal == 0 {
			// Stop requested: every lane goes back to the frontier with
			// its partial progress absorbed.
			x.retire(x.occupied, 0, 0)
			return nil
		}
		x.retire(fin|hal, fin, hal)
	}
}

// admit fills the free lanes from the source and returns the lanes it
// filled. Only an explorer holding nothing lets the source wait for work.
// ok is false when the explorer is done: its lanes are empty and nothing
// is left (or allowed) to fill them.
func (x *explorer) admit() (fresh uint64, ok bool) {
	for bits.OnesCount64(x.occupied) < x.cfg.Lanes {
		id, e, got := x.src.admit(x.occupied == 0)
		if !got {
			break
		}
		l := bits.TrailingZeros64(^x.occupied)
		x.lane[l] = segment{id: id, e: e}
		x.occupied |= 1 << uint(l)
		fresh |= 1 << uint(l)
	}
	return fresh, x.occupied != 0
}

// restore loads each newly admitted entry into its lane: saved state,
// branch force, toggle recording from the segment's first cycle.
func (x *explorer) restore(fresh uint64) error {
	for m := fresh; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		s := &x.lane[l]
		if s.e.state.Bits.Width() == 0 {
			// Initial path. The cold-boot entry exists only while nothing
			// else does, so it never shares an engine.
			if x.occupied != fresh || fresh&(fresh-1) != 0 {
				return errors.New("core: cold-boot entry admitted beside other paths")
			}
			sim, err := x.coldBoot()
			if err != nil {
				return x.pathErr(l, err)
			}
			x.setEngine(&scalarLane{sim: sim, base: sim.Cycles()},
				x.cfg.Trace != nil || x.cfg.Engine == vvp.EngineBatch)
		} else {
			if x.eng == nil {
				if x.cfg.Engine == vvp.EngineBatch {
					b := vvp.NewBatchSim(x.p.Design, vvp.BatchOptions{MemX: x.cfg.MemX, Lanes: x.cfg.Lanes})
					b.SetMonitorX(&x.p.Monitor)
					b.BindStimulus(x.p.Stimulus())
					x.setEngine(b, false)
				} else {
					x.setEngine(&scalarLane{sim: x.newSimulator(nil)}, false)
				}
			}
			if err := x.eng.RestoreLane(x.p.Spec, s.e.state, l); err != nil {
				return x.pathErr(l, err)
			}
			if s.e.hasForce {
				// Continue down one execution path: force the resolved
				// branch condition across the capturing clock edge
				// (paper §3 step 3, "set control signals").
				release := x.eng.NowLane(l) + 3*x.p.HalfPeriod
				x.eng.ForceLane(x.p.Monitor.Cond, s.e.forced, l, release)
			}
		}
		x.eng.StartRecordingLane(l)
	}
	if x.cfg.Lanes > 1 && !x.cold && fresh != 0 {
		x.laneOcc.Observe(float64(bits.OnesCount64(x.occupied)))
	}
	return nil
}

// setEngine installs eng and rebases the effort marks on its counters.
func (x *explorer) setEngine(eng laneEngine, cold bool) {
	x.eng, x.cold = eng, cold
	x.evals, x.sweeps = eng.Evals(), eng.Sweeps()
}

// step advances every occupied lane until at least one finishes or halts,
// the run is asked to stop (both masks zero, nil error), or an error ends
// the run. It is the only place a path segment is simulated, and so the
// only place the per-path cycle limit and the cycle budget are enforced:
// live cycles are flushed every 128 steps, so one long segment cannot
// overshoot Budget.MaxCycles unchecked.
func (x *explorer) step() (fin, hal uint64, err error) {
	for n := 0; !x.src.stopping(); n++ {
		if fin, hal, err = x.eng.StepAll(); err != nil {
			if x.occupied&(x.occupied-1) == 0 {
				// One lane: the engine's error is that path's.
				err = x.pathErr(bits.TrailingZeros64(x.occupied), err)
			}
			break
		}
		if fin|hal != 0 {
			break
		}
		for m := x.occupied; m != 0 && err == nil; m &= m - 1 {
			if l := bits.TrailingZeros64(m); x.eng.CyclesLane(l) >= x.cfg.maxCyclesPerPath {
				err = x.pathErr(l, fmt.Errorf("vvp: cycle limit %d reached at t=%d", x.cfg.maxCyclesPerPath, x.eng.NowLane(l)))
			}
		}
		if err != nil {
			break
		}
		if n&127 == 0 {
			x.flush()
		}
	}
	x.flush()
	return fin, hal, err
}

// pathErr attributes an error to the path in lane l.
func (x *explorer) pathErr(l int, err error) error {
	return fmt.Errorf("core: path %d: %w", x.lane[l].id, err)
}

// flush reports the cycles the lanes simulated since the last flush to the
// source: they feed progress heartbeats, the cycle budget and lease
// liveness.
func (x *explorer) flush() {
	var delta uint64
	for m := x.occupied; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		c := x.eng.CyclesLane(l)
		delta += c - x.lane[l].flushed
		x.lane[l].flushed = c
	}
	if delta != 0 {
		x.src.advance(delta)
	}
}

// retire settles the lanes in m in ascending order: finished where fin has
// the lane's bit, halted at an X branch where hal has it, interrupted
// otherwise.
func (x *explorer) retire(m, fin, hal uint64) {
	for ; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		bit := uint64(1) << uint(l)
		var out pathOutcome
		if !x.contain(func() { out = x.outcome(l, fin&bit != 0, hal&bit != 0) }) {
			return // the panic quarantined this lane and every one after it
		}
		x.settle(l, &out)
	}
	if x.cold && x.occupied == 0 {
		x.eng, x.cold = nil, false
	}
}

// outcome reads lane l out of the engine (Algorithm 1 lines 17–19).
func (x *explorer) outcome(l int, fin, hal bool) pathOutcome {
	x.toggled = x.eng.ToggledLane(l, x.toggled)
	x.endVals = x.eng.LaneNetValues(l, x.endVals)
	out := pathOutcome{
		stat:    PathStat{ID: x.lane[l].id, Cycles: x.eng.CyclesLane(l)},
		toggled: x.toggled,
		endVals: x.endVals,
	}
	switch {
	case fin:
		out.stat.End = EndFinished
	case hal:
		x.halt = x.eng.SnapshotLane(x.p.Spec, l, x.halt)
		st := x.halt
		if !st.PCKnown {
			out.err = errors.New("core: program counter contained X at halt; cannot index conservative states")
			break
		}
		out.stat.HaltPC = st.PC
		if x.cfg.OnHalt != nil {
			// The hook may keep what it is handed; the scratch is reused.
			x.cfg.OnHalt(out.stat.ID, st.Clone())
		}
		// The CSM classifies the halt under the scheduler lock (see
		// classify); EndForked here is provisional.
		out.stat.End = EndForked
		out.halt = st
	default:
		out.stat.End = EndInterrupted
	}
	return out
}

// settle frees lane l and hands its outcome to the source, charged with
// the effort and wall time since the explorer's previous settlement. A
// quarantined lane has no engine left to free or to read effort from.
func (x *explorer) settle(l int, out *pathOutcome) {
	x.occupied &^= 1 << uint(l)
	if x.eng != nil {
		x.eng.RetireLane(l)
		e, sw := x.eng.Evals(), x.eng.Sweeps()
		out.evals, out.sweeps = e-x.evals, sw-x.sweeps
		x.evals, x.sweeps = e, sw
	}
	now := time.Now()
	wall := now.Sub(x.mark)
	x.mark = now
	x.src.settle(out, wall)
}

// contain runs f — any part of a segment between admission and settle: the
// engine, the OnHalt hook — and contains a panic in it instead of taking
// the analysis down. The lanes of an engine share its state, so none of
// them can be trusted once it panics: every occupied lane is recorded as a
// Quarantine (the one lane of a scalar engine, all of a batch engine's)
// and the engine is dropped; the next admission builds a fresh one. ok
// reports that f returned normally.
func (x *explorer) contain(f func()) (ok bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		x.eng, x.cold = nil, false
		panicked, stack := fmt.Sprint(r), string(debug.Stack())
		for x.occupied != 0 {
			l := bits.TrailingZeros64(x.occupied)
			s := &x.lane[l]
			x.settle(l, &pathOutcome{
				stat: PathStat{ID: s.id, HaltPC: s.e.state.PC, End: EndQuarantined},
				quarantine: &Quarantine{
					PathID: s.id,
					PC:     s.e.state.PC,
					Time:   s.e.state.Time,
					Panic:  panicked,
					Stack:  stack,
				},
			})
		}
	}()
	f()
	return true
}
