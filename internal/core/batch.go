package core

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime/debug"
	"time"

	"symsim/internal/logic"
	"symsim/internal/vvp"
)

// The batch-engine lane scheduler. Where the scalar worker pool runs one
// path segment per goroutine, batchWorker is a single goroutine that packs
// up to Config.Lanes pending paths into the 64-lane bit-parallel simulator
// and sweeps them together:
//
//	admit:  pop ready frontier entries into free lanes (RestoreLane +
//	        per-lane branch force + toggle recording)
//	step:   StepAll advances every occupied lane to its own next event
//	retire: lanes that finish or halt are scattered back into per-path
//	        outcomes (snapshot, CSM classify, fork) and their slots freed
//	        for the next admission round — lane divergence costs one slot,
//	        not the whole batch
//
// The cold-boot path (no saved state) still runs on a scalar simulator:
// reset simulation is a one-off and the batch engine deliberately has no
// trace support.
//
// Shared-effort attribution: the engine's sweep/eval counters tick once per
// pass over all lanes, so per-segment deltas cannot be split exactly; each
// settled segment is attributed the effort (and scheduler wall time)
// accumulated since the previous settlement. Run totals are exact — which
// is what the obs counters and Result.BusyTime publish; BusyTime reflects
// the scheduler goroutine's occupancy, not lanes x time.

// laneSeg is the bookkeeping for one occupied lane.
type laneSeg struct {
	id int
	e  entry
}

func (a *analysis) batchWorker() {
	var b *vvp.BatchSim
	var seg [vvp.BatchLanes]laneSeg
	var occupied uint64
	var flushedCycles [vvp.BatchLanes]uint64
	var coldCached *vvp.Simulator
	laneCap := a.cfg.Lanes

	// Effort/wall attribution marks (see the package comment above).
	var lastEvals, lastSweeps uint64
	lastWall := time.Now()
	takeEffort := func() (evals, sweeps uint64, wall time.Duration) {
		now := time.Now()
		wall = now.Sub(lastWall)
		lastWall = now
		if b != nil {
			e, s := b.Evals(), b.Sweeps()
			evals, sweeps = e-lastEvals, s-lastSweeps
			lastEvals, lastSweeps = e, s
		}
		return evals, sweeps, wall
	}

	// laneOutcome scatters one lane's observable state into a pathOutcome
	// (the batch counterpart of simulatePath's post-segment copy-out). The
	// two net-sized slices are this goroutine's scratch, reused by every
	// lane: settle only reads them under a.mu (absorb) and retains neither.
	var toggled []bool
	var endVals []logic.Value
	laneOutcome := func(l int) pathOutcome {
		toggled = b.ToggledLane(l, toggled)
		endVals = b.LaneNetValues(l, endVals)
		return pathOutcome{
			stat:    PathStat{ID: seg[l].id, Cycles: b.CyclesLane(l)},
			toggled: toggled,
			endVals: endVals,
		}
	}

	retire := func(l int) {
		b.RetireLane(l)
		occupied &^= uint64(1) << uint(l)
	}

	// interruptAll drains every occupied lane back to the frontier with its
	// partial progress absorbed — the batch counterpart of the scalar
	// worker's interrupted-segment path. Also used on a fatal error, where
	// the result is discarded anyway.
	interruptAll := func() {
		for occupied != 0 {
			l := bits.TrailingZeros64(occupied)
			out := laneOutcome(l)
			out.interrupted = true
			out.stat.End = EndInterrupted
			e := seg[l].e
			retire(l)
			var wall time.Duration
			out.evals, out.sweeps, wall = takeEffort()
			a.settle(&out, e, wall)
		}
	}

	// quarantineLane contains a panic for one segment that never reached a
	// healthy lane (admission failed mid-restore).
	quarantineLane := func(id int, e entry, r interface{}, stack string) {
		out := pathOutcome{
			stat: PathStat{ID: id, HaltPC: e.state.PC, End: EndQuarantined},
			quarantine: &Quarantine{
				PathID: id,
				PC:     e.state.PC,
				Time:   e.state.Time,
				Panic:  fmt.Sprint(r),
				Stack:  stack,
			},
		}
		_, _, wall := takeEffort()
		a.settle(&out, e, wall)
	}

	// quarantineAll contains a panic that escaped the engine: every
	// occupied lane is recorded quarantined (the lanes shared the dying
	// simulator, so none of them can be trusted) and the simulator is
	// discarded and rebuilt on the next admission.
	quarantineAll := func(r interface{}, stack string) {
		for occupied != 0 {
			l := bits.TrailingZeros64(occupied)
			id, e := seg[l].id, seg[l].e
			occupied &^= uint64(1) << uint(l)
			quarantineLane(id, e, r, stack)
		}
		b = nil
		lastEvals, lastSweeps = 0, 0
	}

	flushCycles := func() {
		var delta uint64
		for m := occupied; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if c := b.CyclesLane(l); c > flushedCycles[l] {
				delta += c - flushedCycles[l]
				flushedCycles[l] = c
			}
		}
		if delta > 0 {
			total := a.liveCycles.Add(delta)
			if a.cfg.Budget.MaxCycles > 0 && total > a.cfg.Budget.MaxCycles {
				a.tripStop(TripCycles)
			}
		}
	}

	for {
		// --- Admission: fill free lanes from the frontier. ---
		a.mu.Lock()
		if a.fatal != nil || a.stop.Load() {
			a.mu.Unlock()
			interruptAll()
			a.cond.Broadcast()
			return
		}
		if a.front.len() == 0 && occupied == 0 {
			// Single scheduler goroutine: nothing pending, nothing running,
			// and only this goroutine could add work — exploration is done.
			a.mu.Unlock()
			a.cond.Broadcast()
			return
		}
		var admitLanes []int
		var cold []laneSeg
		free := ^occupied
		for bits.OnesCount64(occupied)+len(admitLanes) < laneCap {
			id, e, ok := a.admit()
			if !ok {
				break
			}
			if e.state.Bits.Width() == 0 {
				cold = append(cold, laneSeg{id: id, e: e})
				continue
			}
			l := bits.TrailingZeros64(free)
			free &^= uint64(1) << uint(l)
			seg[l] = laneSeg{id: id, e: e}
			admitLanes = append(admitLanes, l)
		}
		a.mu.Unlock()

		// Cold-boot entries run on the scalar engine outside the lane
		// machinery (reset simulation is one-off and traceable there).
		for _, c := range cold {
			segStart := time.Now()
			out := a.simulatePath(c.id, c.e, &coldCached)
			lastWall = time.Now() // cold wall is attributed here, not to lanes
			a.settle(&out, c.e, time.Since(segStart))
			a.maybeCheckpoint(false)
		}

		if len(admitLanes) > 0 {
			if b == nil {
				b = vvp.NewBatchSim(a.p.Design, vvp.BatchOptions{MemX: a.cfg.MemX, Lanes: laneCap})
				b.SetMonitorX(&a.p.Monitor)
				b.BindStimulus(a.p.Stimulus())
				lastEvals, lastSweeps = b.Evals(), b.Sweeps()
			}
			// Admit lane by lane under crash containment: a panic inside
			// RestoreLane poisons the shared simulator, so the current
			// segment and every already-occupied lane are quarantined and
			// the remaining admissions are retried on a fresh simulator by
			// falling back to the frontier.
			next := 0
			failed := func() bool {
				defer func() {
					if r := recover(); r != nil {
						stack := string(debug.Stack())
						l := admitLanes[next]
						quarantineLane(seg[l].id, seg[l].e, r, stack)
						quarantineAll(r, stack)
						for _, ml := range admitLanes[next+1:] {
							// Unadmitted survivors go back to the frontier.
							a.mu.Lock()
							a.active--
							delete(a.inflight, seg[ml].id)
							a.front.push(seg[ml].e)
							a.mu.Unlock()
						}
					}
				}()
				for ; next < len(admitLanes); next++ {
					l := admitLanes[next]
					if rerr := b.RestoreLane(a.p.Spec, seg[l].e.state, l); rerr != nil {
						out := pathOutcome{stat: PathStat{ID: seg[l].id}}
						out.err = fmt.Errorf("core: path %d: %w", seg[l].id, rerr)
						_, _, wall := takeEffort()
						a.settle(&out, seg[l].e, wall)
						return true
					}
					occupied |= uint64(1) << uint(l)
					flushedCycles[l] = 0
					if seg[l].e.hasForce {
						release := b.NowLane(l) + 3*a.p.HalfPeriod
						b.ForceLane(a.p.Monitor.Cond, seg[l].e.forced, l, release)
					}
					b.StartRecordingLane(l)
				}
				return false
			}()
			if failed {
				continue // fatal set; the top of the loop drains
			}
			if occupied != 0 {
				a.m.laneOcc.Observe(float64(bits.OnesCount64(occupied)))
			}
		}
		if occupied == 0 {
			continue
		}

		// --- Stepping: sweep all lanes until some retire or we must stop.
		var fin, hal uint64
		var stepErr error
		panicked := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					panicked = true
					quarantineAll(r, string(debug.Stack()))
				}
			}()
			for iter := 0; ; iter++ {
				if a.stop.Load() {
					return
				}
				fin, hal, stepErr = b.StepAll()
				if stepErr != nil || fin|hal != 0 {
					return
				}
				for m := occupied; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					if b.CyclesLane(l) >= a.cfg.MaxCyclesPerPath {
						stepErr = fmt.Errorf("core: path %d: vvp: cycle limit %d reached at t=%d",
							seg[l].id, a.cfg.MaxCyclesPerPath, b.NowLane(l))
						return
					}
				}
				if iter&127 == 0 {
					flushCycles()
					if a.stop.Load() {
						return
					}
				}
			}
		}()
		if panicked {
			continue
		}
		flushCycles()
		if stepErr != nil {
			a.mu.Lock()
			if a.fatal == nil {
				a.fatal = stepErr
			}
			a.mu.Unlock()
			continue // the top of the loop drains the surviving lanes
		}
		if fin|hal == 0 {
			continue // stop requested mid-flight; the top of the loop drains
		}

		// --- Retirement: scatter finished/halted lanes, ascending. ---
		for m := fin | hal; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			out := laneOutcome(l)
			var wall time.Duration
			out.evals, out.sweeps, wall = takeEffort()
			e := seg[l].e
			if fin&(uint64(1)<<uint(l)) != 0 {
				out.stat.End = EndFinished
			} else {
				st := b.SnapshotLane(a.p.Spec, l)
				if !st.PCKnown {
					out.err = errors.New("core: program counter contained X at halt; cannot index conservative states")
				} else {
					out.stat.HaltPC = st.PC
					if a.cfg.OnHalt != nil {
						a.cfg.OnHalt(out.stat.ID, st)
					}
					out.stat.End = EndForked
					out.halt = st
				}
			}
			retire(l)
			a.settle(&out, e, wall)
		}
		a.maybeCheckpoint(false)
	}
}
