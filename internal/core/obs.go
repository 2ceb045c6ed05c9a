package core

import (
	"fmt"

	"symsim/internal/csm"
	"symsim/internal/obs"
	"symsim/internal/vvp"
)

// coreMetrics caches the metric handles one analysis publishes into, so
// the scheduler pays map lookups once per run, not once per event. All
// publication happens at segment granularity (a path halt, a CSM verdict,
// a budget trip) — never inside the per-cycle simulation loop; the
// engines accumulate plain integers and the deltas land here when a
// segment is absorbed.
type coreMetrics struct {
	runs         *obs.Counter
	runsComplete *obs.Counter
	paths        *obs.CounterVec // by end: forked/subsumed/finished/...
	forkedByPC   *obs.CounterVec
	mergedByPC   *obs.CounterVec
	skippedByPC  *obs.CounterVec
	newByPC      *obs.CounterVec
	decisions    *obs.CounterVec // by verdict
	xGained      *obs.Counter
	csmStates    *obs.Gauge
	segCycles    *obs.Histogram
	segWall      *obs.Histogram
	cycles       *obs.Counter
	evals        *obs.Counter
	sweeps       *obs.Counter
	pending      *obs.Gauge
	inflight     *obs.Gauge
	laneOcc      *obs.Histogram
	trips        *obs.CounterVec // by trip cause
	quarantines  *obs.Counter
	pruned       *obs.Counter
	prunedByPC   *obs.CounterVec
}

func newCoreMetrics(reg *obs.Registry) *coreMetrics {
	return &coreMetrics{
		runs:         reg.Counter("symsim_runs_total", "Co-analysis runs started."),
		runsComplete: reg.Counter("symsim_runs_complete_total", "Co-analysis runs that explored to exhaustion."),
		paths: reg.CounterVec("symsim_paths_total",
			"Simulated path segments by how they ended.", "end"),
		forkedByPC: reg.CounterVec("symsim_paths_forked_by_pc_total",
			"Forks by the PC of the X branch that caused them.", "pc"),
		mergedByPC: reg.CounterVec("symsim_csm_merged_by_pc_total",
			"CSM merges into an existing conservative state, by PC.", "pc"),
		skippedByPC: reg.CounterVec("symsim_csm_skipped_by_pc_total",
			"Paths subsumed (skipped) by a stored conservative state, by PC.", "pc"),
		newByPC: reg.CounterVec("symsim_csm_new_by_pc_total",
			"Halt states stored as new conservative states, by PC.", "pc"),
		decisions: reg.CounterVec("symsim_csm_decisions_total",
			"CSM Observe verdicts.", "verdict"),
		xGained: reg.Counter("symsim_csm_x_gained_bits_total",
			"Known bits turned X by CSM merges (over-approximation cost)."),
		csmStates: reg.Gauge("symsim_csm_states",
			"Conservative states currently stored."),
		segCycles: reg.Histogram("symsim_segment_cycles",
			"Simulated clock cycles per path segment.", obs.ExpBuckets(16, 4, 10)),
		segWall: reg.Histogram("symsim_segment_wall_seconds",
			"Wall-clock simulation time per path segment.", obs.ExpBuckets(0.001, 4, 10)),
		cycles: reg.Counter("symsim_cycles_total",
			"Simulated clock cycles across all paths."),
		evals: reg.Counter("symsim_vvp_gate_evals_total",
			"Gate evaluations executed by the simulation engines."),
		sweeps: reg.Counter("symsim_vvp_kernel_sweeps_total",
			"Level bitmap rounds executed by the compiled kernel."),
		pending: reg.Gauge("symsim_paths_pending",
			"Unprocessed worklist entries."),
		inflight: reg.Gauge("symsim_paths_inflight",
			"Path segments currently simulating."),
		laneOcc: laneOccupancy(reg),
		trips: reg.CounterVec("symsim_budget_trips_total",
			"Governance stops by cause.", "trip"),
		quarantines: reg.Counter("symsim_quarantines_total",
			"Path workers contained after a panic."),
		pruned: reg.Counter("symsim_csm_pruned_forks_total",
			"Forked children proven infeasible under application facts and dropped before scheduling."),
		prunedByPC: reg.CounterVec("symsim_csm_pruned_by_pc_total",
			"Pruned forked children by the PC of the X branch that forked them.", "pc"),
	}
}

// laneOccupancy is the one series an explorer publishes itself; a driver
// away from the run's state (Explore) registers it alone.
func laneOccupancy(reg *obs.Registry) *obs.Histogram {
	return reg.Histogram("symsim_vvp_lane_occupancy",
		"Occupied lanes per batch-engine admission round.", obs.ExpBuckets(1, 2, 7))
}

// pcLabel renders a PC the way every per-PC metric and the explain
// renderer do.
func pcLabel(pc uint64) string { return fmt.Sprintf("0x%x", pc) }

// onDecision publishes the CSM's verdict d on st — the halt state of
// segment path, or a pending state the degradation drain merges (path -1)
// — to the per-PC merge/skip counters (pc is pcLabel(st.PC)) and, when
// tracing, the decision log. Caller holds a.mu (finish's drain runs after
// every driver has left).
func (a *analysis) onDecision(path int, pc string, st vvp.State, d csm.Decision) {
	verdict := d.Verdict()
	// xGained is the over-approximation cost of a merge: known bits the
	// superstate turned unknown.
	xGained := 0
	switch verdict {
	case csm.VerdictSubsumed:
		a.m.skippedByPC.With(pc).Inc()
	case csm.VerdictMerged:
		a.m.mergedByPC.With(pc).Inc()
		if xGained = d.Explore.Bits.CountX() - st.Bits.CountX(); xGained > 0 {
			a.m.xGained.Add(uint64(xGained))
		}
	case csm.VerdictNew:
		a.m.newByPC.With(pc).Inc()
	}
	states := a.cfg.Policy.States()
	a.m.decisions.With(verdict).Inc()
	a.m.csmStates.Set(int64(states))
	a.cfg.Tracer.Emit(obs.Decision{
		T:       obs.RecDecision,
		Path:    path,
		PC:      st.PC,
		Verdict: verdict,
		XGained: xGained,
		States:  states,
	})
}
