package core

import (
	"symsim/internal/csm"
	"symsim/internal/obs"
	"symsim/internal/vvp"
)

// coreMetrics caches the metric handles one analysis publishes into, so
// the scheduler pays map lookups once per run, not once per event. All
// publication happens at segment granularity (a path halt, a CSM verdict,
// a budget trip) — never inside the per-cycle simulation loop; the
// engines accumulate plain integers and the deltas land here when a
// segment is absorbed. Every series sums over the runs sharing the
// registry; what belongs to one run — a PC, the frontier, the stored
// states — is in its trace and Progress (DESIGN §10).
type coreMetrics struct {
	runs         *obs.Counter
	runsComplete *obs.Counter
	paths        *obs.CounterVec // by end: forked/subsumed/finished/...
	decisions    *obs.CounterVec // by verdict
	xGained      *obs.Counter
	segCycles    *obs.Histogram
	cycles       *obs.Counter
	evals        *obs.Counter
	sweeps       *obs.Counter
	trips        *obs.CounterVec // by trip cause
	quarantines  *obs.Counter
	pruned       *obs.Counter
}

func newCoreMetrics(reg *obs.Registry) *coreMetrics {
	return &coreMetrics{
		runs:         reg.Counter("symsim_runs_total", "Co-analysis runs started."),
		runsComplete: reg.Counter("symsim_runs_complete_total", "Co-analysis runs that explored to exhaustion."),
		paths: reg.CounterVec("symsim_paths_total",
			"Simulated path segments by how they ended.", "end"),
		decisions: reg.CounterVec("symsim_csm_decisions_total",
			"CSM Observe verdicts.", "verdict"),
		xGained: reg.Counter("symsim_csm_x_gained_bits_total",
			"Known bits turned X by CSM merges (over-approximation cost)."),
		segCycles: reg.Histogram("symsim_segment_cycles",
			"Simulated clock cycles per path segment.", obs.ExpBuckets(16, 4, 10)),
		cycles: reg.Counter("symsim_cycles_total",
			"Simulated clock cycles across all paths."),
		evals: reg.Counter("symsim_vvp_gate_evals_total",
			"Gate evaluations executed by the simulation engines."),
		sweeps: reg.Counter("symsim_vvp_kernel_sweeps_total",
			"Level bitmap rounds executed by the compiled kernel."),
		trips: reg.CounterVec("symsim_budget_trips_total",
			"Governance stops by cause.", "trip"),
		quarantines: reg.Counter("symsim_quarantines_total",
			"Path workers contained after a panic."),
		pruned: reg.Counter("symsim_csm_pruned_forks_total",
			"Forked children proven infeasible under application facts and dropped before scheduling."),
	}
}

// laneOccupancy is the one series an explorer publishes itself. Only a
// batch explorer has lanes to count, so the series is registered only when
// the run's engine is batch; otherwise it is nil and observes nothing.
func laneOccupancy(cfg *Config) *obs.Histogram {
	if cfg.Engine != vvp.EngineBatch {
		return nil
	}
	return cfg.Metrics.Histogram("symsim_vvp_lane_occupancy",
		"Occupied lanes per batch-engine admission round.", obs.ExpBuckets(1, 2, 7))
}

// onDecision publishes the CSM's verdict d on st — the halt state of
// segment path, or a pending state the degradation drain merges (path -1)
// — to the verdict counters and, when tracing, the decision log. Caller
// holds a.mu (finish's drain runs after every driver has left).
func (a *analysis) onDecision(path int, st vvp.State, d csm.Decision) {
	verdict := d.Verdict()
	// xGained is the over-approximation cost of a merge: known bits the
	// superstate turned unknown.
	xGained := 0
	if verdict == csm.VerdictMerged {
		if xGained = d.Explore.Bits.CountX() - st.Bits.CountX(); xGained > 0 {
			a.m.xGained.Add(uint64(xGained))
		}
	}
	a.m.decisions.With(verdict).Inc()
	obs.Emit(a.cfg.Tracer, obs.Decision{
		T:       obs.RecDecision,
		Path:    path,
		PC:      st.PC,
		Verdict: verdict,
		XGained: xGained,
		States:  a.cfg.Policy.States(),
	})
}
