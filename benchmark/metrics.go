package main

import (
	"math"
	"sort"
)

// metricDef names one reported quantity. Bound is meaningful on
// end-to-end metrics only: the share of the parent's median by which the
// metric may get worse before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of symsim sees, measured with tracing off.
// BENCHMARK.json carries the same list (TestManifestMatchesCode). The
// bounds are per metric, not per workload. The reference box is two cores
// of a shared host whose speed shifts by 10-15 % for minutes at a time
// (README, "Sizing"): the timing bounds sit at the manifest's ceiling for
// that reason, not because the program's own run-to-run variation is that
// large.
//
// Deliberately absent: paths/s and ns/simulated-cycle. Both get worse when
// a change removes paths or cycles, which is the best kind of win; they
// live in the layer list as core.host_ns_per_cycle. Operations per second
// is absent too: in a closed loop over a fixed operation list it is the
// reciprocal of round_wall_s. So is a 90th-percentile latency: it sits on
// the same few 100 ms operations that make up most of round_wall_s, says
// nothing that metric does not, and operations that long find the host
// undisturbed least often, which made it the least repeatable timing. failed_ops_frac is carried by the result
// line's attempted/failed/correct fields instead of a metric because it is
// always 0 on a sound tree.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"round_wall_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"alloc_mb_per_round", "MB", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"paths_created", "count/round", "lower", 0.05},
	{"simulated_cycles", "count/round", "lower", 0.05},
	{"exercisable_gates", "count/round", "lower", 0.001},
}

// exactWorkloads run one explorer in Algorithm 1's sequential order, so
// their simulated counts repeat exactly: -compare treats any difference in
// a count there as a real change, whatever the manifest bound says.
var exactWorkloads = map[string]bool{
	"table4_kernel":       true,
	"table4_batch":        true,
	"straightline_kernel": true,
}

var countMetrics = map[string]bool{
	"paths_created":     true,
	"simulated_cycles":  true,
	"exercisable_gates": true,
}

var designNames = []string{"bm32", "omsp430", "dr5"}

// perLayer lists the traced run's metrics, module.metric. Every traced run
// reports every one; a metric whose layer the workload does not exercise
// reads 0 (README has the layer -> end-to-end -> workload table).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }
	perDesign := func(name, unit, better string) {
		for _, d := range designNames {
			add(name+"."+d, unit, better)
		}
	}
	perDesign("report.build_platform_ms", "ms", "lower")
	perDesign("netlist.freeze_ms", "ms", "lower")
	perDesign("netlist.hash_ms", "ms", "lower")
	perDesign("lint.run_ms", "ms", "lower")

	perDesign("vvp.new_us", "us", "lower")
	perDesign("vvp.step_ns", "ns", "lower")
	add("vvp.steps_per_cycle", "count", "lower")
	perDesign("vvp.evals_per_cycle", "count", "lower")
	perDesign("vvp.sweeps_per_cycle", "count", "lower")
	perDesign("vvp.snapshot_us", "us", "lower")
	perDesign("vvp.restore_us", "us", "lower")
	perDesign("vvp.state_clone_us", "us", "lower")
	perDesign("vvp.state_marshal_us", "us", "lower")
	perDesign("vvp.state_decode_us", "us", "lower")
	perDesign("vvp.state_bytes", "count", "lower")
	add("vvp.batch_lane_step_ns.l1", "ns", "lower")
	add("vvp.batch_lane_step_ns.l8", "ns", "lower")
	add("vvp.batch_lane_step_ns.l64", "ns", "lower")
	add("vvp.lane_occupancy_mean", "count", "higher")

	add("core.analyze_s", "s", "lower")
	add("core.busy_s", "s", "lower")
	add("core.busy_frac", "ratio", "higher")
	add("core.self_s", "s", "lower")
	add("core.tieoffs_ms", "ms", "lower")
	add("core.segments", "count/round", "lower")
	add("core.cycles_per_segment", "count", "higher")
	add("core.paths_skipped", "count/round", "lower")
	add("core.paths_pruned", "count/round", "higher")
	add("core.subsumed_frac", "ratio", "lower")
	add("core.host_ns_per_cycle", "ns", "lower")
	add("core.mallocs_per_cycle", "count", "lower")
	add("core.modelled_step_s", "s", "lower")
	add("core.per_path_overhead_us", "us", "lower")
	add("core.cycles_vs_kernel", "ratio", "lower")
	add("core.parallel_efficiency", "ratio", "higher")
	add("core.checkpoint_encode_ms", "ms", "lower")
	add("core.checkpoint_decode_ms", "ms", "lower")
	add("core.checkpoint_bytes", "count", "lower")

	add("csm.observe_s", "s", "lower")
	add("csm.observes", "count/round", "lower")
	add("csm.observe_us_p50", "us", "lower")
	add("csm.observe_us_p90", "us", "lower")
	add("csm.subsumed", "count/round", "higher")
	add("csm.explore", "count/round", "lower")
	add("csm.states_final", "count/round", "lower")
	add("csm.replay_observe_us.mergeall", "us", "lower")
	add("csm.replay_observe_us.clustered4", "us", "lower")
	add("csm.replay_observe_us.exact64", "us", "lower")
	add("csm.export_ms", "ms", "lower")
	add("csm.import_ms", "ms", "lower")

	add("logic.vec_subset_ns", "ns", "lower")
	add("logic.vec_merge_ns", "ns", "lower")

	add("bespoke.generate_ms.bm32", "ms", "lower")

	add("service.http_submit_ms_p50", "ms", "lower")
	add("service.http_result_ms_p50", "ms", "lower")
	add("service.queue_wait_ms_p50", "ms", "lower")
	add("service.run_ms_p50", "ms", "lower")
	add("service.cache_hit_frac", "ratio", "higher")
	add("service.store_bytes_per_job", "count", "lower")
	add("service.cpu_seconds", "s", "lower")

	add("cluster.rpc_lease_ms_p50", "ms", "lower")
	add("cluster.rpc_observe_ms_p50", "ms", "lower")
	add("cluster.rpc_report_ms_p50", "ms", "lower")
	add("cluster.rpcs_per_path", "ratio", "lower")
	add("cluster.observe_rpcs", "count/round", "lower")
	add("cluster.local_subsumed_frac", "ratio", "higher")
	add("cluster.units_leased", "count/round", "lower")
	add("cluster.lease_empty_polls", "count/round", "lower")
	add("cluster.requeues", "count", "lower")
	add("cluster.fleet_speedup", "ratio", "higher")

	add("obs.series_count", "count", "lower")
	add("bench.trace_overhead_frac", "ratio", "lower")
	add("bench.self_sum_frac", "ratio", "lower")
	add("bench.gc_pause_ms", "ms", "lower")
	add("bench.nproc", "count", "higher")
	return out
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 when empty.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile (0 < q <= 1); 0 when empty.
func percentile(xs []float64, q float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0 — a layer that did no work reads 0, not NaN
// (the result line is JSON).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// iqrSpread is the distance between the first and third quartile as a
// share of the median, quartiles as Python's statistics.quantiles(xs, n=4)
// gives them (the rule the PR driver applies). ok is false below
// minSpreadSamples: with fewer, those quartiles sit next to the extremes
// and read as the range.
const minSpreadSamples = 8

func iqrSpread(xs []float64) (spread float64, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	if n < minSpreadSamples {
		return 0, false
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0, true
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med), true
}
