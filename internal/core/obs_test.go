package core_test

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"symsim/internal/core"
	"symsim/internal/csm"
	"symsim/internal/obs"
	"symsim/internal/report"
	"symsim/internal/vvp"
)

// A traced run must populate the metrics registry from every layer
// (core paths, csm decisions, vvp effort) and write a parseable trace
// whose fork tree and decision log are consistent with the Result.
func TestAnalyzeObservability(t *testing.T) {
	p := buildLoop(t, 0x3)
	reg := obs.NewRegistry()
	var traceBuf bytes.Buffer
	tr := obs.NewTracer(&traceBuf)

	res, err := core.Analyze(p, core.Config{Metrics: reg, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("loop analysis must complete")
	}
	if res.BusyTime <= 0 {
		t.Errorf("BusyTime = %v, want > 0", res.BusyTime)
	}

	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	out := expo.String()
	for _, want := range []string{
		"symsim_runs_total 1",
		"symsim_runs_complete_total 1",
		`symsim_paths_total{end="forked"}`,
		"symsim_cycles_total",
		"symsim_vvp_gate_evals_total",
		"symsim_csm_decisions_total",
		"symsim_segment_cycles_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Engine effort must actually have been published, not just declared.
	if strings.Contains(out, "symsim_vvp_gate_evals_total 0\n") {
		t.Error("gate evals counter never moved")
	}
	if cycles := reg.Counter("symsim_cycles_total", ""); cycles.Value() != res.SimulatedCycles {
		t.Errorf("cycles counter = %d, result = %d", cycles.Value(), res.SimulatedCycles)
	}
	if sweeps := reg.Counter("symsim_vvp_kernel_sweeps_total", "").Value(); sweeps == 0 {
		t.Error("the kernel's sweep counter never moved")
	}
	if seg := reg.Histogram("symsim_segment_cycles", "", nil); seg.Count() != uint64(len(res.Paths)) || seg.Sum() != float64(res.SimulatedCycles) {
		t.Errorf("segment cycles histogram: %d segments, %v cycles; result %d and %d", seg.Count(), seg.Sum(), len(res.Paths), res.SimulatedCycles)
	}

	log, err := obs.ReadTrace(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if log.Meta == nil || log.Meta.Design == "" || log.Meta.Policy != "merge-all" {
		t.Fatalf("meta = %+v", log.Meta)
	}
	if len(log.Spans) != len(res.Paths)+res.PathsSuperseded {
		t.Fatalf("spans = %d, paths = %d + %d superseded", len(log.Spans), len(res.Paths), res.PathsSuperseded)
	}
	if log.Done == nil || log.Done.PathsCreated != res.PathsCreated || !log.Done.Complete {
		t.Fatalf("done = %+v", log.Done)
	}
	// Fork-tree consistency: every non-root parent is a forked span, and
	// the subsumed span count matches PathsSkipped.
	byID := make(map[int]obs.Span)
	for _, s := range log.Spans {
		byID[s.ID] = s
	}
	subsumed := 0
	for _, s := range log.Spans {
		if s.End == "subsumed" {
			subsumed++
		}
		if s.Parent < 0 {
			continue
		}
		par, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d has unknown parent %d", s.ID, s.Parent)
		}
		if par.End != "forked" {
			t.Errorf("span %d parent %d ended %q, want forked", s.ID, s.Parent, par.End)
		}
		if s.Forced == "" {
			t.Errorf("forked child %d has no forced label", s.ID)
		}
	}
	if subsumed != res.PathsSkipped {
		t.Errorf("subsumed spans = %d, PathsSkipped = %d", subsumed, res.PathsSkipped)
	}
	// Decision log: one decision per classified halt; subsumed verdicts
	// match the skip count.
	subVerdicts := 0
	for _, d := range log.Decisions {
		if d.Verdict == "subsumed" {
			subVerdicts++
		}
	}
	if subVerdicts != res.PathsSkipped {
		t.Errorf("subsumed decisions = %d, PathsSkipped = %d", subVerdicts, res.PathsSkipped)
	}
	// The verdict counters and the X-gain counter are the decision log's,
	// counted and summed.
	xGained, verdicts := 0, make(map[string]uint64)
	for _, d := range log.Decisions {
		xGained += d.XGained
		verdicts[d.Verdict]++
	}
	byVerdict := reg.CounterVec("symsim_csm_decisions_total", "", "verdict")
	for _, v := range []string{csm.VerdictSubsumed, csm.VerdictMerged, csm.VerdictNew} {
		if got := byVerdict.With(v).Value(); got != verdicts[v] {
			t.Errorf(`symsim_csm_decisions_total{verdict=%q} = %d, decision log has %d`, v, got, verdicts[v])
		}
	}
	if got := reg.Counter("symsim_csm_x_gained_bits_total", "").Value(); xGained == 0 || got != uint64(xGained) {
		t.Errorf("symsim_csm_x_gained_bits_total = %d, decision log sums %d (want > 0)", got, xGained)
	}

	// The whole trace must render.
	var render bytes.Buffer
	if err := obs.Explain(&render, log); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(render.String(), "fork tree") || !strings.Contains(render.String(), "outcome: complete") {
		t.Fatalf("explain render incomplete:\n%s", render.String())
	}
}

// With no Tracer and no explicit registry, Analyze publishes into
// obs.Default and must not crash — the always-on path.
func TestAnalyzeDefaultRegistry(t *testing.T) {
	p := buildLoop(t, 0x1)
	before := obs.Default.Counter("symsim_runs_total", "").Value()
	if _, err := core.Analyze(p, core.Config{}); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default.Counter("symsim_runs_total", "").Value(); got != before+1 {
		t.Errorf("runs counter = %d, want %d", got, before+1)
	}
}

// Entries the frontier supersedes never become segments, yet every created
// path must stay visible: one span each (no path ID, zero cycles, hanging
// off the fork that created it), the existing paths-by-end vec, the Done
// record, and a leaf line in the rendered fork tree.
func TestSupersededObservability(t *testing.T) {
	p, err := report.BuildPlatform(report.OMSP430, "tHold")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var traceBuf bytes.Buffer
	res, err := core.Analyze(p, core.Config{Metrics: reg, Tracer: obs.NewTracer(&traceBuf)})
	if err != nil {
		t.Fatal(err)
	}
	if res.PathsSuperseded == 0 {
		t.Fatal("tHold superseded nothing; the test needs a fork-heavy cell")
	}
	byEnd := reg.CounterVec("symsim_paths_total", "", "end")
	if got := byEnd.With(obs.EndSuperseded).Value(); got != uint64(res.PathsSuperseded) {
		t.Errorf(`symsim_paths_total{end="superseded"} = %d, PathsSuperseded = %d`, got, res.PathsSuperseded)
	}

	log, err := obs.ReadTrace(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Spans) != len(res.Paths)+res.PathsSuperseded {
		t.Errorf("spans = %d, want %d segments + %d superseded", len(log.Spans), len(res.Paths), res.PathsSuperseded)
	}
	ends := make(map[int]string)
	for _, s := range log.Spans {
		if s.End != obs.EndSuperseded {
			ends[s.ID] = s.End
		}
	}
	for _, s := range log.Spans {
		if s.End != obs.EndSuperseded {
			continue
		}
		if s.ID != -1 || s.Cycles != 0 || s.Forced == "" {
			t.Errorf("superseded span %+v: want ID -1, zero cycles and a forced direction", s)
		}
		if ends[s.Parent] != "forked" {
			t.Errorf("superseded span's parent %d ended %q, want forked", s.Parent, ends[s.Parent])
		}
	}
	if log.Done == nil || log.Done.PathsSuperseded != res.PathsSuperseded {
		t.Errorf("done = %+v, want pathsSuperseded %d", log.Done, res.PathsSuperseded)
	}

	var render bytes.Buffer
	if err := obs.Explain(&render, log); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(render.String(), "path - [superseded]"); got != res.PathsSuperseded {
		t.Errorf("explain shows %d superseded leaves, want %d\n%s", got, res.PathsSuperseded, render.String())
	}
}

// Both drivers publish a segment through the same function: the pruned-fork
// counter must follow Result.PathsPruned on the batch engine too (its own
// publication block used to leave it at zero), and so must the per-PC count
// the forked spans carry, all of it at the one PC the fact names.
func TestPrunedForksPublishedByBothDrivers(t *testing.T) {
	p, err := report.BuildPlatform(report.OMSP430, "tHold")
	if err != nil {
		t.Fatal(err)
	}
	// "No sample equals the threshold": the JEQ at 0x1e is never taken.
	fact := csm.Constraint{PC: 0x1e, Bit: p.Spec.BitOfNet("sr_z")}
	for _, eng := range []vvp.Engine{vvp.EngineKernel, vvp.EngineBatch} {
		pol, err := csm.NewConstrained(p.Spec.Bits(), []csm.Constraint{fact})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		var traceBuf bytes.Buffer
		res, err := core.Analyze(p, core.Config{Policy: pol, Engine: eng, Metrics: reg, Tracer: obs.NewTracer(&traceBuf)})
		if err != nil {
			t.Fatal(err)
		}
		if res.PathsPruned == 0 {
			t.Fatalf("%v: the fact pruned nothing", eng)
		}
		if got := reg.Counter("symsim_csm_pruned_forks_total", "").Value(); got != uint64(res.PathsPruned) {
			t.Errorf("%v: symsim_csm_pruned_forks_total = %d, PathsPruned = %d", eng, got, res.PathsPruned)
		}
		log, err := obs.ReadTrace(&traceBuf)
		if err != nil {
			t.Fatal(err)
		}
		byPC := make(map[uint64]uint64)
		for _, s := range log.Spans {
			if s.Pruned > 0 {
				if s.End != "forked" {
					t.Errorf("%v: span %d ended %q with %d pruned children, want forked", eng, s.ID, s.End, s.Pruned)
				}
				byPC[s.HaltPC] += s.Pruned
			}
		}
		if byPC[0x1e] != uint64(res.PathsPruned) || len(byPC) != 1 {
			t.Errorf("%v: pruned children by span PC = %v, want all %d at 0x1e", eng, byPC, res.PathsPruned)
		}
	}
}

// familyNames lists the metric families of reg's exposition, in its
// (sorted) order.
func familyNames(t *testing.T, reg *obs.Registry) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			names = append(names, name)
		}
	}
	return names
}

// The catalog of a core run's registry (DESIGN §10). Each series sums over
// the runs sharing the registry; a new one is added here, deliberately,
// along with the test or benchmark metric that reads it. Lane occupancy is
// registered only by a batch run: no other engine has lanes to count.
func TestCoreMetricsCatalog(t *testing.T) {
	want := []string{
		"symsim_budget_trips_total",
		"symsim_csm_decisions_total",
		"symsim_csm_pruned_forks_total",
		"symsim_csm_x_gained_bits_total",
		"symsim_cycles_total",
		"symsim_paths_total",
		"symsim_quarantines_total",
		"symsim_runs_complete_total",
		"symsim_runs_total",
		"symsim_segment_cycles",
		"symsim_vvp_gate_evals_total",
		"symsim_vvp_kernel_sweeps_total",
	}
	for _, c := range []struct {
		engine vvp.Engine
		want   []string
	}{
		{vvp.EngineKernel, want},
		{vvp.EngineBatch, append(slices.Clone(want), "symsim_vvp_lane_occupancy")},
	} {
		reg := obs.NewRegistry()
		if _, err := core.Analyze(buildLoop(t, 0x3), core.Config{Metrics: reg, Engine: c.engine}); err != nil {
			t.Fatal(err)
		}
		if got := familyNames(t, reg); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s core families:\n got %q\nwant %q", c.engine, got, c.want)
		}
	}
}

// The fork tree of a real run deeper than 64 forks prints one line per
// span: bm32/inSort forks 95 deep.
func TestExplainDeepRealTrace(t *testing.T) {
	p, err := report.BuildPlatform(report.BM32, "inSort")
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	res, err := core.Analyze(p, core.Config{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(&traceBuf)})
	if err != nil {
		t.Fatal(err)
	}
	log, err := obs.ReadTrace(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Spans) != len(res.Paths)+res.PathsSuperseded {
		t.Fatalf("spans = %d, want %d segments + %d superseded", len(log.Spans), len(res.Paths), res.PathsSuperseded)
	}
	parent := make(map[int]int)
	for _, s := range log.Spans {
		if s.End != obs.EndSuperseded {
			parent[s.ID] = s.Parent
		}
	}
	deepest := 0
	for id := range parent {
		d := 0
		for p := parent[id]; p >= 0; p = parent[p] {
			d++
		}
		deepest = max(deepest, d)
	}
	if deepest <= 64 {
		t.Fatalf("deepest fork chain is %d; the test needs one deeper than 64", deepest)
	}
	var render bytes.Buffer
	if err := obs.Explain(&render, log); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(render.String(), "\n") {
		if strings.HasPrefix(strings.TrimLeft(line, " "), "path ") {
			lines++
		}
	}
	if lines != len(log.Spans) {
		t.Errorf("explain prints %d fork-tree lines for %d spans (deepest chain %d)", lines, len(log.Spans), deepest)
	}
}
