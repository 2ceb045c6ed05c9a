package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"symsim/internal/core"
	"symsim/internal/obs"
	"symsim/internal/report"
	"symsim/internal/vvp"
)

// The committed golden comes from the interpreter; the kernel must agree
// on the three smallest forking and non-forking cells.
func TestGoldenMatchesKernel(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(table4()) {
		t.Fatalf("golden has %d cells, Table 4 has %d", len(golden), len(table4()))
	}
	for _, c := range []cell{{report.BM32, "mult"}, {report.OMSP430, "mult"}, {report.DR5, "binSearch"}} {
		p, err := buildPlatform(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Analyze(p, core.Config{Engine: vvp.EngineKernel, Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		if why := check(golden, c, outcomeOf(res, res.TieOffs())); why != "" {
			t.Errorf("%s: %s", c, why)
		}
	}
}

// The seed only orders the operations: on a deterministic workload the
// simulated counts must not depend on it.
func TestSeedsGiveSameCounts(t *testing.T) {
	w := findWorkload("straightline_kernel")
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	e, err := setUp(w, golden, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	counts := func(seed int64) [3]float64 {
		var c [3]float64
		for _, op := range e.round(shuffled(w.Cells, rand.New(rand.NewSource(seed))), nil, nil).Ops {
			if op.Fail != "" {
				t.Fatalf("seed %d: %s: %s", seed, op.Cell, op.Fail)
			}
			c[0] += float64(op.Out.Paths)
			c[1] += float64(op.Out.Cycles)
			c[2] += float64(op.Out.Gates)
		}
		return c
	}
	if a, b := counts(1), counts(2); a != b {
		t.Errorf("paths, cycles, gates: seed 1 gave %v, seed 2 gave %v", a, b)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "round", ID: 0, Parent: -1, Dur: 100},
		{Name: "op", ID: 1, Parent: 0, Dur: 90},
		{Name: "core.Analyze", ID: 2, Parent: 1, Dur: 70},
		{Name: "core.segment", ID: 3, Parent: 2, Start: -1, Dur: 40},
		{Name: "core.segment", ID: 4, Parent: 2, Start: -1, Dur: 20},
		{Name: "csm.Observe", ID: 5, Parent: 2, Start: -1, Dur: 4},
		{Name: "Result.TieOffs", ID: 6, Parent: 1, Start: -1, Dur: 15},
		{Name: "unfinished", ID: 7, Parent: 1, Dur: -1},
	}
	want := map[string]int64{"round": 10, "op": 5, "core.Analyze": 6, "core.segment": 60, "csm.Observe": 4, "Result.TieOffs": 15}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if _, frac := layerTable(spans, 1); frac != 1 {
		t.Errorf("self times sum to %v of the round, want 1", frac)
	}
	// Overlapping children (two path workers) cover at most the parent.
	spans[3].Dur, spans[4].Dur = 60, 60
	if got := selfTimes(spans)["core.Analyze"]; got != 0 {
		t.Errorf("self time under overlapping children = %d, want 0", got)
	}
}

func TestIQRSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got, ok := iqrSpread(xs)
	if want := (8.25 - 2.75) / 5.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrSpread = %v, %v; want %v", got, ok, want)
	}
	if _, ok := iqrSpread(xs[:minSpreadSamples-1]); ok {
		t.Error("iqrSpread reported a spread below minSpreadSamples")
	}
}

func TestTypedPercentile(t *testing.T) {
	// Two types of ten operations each: every operation counts at its
	// type's fastest latency, so a disturbed sample moves nothing.
	byType := map[opType][]float64{
		{Rank: 0}: {10, 10, 10, 90, 10, 10, 10, 10, 10, 10},
		{Rank: 1}: {30, 30, 30, 30, 30, 30, 30, 30, 30, 30},
	}
	if got := typedPercentile(byType, 0.5); got != 20 {
		t.Errorf("p50 = %v, want 20 (the band straddles both types)", got)
	}
	if got := typedPercentile(byType, 0.9); got != 30 {
		t.Errorf("p90 = %v, want 30 (the band lies within the slower type)", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "round_wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	count := metricDef{Name: "paths_created", Better: "lower", Bound: 0.05}
	for _, tc := range []struct {
		name  string
		d     metricDef
		exact bool
		a, b  []float64
		want  string
	}{
		{"slower beyond bound", lower, false, []float64{1}, []float64{1.2}, verdictWorse},
		{"slower within bound", lower, false, []float64{1}, []float64{1.05}, verdictWithin},
		{"faster beyond bound", lower, false, []float64{1}, []float64{0.8}, verdictBetter},
		{"throughput down", higher, false, []float64{100}, []float64{80}, verdictWorse},
		{"throughput up", higher, false, []float64{100}, []float64{120}, verdictBetter},
		{"spread wider than bound", lower, false, []float64{0.7, 0.8, 0.9, 1, 1, 1.1, 1.2, 1.3}, []float64{1.3}, verdictUnresolved},
		{"tight spread resolves", lower, false, []float64{1, 1, 1.01, 1.01, 1.02, 1.02, 1.03, 1.03}, []float64{1.3}, verdictWorse},
		{"too few records for a spread", lower, false, []float64{0.7, 1, 1.3}, []float64{1.3}, verdictWorse},
		{"one more path on an exact workload", count, true, []float64{1296}, []float64{1297}, verdictWorse},
		{"one fewer path on an exact workload", count, true, []float64{1296}, []float64{1295}, verdictBetter},
		{"one more path elsewhere", count, false, []float64{1296}, []float64{1297}, verdictWithin},
	} {
		if got, _, _ := judge(tc.d, tc.exact, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestEndpointOf(t *testing.T) {
	for _, tc := range []struct{ method, path, name, key string }{
		{"POST", "/jobs", "http.submit", ""},
		{"GET", "/jobs/j7", "http.status", ""},
		{"GET", "/jobs/j7/result", "http.result", ""},
		{"GET", "/jobs/j7/events", "http.events", ""},
		{"POST", "/cluster/lease", "http.lease", ""},
		{"POST", "/cluster/runs/r3/observe", "http.observe", "run:r3"},
		{"GET", "/metrics", "http.other", ""},
	} {
		if name, key := endpointOf(tc.method, tc.path); name != tc.name || key != tc.key {
			t.Errorf("%s %s = %q, %q; want %q, %q", tc.method, tc.path, name, key, tc.name, tc.key)
		}
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json at the repository root must name exactly the gated
// workloads and the metrics this package reports. UPDATE_MANIFEST=1 rewrites it.
func TestManifestMatchesCode(t *testing.T) {
	want := manifest{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		if !w.Gate {
			continue
		}
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{d.Name, d.Unit, d.Better})
	}
	const path = "../BENCHMARK.json"
	if os.Getenv("UPDATE_MANIFEST") != "" {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s is out of step with metrics.go and workloads.go; run UPDATE_MANIFEST=1 go test -run TestManifestMatchesCode", path)
	}
}
