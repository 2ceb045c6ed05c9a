package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestNilHandlesSafe(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must read 0")
	}
	var v *CounterVec
	if v.With("x") != nil {
		t.Fatal("nil vec must hand out nil counters")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_test", "help", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+5+10+50+1000; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE h_test histogram",
		`h_test_bucket{le="1"} 2`,   // 0.5, 1 (le is inclusive)
		`h_test_bucket{le="10"} 4`,  // + 5, 10
		`h_test_bucket{le="100"} 5`, // + 50
		`h_test_bucket{le="+Inf"} 6`,
		"h_test_sum 1066.5",
		"h_test_count 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_conc", "", ExpBuckets(1, 2, 8))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if h.Sum() != 8000 {
		t.Fatalf("sum = %v, want 8000", h.Sum())
	}
}

func TestRegistryReuseAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("same", "h")
	c2 := r.Counter("same", "ignored")
	if c1 != c2 {
		t.Fatal("same name must return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Histogram("same", "boom", nil)
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	val := 0.0
	r.GaugeFunc("gf", "queue depth", func() float64 { return val })
	val = 7
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "gf 7\n") {
		t.Fatalf("gauge func value not exposed:\n%s", buf.String())
	}
	// Re-registering replaces the function.
	r.GaugeFunc("gf", "queue depth", func() float64 { return 9 })
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "gf 9\n") {
		t.Fatalf("replaced gauge func not exposed:\n%s", buf.String())
	}
}

func TestPrometheusExpositionShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_counter", "a counter").Add(2)
	r.GaugeFunc("a_gauge", "a gauge", func() float64 { return -3 })
	r.CounterVec("c_vec", "per pc", "pc").With(`quo"te\n`).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Families are sorted by name.
	if strings.Index(out, "a_gauge") > strings.Index(out, "b_counter") {
		t.Fatalf("families not sorted:\n%s", out)
	}
	for _, want := range []string{
		"# HELP a_gauge a gauge",
		"# TYPE a_gauge gauge",
		"a_gauge -3",
		"# TYPE b_counter counter",
		"b_counter 2",
		`c_vec{pc="quo\"te\\n"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	Emit(tr, Meta{T: RecMeta, Design: "cpu8", Bench: "fib", Policy: "exact", Engine: "kernel", Workers: 4})
	Emit(tr, Span{T: RecSpan, ID: 0, Parent: -1, End: "forked", HaltPC: 0x10, Cycles: 100, WallUS: 1500})
	Emit(tr, Span{T: RecSpan, ID: 1, Parent: 0, StartPC: 0x10, Forced: "1", End: "finished", Cycles: 50, WallUS: 800})
	Emit(tr, Span{T: RecSpan, ID: 2, Parent: 0, StartPC: 0x10, Forced: "0", End: "subsumed", HaltPC: 0x10, Cycles: 10, WallUS: 90})
	Emit(tr, Decision{T: RecDecision, Path: 2, PC: 0x10, Verdict: "subsumed", States: 1})
	Emit(tr, Decision{T: RecDecision, Path: 1, PC: 0x20, Verdict: "merged", XGained: 3, States: 2})
	Emit(tr, TripRec{T: RecTrip, Trip: "wall clock budget", ElapsedMS: 42})
	Emit(tr, Done{T: RecDone, Complete: true, PathsCreated: 3, PathsSkipped: 1, Cycles: 160, Exercisable: 5, TotalGates: 9, CSMStates: 2, ElapsedMS: 7})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	log, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if log.Meta == nil || log.Meta.Design != "cpu8" || log.Meta.Workers != 4 {
		t.Fatalf("meta = %+v", log.Meta)
	}
	if len(log.Spans) != 3 || log.Spans[1].Forced != "1" {
		t.Fatalf("spans = %+v", log.Spans)
	}
	if len(log.Decisions) != 2 || log.Decisions[1].XGained != 3 {
		t.Fatalf("decisions = %+v", log.Decisions)
	}
	if len(log.Trips) != 1 || log.Trips[0].Trip != "wall clock budget" {
		t.Fatalf("trips = %+v", log.Trips)
	}
	if log.Done == nil || !log.Done.Complete || log.Done.PathsCreated != 3 {
		t.Fatalf("done = %+v", log.Done)
	}
}

func TestReadTraceSkipsUnknownRecords(t *testing.T) {
	in := strings.NewReader(`{"t":"meta","design":"d","policy":"exact","engine":"kernel","workers":1}
{"t":"future-record","x":1}

{"t":"done","complete":true}
`)
	log, err := ReadTrace(in)
	if err != nil {
		t.Fatal(err)
	}
	if log.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", log.Skipped)
	}
	if log.Meta == nil || log.Done == nil {
		t.Fatal("known records must still parse")
	}
}

func TestReadTraceMalformed(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("malformed line must error")
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	Emit(tr, Span{})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestNilTracerEmitAllocatesNothing pins that an untraced run pays no
// allocation per record: Emit returns on a nil tracer before the record is
// boxed into the encoder's interface.
func TestNilTracerEmitAllocatesNothing(t *testing.T) {
	var tr *Tracer
	for name, emit := range map[string]func(){
		"meta":     func() { Emit(tr, Meta{T: RecMeta, Design: "cpu8", Policy: "exact", Engine: "kernel", Workers: 1}) },
		"span":     func() { Emit(tr, Span{T: RecSpan, ID: 1, End: "forked", Cycles: 50}) },
		"decision": func() { Emit(tr, Decision{T: RecDecision, Path: 1, Verdict: "merged", XGained: 3}) },
		"trip":     func() { Emit(tr, TripRec{T: RecTrip, Trip: "wall clock budget"}) },
		"done":     func() { Emit(tr, Done{T: RecDone, Complete: true, PathsCreated: 3}) },
	} {
		if n := testing.AllocsPerRun(100, emit); n != 0 {
			t.Errorf("%s record to a nil tracer: %v allocations, want 0", name, n)
		}
	}
}

func TestExplainRendersTreeAndHotSpots(t *testing.T) {
	log := &TraceLog{
		Meta: &Meta{Design: "cpu8", Bench: "fib", Policy: "exact", Engine: "kernel", Workers: 2},
		Spans: []Span{
			{ID: 0, Parent: -1, End: "forked", HaltPC: 0x10, Cycles: 100, WallUS: 2_500_000},
			{ID: 1, Parent: 0, StartPC: 0x10, Forced: "1", End: "finished", Cycles: 50, WallUS: 1200},
			{ID: 2, Parent: 0, StartPC: 0x10, Forced: "0", End: "subsumed", HaltPC: 0x10, Cycles: 10, WallUS: 90},
			{ID: 3, Parent: 9999, End: "finished", Cycles: 5, WallUS: 10}, // orphan → root
			{ID: -1, Parent: 1, StartPC: 0x20, Forced: "1", End: EndSuperseded},
			{ID: -1, Parent: -1, StartPC: 0x30, Forced: "0", End: EndSuperseded}, // restored from a checkpoint → root
		},
		Decisions: []Decision{
			{Path: 2, PC: 0x10, Verdict: "subsumed", States: 1},
			{Path: 1, PC: 0x10, Verdict: "merged", XGained: 4, States: 1},
			{Path: 1, PC: 0x20, Verdict: "new", States: 2},
		},
		Trips: []TripRec{{Trip: "cycle budget", ElapsedMS: 11}},
		Done:  &Done{Complete: false, PathsCreated: 6, PathsSkipped: 1, PathsSuperseded: 2, Cycles: 165, Exercisable: 3, TotalGates: 9, CSMStates: 2, ElapsedMS: 12},
	}
	var buf bytes.Buffer
	if err := Explain(&buf, log); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"design=cpu8", "bench=fib", "policy=exact",
		"path 0 [forked]",
		"  path 1 [finished] forced=1", // indented under parent
		"path 3 [finished]",            // orphan still printed
		"fork tree (4 path segments, 2 superseded children)",
		"    path - [superseded] forced=1 startPc=0x20 cycles=0", // leaf under path 1
		"\n  path - [superseded] forced=0 startPc=0x30 cycles=0", // parent unknown → root
		"skipped=1 superseded=2",
		"0x00000010", "0x00000020",
		"budget trip: cycle budget",
		"outcome: degraded",
		"2.50s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	// Hot-spot ordering: PC 0x10 (2 decisions) before 0x20 (1).
	if strings.Index(out, "0x00000010") > strings.Index(out, "0x00000020") {
		t.Fatalf("hot spots not sorted by activity:\n%s", out)
	}
}

// forkTreeLines returns the fork-tree lines of an Explain rendering.
func forkTreeLines(t *testing.T, log *TraceLog) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := Explain(&buf, log); err != nil {
		t.Fatal(err)
	}
	_, tree, ok := strings.Cut(buf.String(), "fork tree")
	if !ok {
		t.Fatalf("no fork tree in:\n%s", buf.String())
	}
	tree, _, _ = strings.Cut(tree, "\n\n")
	return strings.Split(strings.TrimSpace(tree), "\n")[1:]
}

// A fork chain deeper than any fixed cap prints every span, each indented
// one level below its parent, and the superseded sibling at each level too.
func TestExplainDeepForkTree(t *testing.T) {
	const depth = 200
	log := &TraceLog{}
	for id := 0; id < depth; id++ {
		log.Spans = append(log.Spans,
			Span{ID: id, Parent: id - 1, End: "forked", HaltPC: 0x10, Cycles: 1},
			Span{ID: -1, Parent: id, StartPC: 0x10, Forced: "0", End: EndSuperseded})
	}
	lines := forkTreeLines(t, log)
	if len(lines) != len(log.Spans) {
		t.Fatalf("fork tree prints %d lines for %d spans", len(lines), len(log.Spans))
	}
	last := strings.Repeat("  ", depth) + "path - [superseded]"
	if got := lines[len(lines)-1]; !strings.HasPrefix(got, "  "+last) {
		t.Errorf("deepest line = %q, want it indented %d levels", got, depth)
	}
}

// A malformed trace whose parent links form a cycle has no root; its spans
// still print, once each.
func TestExplainCyclicTrace(t *testing.T) {
	log := &TraceLog{Spans: []Span{
		{ID: 0, Parent: -1, End: "finished"},
		{ID: 1, Parent: 2, End: "forked"},
		{ID: 2, Parent: 1, End: "forked"},
		{ID: 3, Parent: 3, End: "finished"}, // its own parent: a root
	}}
	lines := forkTreeLines(t, log)
	if len(lines) != len(log.Spans) {
		t.Fatalf("fork tree prints %d lines for %d spans:\n%s", len(lines), len(log.Spans), strings.Join(lines, "\n"))
	}
	for _, want := range []string{"path 1 [forked]", "path 2 [forked]"} {
		if n := strings.Count(strings.Join(lines, "\n"), want); n != 1 {
			t.Errorf("%q printed %d times", want, n)
		}
	}
}

// The per-PC table carries the children pruned at each fork, read from the
// forked spans, and the steps the segments forked at each branch replayed,
// read from their spans.
func TestExplainPrunedColumn(t *testing.T) {
	log := &TraceLog{
		Spans: []Span{
			{ID: 0, Parent: -1, End: "forked", HaltPC: 0x1e, Pruned: 1},
			{ID: 1, Parent: 0, StartPC: 0x1e, End: "forked", HaltPC: 0x1e, Pruned: 1, Replay: 7},
			{ID: 2, Parent: 1, StartPC: 0x1e, End: "finished", Replay: 5},
		},
		Decisions: []Decision{
			{Path: 0, PC: 0x1e, Verdict: "new", States: 1},
			{Path: 1, PC: 0x1e, Verdict: "merged", States: 1},
		},
	}
	var buf bytes.Buffer
	if err := Explain(&buf, log); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"subsumed   merged      new    xGained   pruned replayed",
		"0x0000001e        0        1        1          0        2       12",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 10, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", b, want)
		}
	}
}
