package main

import (
	"math"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: symsim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineComparison/bm32/kernel-8         	       8	  85241517 ns/op	       893.0 cycles	     95455 ns/cycle
BenchmarkSettleSteadyState/kernel-8             	     200	     19787 ns/op	       0 B/op	       0 allocs/op
BenchmarkTable4Paths/tHold/omsp430-8            	       3	  20000000 ns/op	       857.0 cycles	         4.000 paths	       100 allocs/op
PASS
ok  	symsim	2.5s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "symsim" {
		t.Fatalf("header: %+v", rep)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Fatalf("cpu: %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkEngineComparison/bm32/kernel" {
		t.Fatalf("name with proc suffix not stripped: %q", b.Name)
	}
	if b.Iterations != 8 {
		t.Fatalf("iterations = %d", b.Iterations)
	}
	if b.Metrics["ns/op"] != 85241517 || b.Metrics["cycles"] != 893 || b.Metrics["ns/cycle"] != 95455 {
		t.Fatalf("metrics: %v", b.Metrics)
	}
	// -benchmem units parse, including zero values.
	if v, ok := rep.Benchmarks[1].Metrics["allocs/op"]; !ok || v != 0 {
		t.Fatalf("allocs/op: %v", rep.Benchmarks[1].Metrics)
	}
	// Derived allocs/cycle appears exactly when cycles and allocs/op
	// coexist.
	if _, ok := rep.Benchmarks[1].Metrics["allocs/cycle"]; ok {
		t.Fatal("allocs/cycle derived without a cycles metric")
	}
	got := rep.Benchmarks[2].Metrics["allocs/cycle"]
	if math.Abs(got-100.0/857.0) > 1e-12 {
		t.Fatalf("allocs/cycle = %v", got)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	rep, err := parse(strings.NewReader("=== RUN TestFoo\nBenchmark garbage line\nBenchmarkX-4 notanint 5 ns/op\nok symsim 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("noise parsed as benchmarks: %+v", rep.Benchmarks)
	}
}

// Lines repeated by -count fold into one entry: median and minimum per
// metric, in order of first appearance; a single line stays as it was.
func TestParseFoldsRepeatedRuns(t *testing.T) {
	rep, err := parse(strings.NewReader(`BenchmarkA/x-2   10   300 ns/op   7 allocs/op
BenchmarkB-2     5    50 ns/op
BenchmarkA/x-2   10   100 ns/op   7 allocs/op
BenchmarkA/x-2   10   200 ns/op   9 allocs/op
BenchmarkA/x-2   10   900 ns/op   7 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 || rep.Benchmarks[0].Name != "BenchmarkA/x" || rep.Benchmarks[1].Name != "BenchmarkB" {
		t.Fatalf("folded to %+v", rep.Benchmarks)
	}
	a, b := rep.Benchmarks[0], rep.Benchmarks[1]
	if a.Runs != 4 || a.Metrics["ns/op"] != 250 || a.Min["ns/op"] != 100 || a.Metrics["allocs/op"] != 7 || a.Min["allocs/op"] != 7 {
		t.Errorf("four runs folded to %+v", a)
	}
	if b.Runs != 0 || b.Min != nil || b.Metrics["ns/op"] != 50 {
		t.Errorf("single run folded to %+v", b)
	}
}
