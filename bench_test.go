// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section, plus ablations for the design choices called
// out in DESIGN.md. Run everything with
//
//	go test -bench=. -benchmem
//
// Absolute wall-clock numbers are this reproduction's, not the paper's
// (their substrate was a C++ iverilog fork on a Xeon server); the custom
// metrics attached to each benchmark (reduction %, path counts, simulated
// cycles) are the quantities the paper reports and are what the shape
// comparison in EXPERIMENTS.md is based on.
package symsim_test

import (
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"symsim"
	"symsim/internal/obs"
	"symsim/internal/vvp"
)

// analyzeOnce runs one co-analysis cell and reports the paper's metrics.
// The build phase — platform elaboration, the netlist freeze and the
// level-major Program compile — is kept off the clock: elaboration is
// measured by BenchmarkTable2Synthesis, and Freeze/Program are one-time
// per-netlist costs (cached) that would otherwise dilute every analysis
// benchmark by a constant. What remains on the clock is the run phase:
// pure path exploration.
func analyzeOnce(b *testing.B, d symsim.Design, bench string, cfg symsim.Config) *symsim.Result {
	b.Helper()
	b.StopTimer()
	p, err := symsim.BuildPlatform(d, bench)
	if err != nil {
		b.StartTimer()
		b.Fatal(err)
	}
	if err := p.Design.Freeze(); err != nil {
		b.StartTimer()
		b.Fatal(err)
	}
	p.Design.Program()
	b.StartTimer()
	// SYMSIM_BENCH_ENGINE=interp flips benchmarks that run the default
	// engine (the kernel) onto the interpreter, so the whole Table-3/4
	// matrix can be timed under either engine — the acceptance comparison
	// for the compiled kernel. Benchmarks that pin an engine explicitly
	// (EngineComparison) are unaffected.
	if cfg.Engine == symsim.EngineKernel && os.Getenv("SYMSIM_BENCH_ENGINE") == "interp" {
		cfg.Engine = symsim.EngineInterp
	}
	res, err := symsim.Analyze(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// cells enumerates the full benchmark x design evaluation matrix.
func cells() []struct {
	Bench  string
	Design symsim.Design
} {
	var out []struct {
		Bench  string
		Design symsim.Design
	}
	for _, bench := range symsim.Benchmarks() {
		for _, d := range []symsim.Design{symsim.BM32, symsim.OMSP430, symsim.DR5} {
			out = append(out, struct {
				Bench  string
				Design symsim.Design
			}{bench, d})
		}
	}
	return out
}

// BenchmarkTable3GateCounts regenerates the Table 3 measurement for every
// benchmark x design cell: exercisable gate count and percent reduction.
func BenchmarkTable3GateCounts(b *testing.B) {
	for _, c := range cells() {
		c := c
		b.Run(fmt.Sprintf("%s/%s", c.Bench, c.Design), func(b *testing.B) {
			var res *symsim.Result
			for i := 0; i < b.N; i++ {
				res = analyzeOnce(b, c.Design, c.Bench, symsim.Config{})
			}
			b.ReportMetric(float64(res.ExercisableCount), "gates")
			b.ReportMetric(res.ReductionPct(), "%reduction")
		})
	}
}

// BenchmarkTable4Paths regenerates the Table 4 measurement for every cell:
// simulation paths created, skipped and superseded plus simulated cycles.
func BenchmarkTable4Paths(b *testing.B) {
	for _, c := range cells() {
		c := c
		b.Run(fmt.Sprintf("%s/%s", c.Bench, c.Design), func(b *testing.B) {
			var res *symsim.Result
			for i := 0; i < b.N; i++ {
				res = analyzeOnce(b, c.Design, c.Bench, symsim.Config{})
			}
			b.ReportMetric(float64(res.PathsCreated), "paths")
			b.ReportMetric(float64(res.PathsSkipped), "skipped")
			b.ReportMetric(float64(res.PathsSuperseded), "superseded")
			b.ReportMetric(float64(res.SimulatedCycles), "cycles")
		})
	}
}

// BenchmarkFigure5Reduction regenerates the Figure 5 series: the toggled
// gate-count reduction per benchmark, one sub-benchmark per design, with
// the series value attached as a metric.
func BenchmarkFigure5Reduction(b *testing.B) {
	for _, d := range []symsim.Design{symsim.BM32, symsim.OMSP430, symsim.DR5} {
		d := d
		b.Run(string(d), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				total = 0
				for _, bench := range symsim.Benchmarks() {
					res := analyzeOnce(b, d, bench, symsim.Config{})
					total += res.ReductionPct()
				}
			}
			b.ReportMetric(total/float64(len(symsim.Benchmarks())), "mean%reduction")
		})
	}
}

// BenchmarkFigure6Paths regenerates the Figure 6 series: simulated paths
// per benchmark, one sub-benchmark per design.
func BenchmarkFigure6Paths(b *testing.B) {
	for _, d := range []symsim.Design{symsim.BM32, symsim.OMSP430, symsim.DR5} {
		d := d
		b.Run(string(d), func(b *testing.B) {
			var total int
			for i := 0; i < b.N; i++ {
				total = 0
				for _, bench := range symsim.Benchmarks() {
					res := analyzeOnce(b, d, bench, symsim.Config{})
					total += res.PathsCreated
				}
			}
			b.ReportMetric(float64(total), "paths-total")
		})
	}
}

// BenchmarkTable2Synthesis measures platform elaboration (the "synthesis"
// substrate producing the Table 2 gate counts).
func BenchmarkTable2Synthesis(b *testing.B) {
	for _, d := range []symsim.Design{symsim.BM32, symsim.OMSP430, symsim.DR5} {
		d := d
		b.Run(string(d), func(b *testing.B) {
			var gates int
			for i := 0; i < b.N; i++ {
				p, err := symsim.BuildPlatform(d, "tea8")
				if err != nil {
					b.Fatal(err)
				}
				gates = len(p.Design.Gates)
			}
			b.ReportMetric(float64(gates), "gates")
		})
	}
}

// BenchmarkBespokeFlow measures the pruning + re-synthesis step of the
// bespoke generation (paper §3) on the largest design.
func BenchmarkBespokeFlow(b *testing.B) {
	res := analyzeOnce(b, symsim.BM32, "tHold", symsim.Config{})
	b.ResetTimer()
	var out *symsim.BespokeResult
	for i := 0; i < b.N; i++ {
		var err error
		out, err = symsim.Bespoke(res)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(out.BespokeGates), "bespoke-gates")
}

// --- Ablations (DESIGN.md experiment index E8-E10) ---

// BenchmarkAblationMergePolicy compares the conservative-state policies of
// paper Figure 3 on the dr5 software-multiply workload.
func BenchmarkAblationMergePolicy(b *testing.B) {
	policies := []struct {
		name string
		mk   func() symsim.Policy
	}{
		{"merge-all", symsim.MergeAllPolicy},
		{"clustered-2", func() symsim.Policy { return symsim.ClusteredPolicy(2) }},
		{"clustered-4", func() symsim.Policy { return symsim.ClusteredPolicy(4) }},
		{"exact-64", func() symsim.Policy { return symsim.ExactPolicy(64) }},
	}
	for _, pol := range policies {
		pol := pol
		b.Run(pol.name, func(b *testing.B) {
			var res *symsim.Result
			for i := 0; i < b.N; i++ {
				res = analyzeOnce(b, symsim.DR5, "mult", symsim.Config{Policy: pol.mk(), MaxPaths: 100000})
			}
			b.ReportMetric(float64(res.PathsCreated), "paths")
			b.ReportMetric(float64(res.ExercisableCount), "gates")
		})
	}
}

// BenchmarkAblationParallelism measures the parallel path workers of
// paper §3.3 ("launching these processes in parallel can drastically
// improve simulation time") on a fork-heavy workload.
func BenchmarkAblationParallelism(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				analyzeOnce(b, symsim.BM32, "inSort", symsim.Config{Workers: workers})
			}
		})
	}
}

// BenchmarkAblationSymbolTracking compares anonymous-X and
// identified-symbol propagation (paper §3.4, Figure 4) on a reconvergent
// XOR tree.
func BenchmarkAblationSymbolTracking(b *testing.B) {
	m := symsim.NewModule("recon")
	in := m.Input("in", 32)
	// Reconvergent cone (paper Figure 4): out[i] = in[i] ^ ~in[i], which
	// identified propagation proves constant while anonymous X cannot.
	outs := make(symsim.Bus, 32)
	for i := range outs {
		outs[i] = m.XorBit(in[i], m.NotBit(in[i]))
	}
	m.Output("out", outs)
	if err := m.N.Freeze(); err != nil {
		b.Fatal(err)
	}
	b.Run("anonymous", func(b *testing.B) {
		var unknown int
		for i := 0; i < b.N; i++ {
			ev := symsim.NewSymEvaluator(m.N)
			for j := 0; j < 32; j++ {
				ev.AssignByName(fmt.Sprintf("in[%d]", j), symsim.SymAnon(0))
			}
			if err := ev.Run(); err != nil {
				b.Fatal(err)
			}
			unknown = 0
			for _, o := range outs {
				if !ev.Value(o).IsKnown() {
					unknown++
				}
			}
		}
		b.ReportMetric(float64(unknown), "unknown-outputs")
	})
	b.Run("identified", func(b *testing.B) {
		var unknown int
		for i := 0; i < b.N; i++ {
			ev := symsim.NewSymEvaluator(m.N)
			for j := 0; j < 32; j++ {
				ev.AssignByName(fmt.Sprintf("in[%d]", j), symsim.SymInput(uint32(j+1), 0))
			}
			if err := ev.Run(); err != nil {
				b.Fatal(err)
			}
			unknown = 0
			for _, o := range outs {
				if !ev.Value(o).IsKnown() {
					unknown++
				}
			}
		}
		b.ReportMetric(float64(unknown), "unknown-outputs")
	})
}

// BenchmarkAblationMemX compares the Verilog-compatible and sound
// X-address write semantics (DESIGN.md substitution table) on the
// store-heavy insertion sort.
func BenchmarkAblationMemX(b *testing.B) {
	b.Run("verilog", func(b *testing.B) {
		var res *symsim.Result
		for i := 0; i < b.N; i++ {
			res = analyzeOnce(b, symsim.DR5, "inSort", symsim.Config{})
		}
		b.ReportMetric(float64(res.ExercisableCount), "gates")
	})
	b.Run("sound", func(b *testing.B) {
		var res *symsim.Result
		for i := 0; i < b.N; i++ {
			res = analyzeOnce(b, symsim.DR5, "inSort", symsim.Config{MemX: symsim.MemXSound})
		}
		b.ReportMetric(float64(res.ExercisableCount), "gates")
	})
}

// BenchmarkEngineComparison runs the same tHold co-analysis on every CPU
// under both engines — the before/after of the compiled-kernel tentpole.
// The speedup quoted in README.md is interp ns/op over kernel ns/op per
// design; ns/cycle normalizes by the simulated cycle count.
func BenchmarkEngineComparison(b *testing.B) {
	engines := []struct {
		name string
		e    symsim.SimEngine
	}{
		{"interp", symsim.EngineInterp},
		{"kernel", symsim.EngineKernel},
		{"batch", symsim.EngineBatch},
	}
	for _, d := range []symsim.Design{symsim.BM32, symsim.OMSP430, symsim.DR5} {
		for _, eng := range engines {
			d, eng := d, eng
			b.Run(fmt.Sprintf("%s/%s", d, eng.name), func(b *testing.B) {
				var res *symsim.Result
				for i := 0; i < b.N; i++ {
					res = analyzeOnce(b, d, "tHold", symsim.Config{Engine: eng.e})
				}
				b.ReportMetric(float64(res.SimulatedCycles), "cycles")
				b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/float64(res.SimulatedCycles), "ns/cycle")
			})
		}
	}
}

// BenchmarkSettleSteadyState measures one steady-state clock step of the
// kernel on the largest core — the hot loop of every co-analysis path.
// The acceptance criterion is 0 allocs/op: after warm-up, stepping must
// recycle every queue, scratch vector and NBA batch it touches.
//
// interp and kernel free-run with the Symbolic region off and time every
// step. The other rows time the steps of one clock edge only, so the
// kernel's clock-edge fast path has a number per edge:
// kernel/idle/{posedge,negedge} free-run openMSP430's tHold the same way,
// into a state where every register and memory pin is X and no gate
// changes — a negedge is the clock-edge pass alone (the RAM cannot write at
// a falling edge, so it stays unqueued), a posedge adds the capture and the
// RAM's two ports (its write enable is X, so it may write: the write is
// dropped, the address being X too, and the read reads X), which makes the
// difference of the two rows what the ports cost, and the posedge row the
// one a change to memRead/memWrite shows in;
// kernel/symbolic/{posedge,negedge} run tea8 the way Analyze does —
// Symbolic region on, recording, rewound to a post-reset snapshot each time
// the program finishes. Every sub-benchmark reports the gate evaluations of
// a timed step.
func BenchmarkSettleSteadyState(b *testing.B) {
	for _, eng := range []struct {
		name string
		e    symsim.SimEngine
	}{
		{"interp", symsim.EngineInterp},
		{"kernel", symsim.EngineKernel},
	} {
		eng := eng
		b.Run(eng.name, func(b *testing.B) {
			sim, _ := freeRun(b, symsim.BM32, eng.e)
			evals := sim.Evals()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sim.Evals()-evals)/float64(b.N), "evals/step")
		})
	}
	for _, edge := range []struct {
		name   string
		before symsim.Value // clock level ahead of a timed step
	}{
		{"posedge", symsim.Lo},
		{"negedge", symsim.Hi},
	} {
		edge := edge
		b.Run("kernel/idle/"+edge.name, func(b *testing.B) {
			sim, st := freeRun(b, symsim.OMSP430, symsim.EngineKernel)
			timeEdge(b, sim, st, edge.before, nil)
		})
		b.Run("kernel/symbolic/"+edge.name, func(b *testing.B) {
			p, err := symsim.BuildPlatform(symsim.BM32, "tea8")
			if err != nil {
				b.Fatal(err)
			}
			st := p.Stimulus()
			sim := symsim.NewSimulator(p.Design, symsim.SimOptions{})
			sim.SetMonitorX(&p.Monitor)
			sim.BindStimulus(st)
			for sim.Cycles() < uint64(p.ResetCycles)+4 {
				if _, err := sim.Step(); err != nil {
					b.Fatal(err)
				}
			}
			start := sim.Snapshot(p.Spec)
			for status := symsim.Running; status == symsim.Running; { // one whole program: queue warm-up
				if status, err = sim.Step(); err != nil {
					b.Fatal(err)
				}
			}
			if err := sim.Restore(p.Spec, start); err != nil {
				b.Fatal(err)
			}
			sim.StartRecording() // a path of Analyze records: the level round commits in line
			timeEdge(b, sim, st, edge.before, func() {
				if err := sim.Restore(p.Spec, start); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// freeRun returns a simulator of design d's tHold on engine e, Symbolic
// region off, stepped 2000 times: past reset and the queues' warm-up.
func freeRun(b *testing.B, d symsim.Design, e symsim.SimEngine) (*symsim.Simulator, *symsim.Stimulus) {
	b.Helper()
	p, err := symsim.BuildPlatform(d, "tHold")
	if err != nil {
		b.Fatal(err)
	}
	st := p.Stimulus()
	sim := symsim.NewSimulator(p.Design, symsim.SimOptions{
		Engine:          e,
		DisableSymbolic: true, // free-run: no halts, no finish
	})
	sim.SetMonitorX(&p.Monitor)
	sim.BindStimulus(st)
	for i := 0; i < 2000; i++ {
		if _, err := sim.Step(); err != nil {
			b.Fatal(err)
		}
	}
	return sim, st
}

// timeEdge steps sim b.N times through the edge of st's clock that starts
// at level before, stepping the other edge untimed, and reports the time
// and gate evaluations of a timed step. restart, when non-nil, runs untimed
// after a step that did not return Running.
func timeEdge(b *testing.B, sim *symsim.Simulator, st *symsim.Stimulus, before symsim.Value, restart func()) {
	b.Helper()
	var timed time.Duration
	var evals uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		count := sim.Value(st.Clock) == before
		e0, t0 := sim.Evals(), time.Now()
		status, err := sim.Step()
		if count {
			timed += time.Since(t0)
			evals += sim.Evals() - e0
			i++
		}
		if err != nil {
			b.Fatal(err)
		}
		if status != symsim.Running && restart != nil {
			b.StopTimer()
			restart()
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(timed.Nanoseconds())/float64(b.N), "ns/op")
	b.ReportMetric(float64(evals)/float64(b.N), "evals/step")
}

// BenchmarkRestoreTurnover measures what a scalar explorer pays per path
// segment besides stepping, the counterpart of BenchmarkBatchLaneTurnover:
// one op restores a state into the simulator and snapshots it into reused
// storage. Restores alternate between two states ten clock cycles apart —
// about one Table-4 segment — so each one re-evaluates a real difference;
// evals/op is the gate visits that costs.
func BenchmarkRestoreTurnover(b *testing.B) {
	for _, d := range []symsim.Design{symsim.BM32, symsim.OMSP430, symsim.DR5} {
		d := d
		b.Run(string(d), func(b *testing.B) {
			p, st := warmState(b, d, "tHold")
			states := [2]vvp.State{st, stateCyclesLater(b, p, st, 10)}
			sim := vvp.New(p.Design, vvp.Options{Engine: vvp.EngineKernel})
			sim.SetMonitorX(&p.Monitor)
			sim.BindStimulus(p.Stimulus())
			if err := sim.Restore(p.Spec, st); err != nil {
				b.Fatal(err)
			}
			var snap vvp.State
			b.ReportAllocs()
			b.ResetTimer()
			e0 := sim.Evals()
			for i := 0; i < b.N; i++ {
				if err := sim.Restore(p.Spec, states[(i+1)&1]); err != nil {
					b.Fatal(err)
				}
				snap = sim.SnapshotInto(p.Spec, snap)
			}
			b.ReportMetric(float64(sim.Evals()-e0)/float64(b.N), "evals/op")
			if !snap.Bits.Equal(states[b.N&1].Bits) {
				b.Fatal("snapshot of the restored simulator differs from the state restored")
			}
		})
	}
}

// BenchmarkNewSimulator builds one scalar simulator per processor the way
// an explorer does (kernel engine, monitor and stimulus bound): B/op and
// allocs/op are the machine's mutable state — net values, flip-flop clock
// samples, dirty bitmaps, the RAM slab — and none of the ROM, which is the
// view's own. An analysis pays it once per explorer.
func BenchmarkNewSimulator(b *testing.B) {
	for _, d := range []symsim.Design{symsim.BM32, symsim.OMSP430, symsim.DR5} {
		d := d
		b.Run(string(d), func(b *testing.B) {
			p, err := symsim.BuildPlatform(d, "tea8")
			if err != nil {
				b.Fatal(err)
			}
			p.Design.Program()
			st := p.Stimulus()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim := symsim.NewSimulator(p.Design, symsim.SimOptions{})
				sim.SetMonitorX(&p.Monitor)
				sim.BindStimulus(st)
			}
		})
	}
}

// BenchmarkObsOverhead measures the cost of the observability layer on a
// fork-heavy co-analysis: "off" is the default path (metrics only, the
// always-on configuration every run pays), "trace" additionally streams
// the JSONL span/decision log. The acceptance criterion for the tentpole
// is that "off" stays within noise of the pre-observability baseline; the
// off-vs-trace delta in BENCH_obs.json is the advertised cost of -trace.
func BenchmarkObsOverhead(b *testing.B) {
	for _, mode := range []string{"off", "trace"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Fresh registry per iteration: steady-state per-PC label
				// sets stay bounded and both modes do identical registry
				// work, isolating the tracer cost.
				cfg := symsim.Config{Metrics: obs.NewRegistry()}
				if mode == "trace" {
					cfg.Tracer = obs.NewTracer(io.Discard)
				}
				analyzeOnce(b, symsim.DR5, "mult", cfg)
			}
		})
	}
}

// BenchmarkEngineThroughput measures the raw event-driven engine: concrete
// cycles per second on the largest core running tea8.
func BenchmarkEngineThroughput(b *testing.B) {
	p, err := symsim.BuildPlatform(symsim.BM32, "tea8")
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Design.Freeze(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	cycles := uint64(0)
	for i := 0; i < b.N; i++ {
		sim := symsim.NewSimulator(p.Design, symsim.SimOptions{})
		sim.SetMonitorX(&p.Monitor)
		sim.BindStimulus(p.Stimulus())
		for {
			st, err := sim.Step()
			if err != nil {
				b.Fatal(err)
			}
			if st != symsim.Running {
				break
			}
		}
		cycles += sim.Cycles()
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}
