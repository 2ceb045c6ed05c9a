// Go benchmarks for what no whole-analysis number shows. The performance
// record is benchmark/ (go run -C benchmark .; benchmark/README.md): the
// Table-3/4 counts, platform set-up, engine and batch throughput, tracing
// overhead and the bespoke step are its metrics, and nothing records these
// benchmarks. Each stays for one reason:
//
//   - SettleSteadyState: 0 allocs/op of a steady-state step, and ns and evaluations per clock edge.
//   - RestoreTurnover: a scalar Restore + SnapshotInto between states ten cycles apart.
//   - NewSimulator: the B/op of one simulator, the machine state an explorer allocates.
//   - BatchKernelSweep: batch-N against N scalar kernels; benchmark/'s vvp.batch_lane_step_ns applies its load.
//   - BatchLaneTurnover: retire + admit + snapshot of one batch lane beside 0, 3 and 15 occupied lanes.
//   - AblationMergePolicy (E8): paths and gates under four CSM policies; benchmark/ runs merge-all only.
//   - AblationSymbolTracking (E9): anonymous X against identified symbols; no workload runs symeval.
//   - AblationParallelism (E10): path workers 1 to 8; benchmark/ fixes them at 1 or 2.
//
// Run them with
//
//	go test -run '^$' -bench . -benchmem .
package symsim_test

import (
	"fmt"
	"testing"
	"time"

	"symsim"
	"symsim/internal/vvp"
)

// analyzeOnce runs one co-analysis cell with the build phase — platform
// elaboration, the netlist freeze and the level-major Program compile —
// off the clock, so what is timed is path exploration alone.
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
	res, err := symsim.Analyze(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
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
				res = analyzeOnce(b, symsim.DR5, "mult", symsim.Config{Policy: pol.mk()})
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

// BenchmarkBatchKernelSweep measures one steady-state stimulus step of N
// concurrent scenarios, free-running BM32/tHold from the same post-reset
// state. scalar-N steps N independent compiled-kernel simulators; batch-N
// packs the N scenarios as lanes of one BatchSim, so every sweep over the
// level bitmap serves all N at once. ns/op is the cost of advancing ALL N
// scenarios by one half-period; lane-steps/s is the aggregate throughput,
// and batch-N over scalar-N the sweep's speedup at N lanes.
func BenchmarkBatchKernelSweep(b *testing.B) {
	for _, lanes := range []int{1, 8, 16, 64} {
		lanes := lanes
		b.Run(fmt.Sprintf("scalar/lanes=%d", lanes), func(b *testing.B) {
			p, st := warmState(b, symsim.BM32, "tHold")
			sims := make([]*vvp.Simulator, lanes)
			for i := range sims {
				sims[i] = vvp.New(p.Design, vvp.Options{Engine: vvp.EngineKernel, DisableSymbolic: true})
				sims[i].BindStimulus(p.Stimulus())
				if err := sims[i].Restore(p.Spec, st); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, sim := range sims {
					if _, err := sim.Step(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.N)*float64(lanes)/b.Elapsed().Seconds(), "lane-steps/s")
		})
		b.Run(fmt.Sprintf("batch/lanes=%d", lanes), func(b *testing.B) {
			p, st := warmState(b, symsim.BM32, "tHold")
			bs := vvp.NewBatchSim(p.Design, vvp.BatchOptions{})
			bs.BindStimulus(p.Stimulus())
			for l := 0; l < lanes; l++ {
				if err := bs.RestoreLane(p.Spec, st, l); err != nil {
					b.Fatal(err)
				}
			}
			// Two untimed clock cycles first: the NBA queue is a pair of
			// buffers swapped at every drain and each grows to its
			// steady-state capacity on its first posedge, which a
			// 2-iteration run would otherwise report as allocs/op.
			for i := 0; i < 4; i++ {
				if _, _, err := bs.StepAll(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := bs.StepAll(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(lanes)/b.Elapsed().Seconds(), "lane-steps/s")
		})
	}
}

// BenchmarkBatchLaneTurnover measures what the explorer pays per path
// segment besides stepping: one op retires a lane, admits the next state
// into the slot and snapshots it, on BM32/tHold with 0, 3 and 15 other
// lanes occupied. Admissions alternate between two states ten clock cycles
// apart — about one Table-4 segment — so each one re-evaluates a real
// difference; evals/op is the gate visits that costs (the design has
// 17,534 gates), and the occupied lanes show what a shared settle adds.
func BenchmarkBatchLaneTurnover(b *testing.B) {
	for _, others := range []int{0, 3, 15} {
		others := others
		b.Run(fmt.Sprintf("others=%d", others), func(b *testing.B) {
			p, st := warmState(b, symsim.BM32, "tHold")
			states := [2]vvp.State{st, stateCyclesLater(b, p, st, 10)}
			bs := vvp.NewBatchSim(p.Design, vvp.BatchOptions{})
			bs.BindStimulus(p.Stimulus())
			for l := 0; l <= others; l++ {
				if err := bs.RestoreLane(p.Spec, st, l); err != nil {
					b.Fatal(err)
				}
			}
			lane := others
			var snap vvp.State
			b.ReportAllocs()
			b.ResetTimer()
			e0 := bs.Evals()
			for i := 0; i < b.N; i++ {
				bs.RetireLane(lane)
				if err := bs.RestoreLane(p.Spec, states[(i+1)&1], lane); err != nil {
					b.Fatal(err)
				}
				snap = bs.SnapshotLane(p.Spec, lane, snap)
			}
			b.ReportMetric(float64(bs.Evals()-e0)/float64(b.N), "evals/op")
			if snap.Time != states[b.N&1].Time {
				b.Fatalf("snapshot at t=%d, restored t=%d", snap.Time, states[b.N&1].Time)
			}
		})
	}
}
