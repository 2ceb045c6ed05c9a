// Benchmarks for the bit-parallel batched kernel: the tentpole claim is
// that packing N scenarios into the two-bitplane lanes of one BatchSim
// multiplies aggregate Table-4 throughput over running N scalar kernel
// simulators, because one sweep over the level-major program serves all
// lanes. `make bench` snapshots these under BENCH_batch.json; the
// acceptance comparison is aggregate lane-steps/s of batch vs scalar at
// equal lane counts N >= 8, plus 0 allocs/op at steady state, and the cost
// of turning a lane over between path segments.
package symsim_test

import (
	"fmt"
	"testing"

	"symsim"
	"symsim/internal/vvp"
)

// warmState builds the platform, runs a scalar simulator past reset and
// returns everything needed to admit lanes at that state.
func warmState(b testing.TB, d symsim.Design, bench string) (*symsim.Platform, vvp.State) {
	b.Helper()
	p, err := symsim.BuildPlatform(d, bench)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Design.Freeze(); err != nil {
		b.Fatal(err)
	}
	warm := vvp.New(p.Design, vvp.Options{DisableSymbolic: true})
	warm.SetMonitorX(&p.Monitor)
	warm.BindStimulus(p.Stimulus())
	for warm.Now() <= uint64(2*p.ResetCycles)*p.HalfPeriod+1 {
		if _, err := warm.Step(); err != nil {
			b.Fatal(err)
		}
	}
	return p, warm.Snapshot(p.Spec)
}

// BenchmarkBatchKernelSweep measures one steady-state stimulus step of N
// concurrent scenarios, free-running BM32/tHold from the same post-reset
// state. scalar-N steps N independent compiled-kernel simulators; batch-N
// packs the N scenarios as lanes of one BatchSim, so every sweep over the
// level bitmap serves all N at once. ns/op is the cost of advancing ALL N
// scenarios by one half-period; lane-steps/s is the aggregate throughput
// the speedup claim is computed from.
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

// BenchmarkBatchAnalyze runs the whole co-analysis on the fork-heaviest
// cell under the scalar kernel (one lane per explorer) and the batch engine
// (up to 64 lanes) — the end-to-end counterpart of BenchmarkBatchKernelSweep,
// where lane occupancy comes from real forked paths instead of replicated
// scenarios.
func BenchmarkBatchAnalyze(b *testing.B) {
	for _, eng := range []struct {
		name string
		e    symsim.SimEngine
	}{
		{"kernel", symsim.EngineKernel},
		{"batch", symsim.EngineBatch},
	} {
		eng := eng
		b.Run(eng.name, func(b *testing.B) {
			var res *symsim.Result
			for i := 0; i < b.N; i++ {
				res = analyzeOnce(b, symsim.BM32, "inSort", symsim.Config{Engine: eng.e})
			}
			b.ReportMetric(float64(res.PathsCreated), "paths")
			b.ReportMetric(float64(res.SimulatedCycles), "cycles")
			b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/float64(res.SimulatedCycles), "ns/cycle")
		})
	}
}
