package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"symsim/internal/bespoke"
	"symsim/internal/core"
	"symsim/internal/csm"
	"symsim/internal/lint"
	"symsim/internal/netlist"
	"symsim/internal/obs"
	"symsim/internal/report"
	"symsim/internal/vvp"
)

// Direct-drive probes: each layer's exported functions called and timed
// from here, on fixed inputs, the same in every traced run whatever the
// workload. They are what a layer optimisation is judged on when its share
// of a round is too small to show end to end.

// probeReps is how often a millisecond-scale probe repeats; the median is
// reported.
const probeReps = 3

// loopReps is how often a microsecond-scale call repeats inside one timing.
const loopReps = 100

func timeMs(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0)) / 1e6
}

// medianMs runs f probeReps times and returns the median milliseconds.
func medianMs(f func()) float64 {
	var xs []float64
	for i := 0; i < probeReps; i++ {
		xs = append(xs, timeMs(f))
	}
	return median(xs)
}

// perCall times n calls of f and returns the mean in the unit whose size
// in nanoseconds is unitNs.
func perCall(n int, unitNs float64, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t0)) / unitNs / float64(n)
}

// probes runs every direct-drive probe and stores its metrics in m. tmp is
// a scratch directory inside the checkout.
func probes(m map[string]float64, tmp string) error {
	for _, d := range report.Designs {
		if err := designProbes(m, d); err != nil {
			return fmt.Errorf("probes on %s: %w", d, err)
		}
	}
	if err := batchProbes(m); err != nil {
		return fmt.Errorf("batch probes: %w", err)
	}
	if err := haltStreamProbes(m, tmp); err != nil {
		return fmt.Errorf("halt-stream probes: %w", err)
	}
	return bespokeProbe(m)
}

// newSim builds a bare simulator the way core's path workers do.
func newSim(p *core.Platform) *vvp.Simulator {
	sim := vvp.New(p.Design, vvp.Options{})
	sim.SetMonitorX(&p.Monitor)
	sim.BindStimulus(p.Stimulus())
	return sim
}

// resetEnd is the time recording starts at: right after reset deasserts
// (core's resetEndTime).
func resetEnd(p *core.Platform) uint64 {
	return uint64(2*p.ResetCycles)*p.HalfPeriod + 1
}

// runTo steps sim until it leaves Running, as core.runSegment does, and
// returns the status and the number of steps taken.
func runTo(sim *vvp.Simulator, p *core.Platform) (vvp.Status, int, error) {
	steps := 0
	for sim.Now() <= resetEnd(p) {
		if _, err := sim.Step(); err != nil {
			return 0, steps, err
		}
		steps++
	}
	sim.StartRecording()
	for {
		st, err := sim.Step()
		steps++
		if err != nil || st != vvp.Running {
			return st, steps, err
		}
		if steps > 1<<22 {
			return st, steps, fmt.Errorf("no halt within %d steps", steps)
		}
	}
}

func designProbes(m map[string]float64, d report.Design) error {
	name := string(d)
	var p *core.Platform
	var err error
	m["report.build_platform_ms."+name] = medianMs(func() {
		if err == nil {
			p, err = report.BuildPlatform(d, "tea8")
		}
	})
	if err != nil {
		return err
	}

	// Freeze and Hash cache on a frozen netlist, so they are timed on
	// unfrozen copies read back from the design's own serialisation.
	// Freeze compiles the level-major Program eagerly; the two cannot be
	// told apart from outside.
	var ser bytes.Buffer
	if err := p.Design.Write(&ser); err != nil {
		return err
	}
	var freezeMs, hashMs []float64
	for i := 0; i < probeReps; i++ {
		raw, err := netlist.ReadRaw(bytes.NewReader(ser.Bytes()))
		if err != nil {
			return err
		}
		hashMs = append(hashMs, timeMs(func() { raw.Hash() }))
		var ferr error
		freezeMs = append(freezeMs, timeMs(func() { ferr = raw.Freeze() }))
		if ferr != nil {
			return ferr
		}
	}
	m["netlist.hash_ms."+name] = median(hashMs)
	m["netlist.freeze_ms."+name] = median(freezeMs)
	m["lint.run_ms."+name] = medianMs(func() { lint.Run(p.Design, p.LintOptions()) })

	// Replay of the tea8 cold-boot path on a bare simulator: one path, no
	// forks, symbolic mode on.
	var stepNs, newUs []float64
	var steps int
	var sim *vvp.Simulator
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		sim = newSim(p)
		newUs = append(newUs, float64(time.Since(t0))/1e3)
		t0 = time.Now()
		st, n, err := runTo(sim, p)
		wall := time.Since(t0)
		if err != nil {
			return err
		}
		if st != vvp.Finished {
			return fmt.Errorf("tea8 replay ended %v, want finished", st)
		}
		steps = n
		stepNs = append(stepNs, float64(wall)/float64(n))
	}
	cycles := float64(sim.Cycles())
	m["vvp.new_us."+name] = median(newUs)
	m["vvp.step_ns."+name] = median(stepNs)
	m["vvp.evals_per_cycle."+name] = ratio(float64(sim.Evals()), cycles)
	m["vvp.sweeps_per_cycle."+name] = ratio(float64(sim.Sweeps()), cycles)
	if d == report.BM32 {
		m["vvp.steps_per_cycle"] = ratio(float64(steps), cycles)
	}

	// Fork-time state handling, on the first halt state of tHold.
	ph, err := report.BuildPlatform(d, "tHold")
	if err != nil {
		return err
	}
	hs := newSim(ph)
	if st, _, err := runTo(hs, ph); err != nil || st != vvp.HaltX {
		return fmt.Errorf("tHold replay ended %v (%v), want a halt", st, err)
	}
	var st vvp.State
	m["vvp.snapshot_us."+name] = perCall(loopReps, 1e3, func() { st = hs.Snapshot(ph.Spec) })
	m["vvp.state_clone_us."+name] = perCall(loopReps, 1e3, func() { _ = st.Clone() })
	// The compact canonical encoding is what checkpoints and fleet work
	// units carry.
	var enc []byte
	m["vvp.state_marshal_us."+name] = perCall(loopReps, 1e3, func() { enc = st.AppendBinary(enc[:0]) })
	m["vvp.state_bytes."+name] = float64(len(enc))
	var derr error
	m["vvp.state_decode_us."+name] = perCall(loopReps, 1e3, func() {
		if _, _, err := vvp.DecodeState(enc); err != nil {
			derr = err
		}
	})
	if derr != nil {
		return derr
	}
	var rerr error
	m["vvp.restore_us."+name] = perCall(loopReps, 1e3, func() {
		if err := hs.Restore(ph.Spec, st); err != nil {
			rerr = err
		}
	})
	return rerr
}

// batchProbes measures one steady-state stimulus step of N scenarios
// packed as lanes of one BatchSim, free-running bm32/tHold from the same
// post-reset state — the load BenchmarkBatchKernelSweep applies.
func batchProbes(m map[string]float64) error {
	p, err := report.BuildPlatform(report.BM32, "tHold")
	if err != nil {
		return err
	}
	warm := vvp.New(p.Design, vvp.Options{DisableSymbolic: true})
	warm.SetMonitorX(&p.Monitor)
	warm.BindStimulus(p.Stimulus())
	for warm.Now() <= resetEnd(p) {
		if _, err := warm.Step(); err != nil {
			return err
		}
	}
	st := warm.Snapshot(p.Spec)
	for _, lanes := range []int{1, 8, 64} {
		bs := vvp.NewBatchSim(p.Design, vvp.BatchOptions{})
		bs.BindStimulus(p.Stimulus())
		for l := 0; l < lanes; l++ {
			if err := bs.RestoreLane(p.Spec, st, l); err != nil {
				return err
			}
		}
		var serr error
		step := func() {
			if _, _, err := bs.StepAll(); err != nil {
				serr = err
			}
		}
		perCall(loopReps, 1, step) // queue warm-up
		ns := perCall(4*loopReps, 1, step)
		if serr != nil {
			return serr
		}
		m[fmt.Sprintf("vvp.batch_lane_step_ns.l%d", lanes)] = ns / float64(lanes)
	}
	return nil
}

// haltStreamProbes captures the halt states of one inSort/bm32 analysis
// and replays them into fresh managers — the csm layer used directly, not
// through core — then times the vector operations behind Observe and the
// checkpoint codec on the same run's state.
func haltStreamProbes(m map[string]float64, tmp string) error {
	p, err := report.BuildPlatform(report.BM32, "inSort")
	if err != nil {
		return err
	}
	var halts []vvp.State
	if _, err := core.Analyze(p, core.Config{
		Metrics: obs.NewRegistry(),
		OnHalt:  func(_ int, st vvp.State) { halts = append(halts, st.Clone()) },
	}); err != nil {
		return err
	}
	if len(halts) < 2 {
		return fmt.Errorf("captured %d halt states", len(halts))
	}

	var merged csm.Manager
	for _, pol := range []struct {
		name string
		mk   func() csm.Manager
	}{
		{"mergeall", csm.NewMergeAll},
		{"clustered4", func() csm.Manager { return csm.NewClustered(4) }},
		{"exact64", func() csm.Manager { return csm.NewExact(64) }},
	} {
		var us []float64
		for i := 0; i < probeReps; i++ {
			mgr := pol.mk()
			// Observe may keep the state it is handed.
			in := make([]vvp.State, len(halts))
			for j := range halts {
				in[j] = halts[j].Clone()
			}
			t0 := time.Now()
			for j := range in {
				mgr.Observe(in[j])
			}
			us = append(us, float64(time.Since(t0))/1e3/float64(len(in)))
			merged = mgr
		}
		m["csm.replay_observe_us."+pol.name] = median(us)
	}
	// merged is the exact-64 manager, the one holding the most states.
	var saved []csm.SavedState
	m["csm.export_ms"] = medianMs(func() { saved = merged.Export() })
	var ierr error
	m["csm.import_ms"] = medianMs(func() {
		if err := csm.NewExact(64).Import(saved); err != nil {
			ierr = err
		}
	})
	if ierr != nil {
		return ierr
	}

	a, b := halts[0].Bits, halts[len(halts)-1].Bits
	m["logic.vec_subset_ns"] = perCall(100*loopReps, 1, func() { _ = a.Subset(b) })
	m["logic.vec_merge_ns"] = perCall(100*loopReps, 1, func() { _ = a.Merge(b) })

	// A fork budget degrades the run at a fixed point; the final
	// checkpoint written there holds the CSM, the frontier and the toggle
	// profile of a run in mid-flight, the same bytes every time.
	path := filepath.Join(tmp, "probe.ckpt")
	defer os.Remove(path)
	if _, err := core.Analyze(p, core.Config{
		Metrics:    obs.NewRegistry(),
		Budget:     core.Budget{MaxForks: 40},
		Checkpoint: &core.CheckpointConfig{Path: path, Interval: time.Hour},
	}); err != nil {
		return err
	}
	ck, err := core.LoadCheckpoint(path)
	if err != nil {
		return err
	}
	var enc []byte
	m["core.checkpoint_encode_ms"] = medianMs(func() { enc = ck.EncodeBinary() })
	m["core.checkpoint_bytes"] = float64(len(enc))
	var derr error
	m["core.checkpoint_decode_ms"] = medianMs(func() {
		if _, err := core.DecodeCheckpoint(enc); err != nil {
			derr = err
		}
	})
	return derr
}

// bespokeProbe times the product's last step, outside every round.
func bespokeProbe(m map[string]float64) error {
	p, err := report.BuildPlatform(report.BM32, "tHold")
	if err != nil {
		return err
	}
	res, err := core.Analyze(p, core.Config{Metrics: obs.NewRegistry()})
	if err != nil {
		return err
	}
	var gerr error
	m["bespoke.generate_ms.bm32"] = medianMs(func() {
		if _, err := bespoke.Generate(res); err != nil {
			gerr = err
		}
	})
	return gerr
}
