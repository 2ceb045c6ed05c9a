package core_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"symsim/internal/core"
	"symsim/internal/cpu/dr5"
	"symsim/internal/csm"
	"symsim/internal/isa/rv32"
	"symsim/internal/logic"
	"symsim/internal/netlist"
	"symsim/internal/obs"
	"symsim/internal/vvp"
)

// buildLoop assembles the X-bounded counter loop (the canonical
// multi-path program: one fork per loop iteration until the CSM merges)
// and returns a fresh dr5 platform for it. mask bounds the trip count.
func buildLoop(t *testing.T, mask int) *core.Platform {
	t.Helper()
	a := rv32.NewAsm()
	a.XWord(0)
	a.LW(rv32.T0, rv32.X0, 0)
	a.ANDI(rv32.T0, rv32.T0, int32(mask))
	a.LI(rv32.T1, 0)
	a.Label("loop")
	a.ADDI(rv32.T1, rv32.T1, 1)
	a.ADDI(rv32.T0, rv32.T0, -1)
	a.BNE(rv32.T0, rv32.X0, "loop")
	a.SW(rv32.T1, rv32.X0, 4)
	a.Halt()
	img, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	p, err := dr5.Build(img)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// tieOffsEqual compares two tie-off lists elementwise.
func tieOffsEqual(a, b []netlist.TieOff) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Misconfigured runs must fail up front with a typed ValidationError
// naming the offending field, not a silent default or a worker panic.
func TestValidateRejectsBadConfig(t *testing.T) {
	good := buildLoop(t, 0x3)
	cases := []struct {
		name  string
		p     *core.Platform
		cfg   core.Config
		field string
	}{
		{"nil platform", nil, core.Config{}, "Platform"},
		{"nil design", &core.Platform{Spec: good.Spec, HalfPeriod: 5}, core.Config{}, "Platform.Design"},
		{"nil spec", &core.Platform{Design: good.Design, HalfPeriod: 5}, core.Config{}, "Platform.Spec"},
		{"zero half-period", &core.Platform{Design: good.Design, Spec: good.Spec}, core.Config{}, "Platform.HalfPeriod"},
		{"negative workers", good, core.Config{Workers: -1}, "Config.Workers"},
		{"negative wall clock", good, core.Config{Budget: core.Budget{WallClock: -time.Second}}, "Config.Budget.WallClock"},
		{"negative fork budget", good, core.Config{Budget: core.Budget{MaxForks: -1}}, "Config.Budget.MaxForks"},
		{"empty checkpoint path", good, core.Config{Checkpoint: &core.CheckpointConfig{}}, "Config.Checkpoint.Path"},
		{"negative checkpoint interval", good, core.Config{Checkpoint: &core.CheckpointConfig{Path: "x", Interval: -1}}, "Config.Checkpoint.Interval"},
		{"negative progress interval", good, core.Config{ProgressEvery: -1}, "Config.ProgressEvery"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := core.Analyze(tc.p, tc.cfg)
			var verr *core.ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("want ValidationError, got %v", err)
			}
			if verr.Field != tc.field {
				t.Errorf("field = %q, want %q", verr.Field, tc.field)
			}
		})
	}
}

// Per-path statistics must come back in path-ID order regardless of the
// nondeterministic completion order of parallel workers.
func TestPathsSortedByIDUnderParallelWorkers(t *testing.T) {
	p := buildLoop(t, 0xF)
	res, err := core.Analyze(p, core.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("run did not complete")
	}
	for i := 1; i < len(res.Paths); i++ {
		if res.Paths[i-1].ID >= res.Paths[i].ID {
			t.Fatalf("paths not sorted by ID: %d then %d at index %d",
				res.Paths[i-1].ID, res.Paths[i].ID, i)
		}
	}
	if len(res.Paths) < 3 {
		t.Fatalf("expected a multi-path run, got %d paths", len(res.Paths))
	}
}

// forEngine runs f once per simulation engine. The governance properties
// below are the explorer's, so each must hold on every engine it drives:
// the one-lane scalar engines and the batch engine's shared lanes. The race
// detector slows the interpreter the most and it takes the same one-lane
// path through the explorer as the kernel, so race runs drop that leg.
func forEngine(t *testing.T, f func(t *testing.T, eng vvp.Engine)) {
	engines := []vvp.Engine{vvp.EngineKernel, vvp.EngineInterp, vvp.EngineBatch}
	if raceDetector {
		engines = []vvp.Engine{vvp.EngineKernel, vvp.EngineBatch}
	}
	for _, eng := range engines {
		t.Run(eng.String(), func(t *testing.T) { f(t, eng) })
	}
}

// soundAgainst fails when the degraded run res proves a gate unexercisable
// that the full run exercised: degradation may only over-approximate.
func soundAgainst(t *testing.T, res, full *core.Result) {
	t.Helper()
	for gi := range res.ExercisableGates {
		if !res.ExercisableGates[gi] && full.ExercisableGates[gi] {
			t.Fatalf("gate %d proven unexercisable by the degraded run but exercisable in the full run", gi)
		}
	}
}

// A canceled context must stop the run cleanly: no error, a sound
// Complete=false result blaming the cancellation, every goroutine joined,
// and a final progress heartbeat delivered.
func TestCancellationReturnsPartialResultWithoutLeaks(t *testing.T) {
	full, err := core.Analyze(buildLoop(t, 0xFF), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	forEngine(t, func(t *testing.T, eng vvp.Engine) {
		p := buildLoop(t, 0xFF)
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already canceled: the run must stop almost immediately

		before := runtime.NumGoroutine()
		var beats atomic.Int64
		start := time.Now()
		res, err := core.AnalyzeContext(ctx, p, core.Config{
			Engine:        eng,
			Workers:       4,
			Progress:      func(core.Progress) { beats.Add(1) },
			ProgressEvery: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("cancellation took %v to honour", elapsed)
		}
		if res.Complete {
			t.Fatal("canceled run reported Complete")
		}
		if res.Degradation == nil || res.Degradation.Trip != core.TripCanceled {
			t.Fatalf("degradation = %+v, want TripCanceled", res.Degradation)
		}
		if beats.Load() == 0 {
			t.Error("no progress heartbeat delivered")
		}
		// The degraded dichotomy stays sound: with no (or partial)
		// exploration, unexplored behaviour must be over-approximated, never
		// reported as proven-unexercisable gates it didn't prove.
		soundAgainst(t, res, full)
		checkAccounting(t, "canceled", res)

		// All explorer/watcher/heartbeat goroutines must have joined.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
		}
	})
}

// A tripped fork budget must degrade gracefully: no error, Complete=false,
// pending paths force-merged, and a never-exercisable set that is a subset
// of the full run's (degradation only over-approximates).
func TestForkBudgetDegradesSoundly(t *testing.T) {
	full, err := core.Analyze(buildLoop(t, 0xF), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Complete {
		t.Fatal("unbudgeted run did not complete")
	}
	forEngine(t, func(t *testing.T, eng vvp.Engine) {
		reg := obs.NewRegistry()
		res, err := core.Analyze(buildLoop(t, 0xF), core.Config{Engine: eng, Budget: core.Budget{MaxForks: 1}, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if res.Complete {
			t.Fatal("budgeted run reported Complete")
		}
		deg := res.Degradation
		if deg == nil || deg.Trip != core.TripForks {
			t.Fatalf("degradation = %+v, want TripForks", deg)
		}
		if got := reg.CounterVec("symsim_budget_trips_total", "", "trip").With("fork-budget").Value(); got != 1 {
			t.Errorf(`symsim_budget_trips_total{trip="fork-budget"} = %d, want 1`, got)
		}
		if deg.PendingPaths == 0 || deg.ForcedMerges == 0 {
			t.Errorf("degradation did not drain: %+v", deg)
		}
		if deg.ConeNets == 0 {
			t.Error("degradation marked no cone nets")
		}
		soundAgainst(t, res, full)
		if res.ExercisableCount < full.ExercisableCount {
			t.Errorf("degraded run claims fewer exercisable gates (%d) than the full run (%d)",
				res.ExercisableCount, full.ExercisableCount)
		}
		checkAccounting(t, "fork budget", res)
	})
}

// The cycle budget must interrupt even a single long-running path segment
// mid-simulation.
func TestCycleBudgetInterruptsMidSegment(t *testing.T) {
	forEngine(t, func(t *testing.T, eng vvp.Engine) {
		res, err := core.Analyze(buildLoop(t, 0xFF), core.Config{Engine: eng, Budget: core.Budget{MaxCycles: 40}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Complete {
			t.Fatal("cycle-budgeted run reported Complete")
		}
		if res.Degradation.Trip != core.TripCycles {
			t.Fatalf("trip = %v, want cycle-budget", res.Degradation.Trip)
		}
		checkAccounting(t, "cycle budget", res)
	})
}

// The wall-clock budget is a Budget trip, distinct from cancellation. The
// exact (no-merge) policy turns the 255-iteration X loop into a path
// enumeration far outlasting the one-millisecond budget.
func TestWallClockBudgetTrips(t *testing.T) {
	forEngine(t, func(t *testing.T, eng vvp.Engine) {
		res, err := core.Analyze(buildLoop(t, 0xFF), core.Config{
			Engine: eng,
			Policy: csm.NewExact(0),
			Budget: core.Budget{WallClock: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Complete {
			t.Fatal("wall-clock-budgeted run reported Complete")
		}
		if res.Degradation.Trip != core.TripWallClock {
			t.Fatalf("trip = %v, want wall-clock", res.Degradation.Trip)
		}
		checkAccounting(t, "wall clock", res)
	})
}

// A panic in a path segment must be contained, not crash the analysis: the
// panic value and stack are preserved in a Quarantine record and the rest
// of the run proceeds. The hook panics once, either on the cold-boot path
// or on the first forked path to halt — on the batch engine that one is a
// lane path, whose OnHalt call runs while sibling lanes are occupied.
func TestPanicIsQuarantined(t *testing.T) {
	for _, tc := range []struct {
		name string
		hit  func(id int) bool
	}{
		{"cold-boot path", func(id int) bool { return id == 0 }},
		{"forked path", func(id int) bool { return id != 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forEngine(t, func(t *testing.T, eng vvp.Engine) {
				var panicked atomic.Bool
				var victim atomic.Int64
				reg := obs.NewRegistry()
				res, err := core.Analyze(buildLoop(t, 0x3), core.Config{
					Engine:  eng,
					Metrics: reg,
					OnHalt: func(id int, st vvp.State) {
						if tc.hit(id) && !panicked.Swap(true) {
							victim.Store(int64(id))
							panic("injected fault in halt hook")
						}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if !panicked.Load() {
					t.Fatal("the hook never fired")
				}
				if res.Complete {
					t.Fatal("run with a quarantined path reported Complete")
				}
				deg := res.Degradation
				if deg == nil || len(deg.Quarantined) == 0 {
					t.Fatalf("degradation = %+v, want a quarantined path", deg)
				}
				// A scalar engine loses exactly the panicking path; the
				// batch engine loses every lane that shared the simulator.
				if eng != vvp.EngineBatch && len(deg.Quarantined) != 1 {
					t.Errorf("%d paths quarantined on a one-lane engine, want 1", len(deg.Quarantined))
				}
				if deg.Trip != core.TripNone {
					t.Errorf("trip = %v, want none (quarantine only)", deg.Trip)
				}
				ended := map[int]core.PathEnd{}
				for _, ps := range res.Paths {
					ended[ps.ID] = ps.End
				}
				sawVictim := false
				for _, q := range deg.Quarantined {
					if !strings.Contains(q.Panic, "injected fault") || !strings.Contains(q.Stack, "goroutine") {
						t.Errorf("quarantine record incomplete: %+v", q)
					}
					// The quarantined segment shows up in the per-path stats too.
					if ended[q.PathID] != core.EndQuarantined {
						t.Errorf("path %d quarantined but its stat ends %v", q.PathID, ended[q.PathID])
					}
					sawVictim = sawVictim || q.PathID == int(victim.Load())
				}
				if !sawVictim {
					t.Errorf("panicking path %d has no quarantine record: %+v", victim.Load(), deg.Quarantined)
				}
				if got := reg.Counter("symsim_quarantines_total", "").Value(); got != uint64(len(deg.Quarantined)) {
					t.Errorf("symsim_quarantines_total = %d, want %d quarantined paths", got, len(deg.Quarantined))
				}
				checkAccounting(t, "quarantine", res)
			})
		})
	}
}

// Kill-and-resume on dr5: a run killed by a fork budget writes its final
// checkpoint before force-merging; resuming from it must reproduce the
// uninterrupted run's tie-off list exactly.
func TestKillAndResumeReproducesTieOffs(t *testing.T) {
	full, err := core.Analyze(buildLoop(t, 0xF), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	forEngine(t, func(t *testing.T, eng vvp.Engine) {
		ck := t.TempDir() + "/run.ckpt"
		killed, err := core.Analyze(buildLoop(t, 0xF), core.Config{
			Engine:     eng,
			Budget:     core.Budget{MaxForks: 2},
			Checkpoint: &core.CheckpointConfig{Path: ck},
		})
		if err != nil {
			t.Fatal(err)
		}
		if killed.Complete {
			t.Fatal("budgeted run reported Complete")
		}
		checkAccounting(t, "killed", killed)

		ckpt, err := core.LoadCheckpoint(ck)
		if err != nil {
			t.Fatal(err)
		}
		if len(ckpt.Pending) == 0 {
			t.Fatal("final checkpoint has no pending frontier")
		}
		resumed, err := core.Analyze(buildLoop(t, 0xF), core.Config{Engine: eng, Resume: ckpt})
		if err != nil {
			t.Fatal(err)
		}
		if !resumed.Complete {
			t.Fatalf("resumed run did not complete: %+v", resumed.Degradation)
		}

		if resumed.ExercisableCount != full.ExercisableCount {
			t.Errorf("resumed exercisable = %d, uninterrupted = %d",
				resumed.ExercisableCount, full.ExercisableCount)
		}
		if !tieOffsEqual(resumed.TieOffs(), full.TieOffs()) {
			t.Error("resumed tie-off list differs from the uninterrupted run's")
		}
	})
}

// A constrained run's checkpoint may hold several states under one PC (a
// run could write one while cold PCs were merged lazily, by fork heat).
// The one-state-per-PC table folds them on import, and the resumed run
// still reaches the uninterrupted dichotomy.
func TestResumeFoldsMultiStateConstrainedCheckpoint(t *testing.T) {
	constrained := func(p *core.Platform) csm.Manager {
		m, err := csm.NewConstrained(p.Spec.Bits(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	p := buildLoop(t, 0xF)
	full, err := core.Analyze(p, core.Config{Policy: constrained(p)})
	if err != nil {
		t.Fatal(err)
	}
	ck := t.TempDir() + "/run.ckpt"
	if _, err := core.Analyze(p, core.Config{
		Policy:     constrained(p),
		Budget:     core.Budget{MaxForks: 2},
		Checkpoint: &core.CheckpointConfig{Path: ck},
	}); err != nil {
		t.Fatal(err)
	}
	ckpt, err := core.LoadCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	// Split every stored state on its first X bit: two narrower states
	// per PC whose merge is the original.
	var split []csm.SavedState
	for _, s := range ckpt.CSM {
		x := -1
		for b := 0; b < s.Bits.Width() && x < 0; b++ {
			if s.Bits.Get(b) == logic.X {
				x = b
			}
		}
		if x < 0 {
			split = append(split, s)
			continue
		}
		for _, v := range []logic.Value{logic.Lo, logic.Hi} {
			half := s.Bits.Clone()
			half.Set(x, v)
			split = append(split, csm.SavedState{PC: s.PC, Bits: half})
		}
	}
	if len(split) == len(ckpt.CSM) {
		t.Fatal("no stored state had an X bit to split on")
	}
	ckpt.CSM = split

	resumed, err := core.Analyze(p, core.Config{Policy: constrained(p), Resume: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Complete {
		t.Fatalf("resumed run did not complete: %+v", resumed.Degradation)
	}
	if resumed.CSMStates != full.CSMStates {
		t.Errorf("resumed run ends with %d conservative states, uninterrupted %d", resumed.CSMStates, full.CSMStates)
	}
	if !tieOffsEqual(resumed.TieOffs(), full.TieOffs()) {
		t.Error("resumed tie-off list differs from the uninterrupted run's")
	}
}

// Resuming against the wrong platform or policy must be rejected by
// checkpoint validation, not produce a silently unsound run.
func TestResumeValidation(t *testing.T) {
	ck := t.TempDir() + "/run.ckpt"
	if _, err := core.Analyze(buildLoop(t, 0x3), core.Config{
		Budget:     core.Budget{MaxForks: 1},
		Checkpoint: &core.CheckpointConfig{Path: ck},
	}); err != nil {
		t.Fatal(err)
	}
	ckpt, err := core.LoadCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}

	wrong := *ckpt
	wrong.Design = "someone-else"
	if _, err := core.Analyze(buildLoop(t, 0x3), core.Config{Resume: &wrong}); err == nil {
		t.Error("resume accepted a checkpoint for a different design")
	}
	wrong = *ckpt
	wrong.Policy = "exact"
	if _, err := core.Analyze(buildLoop(t, 0x3), core.Config{Resume: &wrong}); err == nil {
		t.Error("resume accepted a checkpoint from a different CSM policy")
	}

	// Another program on the same processor agrees with the checkpoint on
	// name, net count and state bits; only the design hash tells them
	// apart.
	var verr *core.ValidationError
	_, err = core.Analyze(buildLoop(t, 0x7), core.Config{Resume: ckpt})
	if !errors.As(err, &verr) || verr.Field != "Config.Resume" {
		t.Errorf("resume under another image of dr5: err = %v, want a ValidationError on Config.Resume", err)
	}
}

// A checkpoint written before the design hash was recorded has no trailer.
// It must still load, re-encode to the bytes on disk, and resume to the
// uninterrupted run's tie-offs. testdata/pr16_dr5_loop_0xF.ckpt is the
// final checkpoint of buildLoop(0xF) under Budget.MaxForks 2, written by
// the commit before the field was added.
func TestResumeFromCheckpointWithoutDesignHash(t *testing.T) {
	const path = "testdata/pr16_dr5_loop_0xF.ckpt"
	ckpt, err := core.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.DesignHash != (netlist.Digest{}) {
		t.Fatalf("file carries design hash %s", ckpt.DesignHash)
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt.EncodeBinary(), disk) {
		t.Error("checkpoint does not re-encode to the bytes on disk")
	}
	full, err := core.Analyze(buildLoop(t, 0xF), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := core.Analyze(buildLoop(t, 0xF), core.Config{Resume: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Complete || !tieOffsEqual(resumed.TieOffs(), full.TieOffs()) {
		t.Errorf("resumed run: complete=%v, tie-offs equal=%v", resumed.Complete, tieOffsEqual(resumed.TieOffs(), full.TieOffs()))
	}
}

// Periodic checkpoints must decode to the exact state they encoded
// (pointer-free deep equality through the binary format).
func TestPeriodicCheckpointRoundTripsThroughDisk(t *testing.T) {
	forEngine(t, func(t *testing.T, eng vvp.Engine) {
		ck := t.TempDir() + "/run.ckpt"
		if _, err := core.Analyze(buildLoop(t, 0x7), core.Config{
			Engine:     eng,
			Checkpoint: &core.CheckpointConfig{Path: ck}, // Interval 0: every path
		}); err != nil {
			t.Fatal(err)
		}
		ckpt, err := core.LoadCheckpoint(ck)
		if err != nil {
			t.Fatal(err)
		}
		re, err := core.DecodeCheckpoint(ckpt.EncodeBinary())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ckpt, re) {
			t.Error("checkpoint does not survive an encode/decode round trip")
		}
	})
}

// A final checkpoint that cannot be written fails the run the way a failed
// periodic one does. The hour-long interval leaves the write at the end of
// the budget-tripped run as the only one.
func TestFinalCheckpointErrorIsReturned(t *testing.T) {
	ck := t.TempDir() + "/missing/run.ckpt"
	res, err := core.Analyze(buildLoop(t, 0xF), core.Config{
		Checkpoint: &core.CheckpointConfig{Path: ck, Interval: time.Hour},
		Budget:     core.Budget{MaxForks: 5},
	})
	if err == nil {
		t.Fatalf("run with an unwritable final checkpoint returned no error (complete=%v)", res.Complete)
	}
}
