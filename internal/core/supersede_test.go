package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"symsim/internal/core"
	"symsim/internal/csm"
	"symsim/internal/report"
	"symsim/internal/vvp"
)

// abPolicies are the four CSM policies of the A/B oracle, built fresh per
// run (a CSM is stateful). The constrained fact pins pc[0], which is 0 at
// every PC of all three word-aligned cores — a true fact, so the policy is
// exercised without giving up soundness.
var abPolicies = []struct {
	name string
	mk   func(p *core.Platform) (csm.Manager, error)
}{
	{"merge-all", func(*core.Platform) (csm.Manager, error) { return csm.NewMergeAll(), nil }},
	{"clustered", func(*core.Platform) (csm.Manager, error) { return csm.NewClustered(4), nil }},
	// 64 states keeps Div's 2^13-path enumeration out of a tier-1 test;
	// past the budget exact degrades to merging, which the oracle covers
	// as well.
	{"exact", func(*core.Platform) (csm.Manager, error) { return csm.NewExact(64), nil }},
	{"constrained", func(p *core.Platform) (csm.Manager, error) {
		return csm.NewConstrained(p.Spec.Bits(), []csm.Constraint{{AnyPC: true, Bit: 0}})
	}},
}

// abRun is one co-analysis of the A/B oracle: the result plus the CSM's
// final contents.
func abRun(t *testing.T, p *core.Platform, cfg core.Config, mk func(*core.Platform) (csm.Manager, error)) (*core.Result, []csm.SavedState) {
	t.Helper()
	pol, err := mk(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = pol
	res, err := core.Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("run degraded: %+v", res.Degradation)
	}
	return res, pol.Export()
}

// sameDichotomy reports the first field in which two results' dichotomies
// differ, or "". ConstNets is compared on untoggled nets only: for a net
// that ends up toggled the slot keeps whichever constant was absorbed
// first, an artefact of segment order that nothing downstream reads.
func sameDichotomy(a, b *core.Result) string {
	if !reflect.DeepEqual(a.ToggledNets, b.ToggledNets) {
		return "ToggledNets"
	}
	for n, toggled := range a.ToggledNets {
		if !toggled && a.ConstNets[n] != b.ConstNets[n] {
			return "ConstNets"
		}
	}
	if !reflect.DeepEqual(a.ExercisableGates, b.ExercisableGates) {
		return "ExercisableGates"
	}
	if !tieOffsEqual(a.TieOffs(), b.TieOffs()) {
		return "TieOffs"
	}
	return ""
}

// sameExport compares two CSM exports state by state.
func sameExport(a, b []csm.SavedState) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].PC != b[i].PC || !a[i].Bits.Equal(b[i].Bits) {
			return false
		}
	}
	return true
}

// TestSupersessionABOracle is the whole-stack A/B check of frontier
// supersession: every cell runs once as plain Algorithm 1 (every pending
// entry simulated) and once with the rule on. Dropping an entry a wider
// sibling covers may never move the dichotomy — under merge-all provably
// (the per-PC table is the least fixpoint whatever the observation order,
// so the CSM export must match too), under the arrival-ordered policies
// as observed on this matrix: a cell that starts to differ is either a
// bug or a new arrival-order effect that DESIGN.md §5 must name.
func TestSupersessionABOracle(t *testing.T) {
	engines := []vvp.Engine{vvp.EngineKernel, vvp.EngineBatch}
	memxs := []vvp.MemXPolicy{vvp.MemXVerilog, vvp.MemXSound}
	designs := report.Designs
	if raceDetector {
		// Instrumented runs are ~20x slower and these are one-worker runs
		// with nothing for the detector to find that the smallest core
		// does not show; TestSupersessionWorkersAndResume is the
		// concurrent half.
		designs = []report.Design{report.OMSP430}
	}
	for _, d := range designs {
		for _, bench := range []string{"tHold", "Div", "inSort", "binSearch", "mult"} {
			d, bench := d, bench
			t.Run(fmt.Sprintf("%s/%s", d, bench), func(t *testing.T) {
				t.Parallel()
				p, err := report.BuildPlatform(d, bench)
				if err != nil {
					t.Fatal(err)
				}
				for _, pol := range abPolicies {
					for _, memx := range memxs {
						for _, eng := range engines {
							cell := fmt.Sprintf("%s/memx=%v/%v", pol.name, memx, eng)
							cfg := core.Config{MemX: memx, Engine: eng}
							off, offCSM := abRun(t, p, core.KeepSuperseded(cfg), pol.mk)
							on, onCSM := abRun(t, p, cfg, pol.mk)

							if off.PathsSuperseded != 0 {
								t.Errorf("%s: plain run superseded %d entries", cell, off.PathsSuperseded)
							}
							if field := sameDichotomy(off, on); field != "" {
								t.Errorf("%s: %s differs with supersession on", cell, field)
							}
							if pol.name == "merge-all" && !sameExport(offCSM, onCSM) {
								t.Errorf("%s: CSM export differs with supersession on", cell)
							}
							if on.SimulatedCycles > off.SimulatedCycles {
								t.Errorf("%s: cycles rose %d -> %d", cell, off.SimulatedCycles, on.SimulatedCycles)
							}
							// One worker pops LIFO, so a wider sibling and all its
							// descendants are explored before the narrower entry
							// comes up. Under merge-all everything the narrower
							// one could halt in is by then covered, so in the
							// plain run it forks nothing: each superseded entry
							// is exactly one plain-run segment that ended
							// subsumed or finished.
							if pol.name == "merge-all" && eng == vvp.EngineKernel {
								if on.PathsCreated != off.PathsCreated || len(on.Paths)+on.PathsSuperseded != len(off.Paths) {
									t.Errorf("%s: created %d, %d segments + %d superseded; plain run created %d, %d segments",
										cell, on.PathsCreated, len(on.Paths), on.PathsSuperseded, off.PathsCreated, len(off.Paths))
								}
								if bench != "mult" && on.PathsSuperseded == 0 {
									t.Errorf("%s: fork-heavy cell superseded nothing", cell)
								}
							}
						}
					}
				}
			})
		}
	}
}

// checkAccounting asserts that every created entry of a run that did not
// resume from a checkpoint is accounted for exactly once: simulated to a
// verdict, superseded, or still pending (see Result.PathsCreated).
func checkAccounting(t *testing.T, name string, res *core.Result) {
	t.Helper()
	settled, skipped := 0, 0
	for _, ps := range res.Paths {
		if ps.End != core.EndInterrupted {
			settled++
		}
		if ps.End == core.EndSubsumed {
			skipped++
		}
	}
	pending := 0
	if res.Degradation != nil {
		pending = res.Degradation.PendingPaths
	}
	if got := settled + res.PathsSuperseded + pending; got != res.PathsCreated {
		t.Errorf("%s: %d settled + %d superseded + %d pending = %d, PathsCreated = %d",
			name, settled, res.PathsSuperseded, pending, got, res.PathsCreated)
	}
	if skipped != res.PathsSkipped {
		t.Errorf("%s: %d subsumed segments, PathsSkipped = %d", name, skipped, res.PathsSkipped)
	}
}

// The accounting identity must hold on complete runs of the one-lane and
// batch engines and on degraded runs, whether the budget stopped the run
// between segments (forks) or in the middle of one (cycles: the interrupted
// segment is in Paths and its entry is pending again).
func TestPathAccountingWithSupersession(t *testing.T) {
	p, err := report.BuildPlatform(report.OMSP430, "tHold")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		cfg      core.Config
		complete bool
	}{
		{"kernel", core.Config{}, true},
		{"batch", core.Config{Engine: vvp.EngineBatch}, true},
		{"workers=4", core.Config{Workers: 4}, true},
		{"fork budget", core.Config{Budget: core.Budget{MaxForks: 12}}, false},
		{"cycle budget", core.Config{Budget: core.Budget{MaxCycles: 200}}, false},
		// The batch explorer drains every occupied lane as an interrupted
		// segment, so this case exercises the identity's interrupted term.
		{"cycle budget, batch", core.Config{Engine: vvp.EngineBatch, Budget: core.Budget{MaxCycles: 800}}, false},
	} {
		res, err := core.Analyze(p, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Complete != tc.complete {
			t.Fatalf("%s: Complete = %v", tc.name, res.Complete)
		}
		// With one explorer the count is deterministic.
		// Degraded runs may drop nothing: narrower entries sit deep in the
		// stack and the budget can trip before they surface.
		if tc.complete && tc.cfg.Workers <= 1 && res.PathsSuperseded == 0 {
			t.Errorf("%s: nothing superseded on a fork-heavy cell", tc.name)
		}
		checkAccounting(t, tc.name, res)
	}
}

// Supersession under concurrency: with several workers the order in which
// siblings are pushed and popped is a race, so which entries get dropped
// varies from run to run — the tie-off list may not. The same holds for a
// run killed mid-exploration and resumed from its checkpoint, where the
// index is rebuilt from the pending worklist alone. Run under -race.
func TestSupersessionWorkersAndResume(t *testing.T) {
	for _, cell := range []struct {
		d     report.Design
		bench string
	}{{report.OMSP430, "tHold"}, {report.DR5, "inSort"}} {
		cell := cell
		t.Run(fmt.Sprintf("%s/%s", cell.d, cell.bench), func(t *testing.T) {
			t.Parallel()
			p, err := report.BuildPlatform(cell.d, cell.bench)
			if err != nil {
				t.Fatal(err)
			}
			one, err := core.Analyze(p, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			want := one.TieOffs()

			for _, workers := range []int{2, 4} {
				res, err := core.Analyze(p, core.Config{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Complete {
					t.Fatalf("workers=%d degraded: %+v", workers, res.Degradation)
				}
				if !tieOffsEqual(res.TieOffs(), want) {
					t.Errorf("workers=%d: tie-offs differ from the one-worker run's", workers)
				}
				checkAccounting(t, fmt.Sprintf("workers=%d", workers), res)
			}

			// Kill with one worker so the checkpoint is the same every run,
			// then resume it with one worker (deterministic: the rebuilt
			// index must drop something) and with two.
			ck := t.TempDir() + "/run.ckpt"
			killed, err := core.Analyze(p, core.Config{
				Budget:     core.Budget{MaxForks: one.PathsCreated / 4},
				Checkpoint: &core.CheckpointConfig{Path: ck},
			})
			if err != nil {
				t.Fatal(err)
			}
			if killed.Complete {
				t.Fatal("budgeted run reported Complete")
			}
			for _, workers := range []int{1, 2} {
				ckpt, err := core.LoadCheckpoint(ck)
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := core.Analyze(p, core.Config{Workers: workers, Resume: ckpt})
				if err != nil {
					t.Fatal(err)
				}
				if !resumed.Complete {
					t.Fatalf("resumed run (workers=%d) degraded: %+v", workers, resumed.Degradation)
				}
				if !tieOffsEqual(resumed.TieOffs(), want) {
					t.Errorf("resumed tie-offs (workers=%d) differ from the one-worker run's", workers)
				}
				if workers == 1 && resumed.PathsSuperseded == 0 {
					t.Errorf("resumed run superseded nothing out of %d restored entries", len(ckpt.Pending))
				}
			}
		})
	}
}

// tea8 never forks: nothing can be superseded and every count matches the
// plain run.
func TestSupersessionIdleOnStraightLine(t *testing.T) {
	for _, d := range report.Designs {
		p, err := report.BuildPlatform(d, "tea8")
		if err != nil {
			t.Fatal(err)
		}
		off, _ := abRun(t, p, core.KeepSuperseded(core.Config{}), abPolicies[0].mk)
		on, _ := abRun(t, p, core.Config{}, abPolicies[0].mk)
		if on.PathsSuperseded != 0 || on.PathsCreated != 1 || on.SimulatedCycles != off.SimulatedCycles {
			t.Errorf("%s/tea8: created %d superseded %d cycles %d, plain run %d cycles",
				d, on.PathsCreated, on.PathsSuperseded, on.SimulatedCycles, off.SimulatedCycles)
		}
		if field := sameDichotomy(off, on); field != "" {
			t.Errorf("%s/tea8: %s differs with supersession on", d, field)
		}
	}
}
