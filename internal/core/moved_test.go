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

// TestAbsorbMovedOracle is the whole-stack A/B check of the moved set
// (DESIGN.md §8 "The moved set"): absorb reads only the nets a segment's
// simulator committed since its profile was last absorbed, and every cell
// runs once that way and once with every net named moved on every segment
// (core.AllMoved), which is absorb over every net not yet exercisable.
// Under merge-all, exact-64 and constrained — the sr_z fact of
// openMSP430/tHold there, pc[0] = 0 elsewhere — at one worker the two runs
// absorb the same outcomes in the same order, so ToggledNets, ConstNets and
// the tie-off list must be byte-identical; at two workers the order is a
// race and the dichotomy must be (sameDichotomy). The batch engine's lanes
// keep no moved set, so its row checks that nil is read as every net. The
// last row drops one outcome unabsorbed, as a settle of a segment no longer
// in flight does, and admits the segment again: the simulator's moved set
// must carry what the dropped segment committed.
func TestAbsorbMovedOracle(t *testing.T) {
	designs := report.Designs
	if raceDetector {
		// As in TestSupersessionABOracle: the smallest core shows all a
		// detector can find, at a twentieth of the cost.
		designs = []report.Design{report.OMSP430}
	}
	mergeAll := func(*core.Platform) (csm.Manager, error) { return csm.NewMergeAll(), nil }
	exact := func(*core.Platform) (csm.Manager, error) { return csm.NewExact(64), nil }
	for _, d := range designs {
		for _, bench := range []string{"tHold", "Div", "inSort", "binSearch", "mult", "tea8"} {
			d, bench := d, bench
			t.Run(fmt.Sprintf("%s/%s", d, bench), func(t *testing.T) {
				t.Parallel()
				p, err := report.BuildPlatform(d, bench)
				if err != nil {
					t.Fatal(err)
				}
				constrained := abPolicies[3].mk
				if d == report.OMSP430 && bench == "tHold" {
					constrained = func(p *core.Platform) (csm.Manager, error) {
						return csm.NewConstrained(p.Spec.Bits(), tHoldPruneFacts(t, p))
					}
				}
				var ref *core.Result
				for _, row := range []struct {
					name    string
					mk      func(*core.Platform) (csm.Manager, error)
					workers int
					eng     vvp.Engine
				}{
					{"merge-all", mergeAll, 1, vvp.EngineKernel},
					{"merge-all/workers=2", mergeAll, 2, vvp.EngineKernel},
					{"exact-64", exact, 1, vvp.EngineKernel},
					{"exact-64/workers=2", exact, 2, vvp.EngineKernel},
					{"constrained", constrained, 1, vvp.EngineKernel},
					{"constrained/workers=2", constrained, 2, vvp.EngineKernel},
					{"merge-all/batch", mergeAll, 1, vvp.EngineBatch},
				} {
					cfg := core.Config{Workers: row.workers, Engine: row.eng}
					all, _ := abRun(t, p, core.AllMoved(cfg), row.mk)
					moved, _ := abRun(t, p, cfg, row.mk)
					if row.workers == 1 {
						if field := sameBytes(all, moved); field != "" {
							t.Errorf("%s: %s differs over the moved set", row.name, field)
						}
					} else if field := sameDichotomy(all, moved); field != "" {
						t.Errorf("%s: %s differs over the moved set", row.name, field)
					}
					if ref == nil {
						ref = all
					}
				}

				// Drop the middle segment's outcome once.
				drop := len(ref.Paths) / 2
				res, dropped, err := core.AnalyzeDropping(p, core.Config{Policy: csm.NewMergeAll()}, drop)
				if err != nil {
					t.Fatal(err)
				}
				if !dropped || !res.Complete {
					t.Fatalf("drop: path %d dropped %v, complete %v", drop, dropped, res.Complete)
				}
				if field := sameBytes(ref, res); field != "" {
					t.Errorf("drop path %d: %s differs over the moved set", drop, field)
				}
			})
		}
	}
}

// sameBytes reports the first of ToggledNets, ConstNets, ExercisableGates,
// the tie-off list and the path and cycle counts in which two results
// differ, or "".
func sameBytes(a, b *core.Result) string {
	switch {
	case !reflect.DeepEqual(a.ToggledNets, b.ToggledNets):
		return "ToggledNets"
	case !reflect.DeepEqual(a.ConstNets, b.ConstNets):
		return "ConstNets"
	case !reflect.DeepEqual(a.ExercisableGates, b.ExercisableGates):
		return "ExercisableGates"
	case !tieOffsEqual(a.TieOffs(), b.TieOffs()):
		return "TieOffs"
	case a.PathsCreated != b.PathsCreated || a.SimulatedCycles != b.SimulatedCycles:
		return "the path and cycle counts"
	}
	return ""
}
