package symsim_test

import (
	"fmt"
	"testing"

	"symsim"
)

// TestEngineEquivalenceEndToEnd is the whole-stack differential check,
// swept across all three evaluation cores (Table 2) and two CSM policies
// (the merge-all default and constrained, whose fact trimming and fork
// pruning sit on the observe path the engines share). For each cell a full co-analysis must produce:
//
//   - interp vs kernel: the identical everything — exercisable set,
//     tie-offs, path counts, simulated cycles, conservative-state count.
//     The unit-level suite in internal/vvp certifies the engines
//     commit-for-commit; this certifies nothing above them (forking,
//     CSM, toggle absorption) observes a difference either.
//   - batch vs kernel: the identical dichotomy and tie-offs only. The
//     batch engine retires up to 64 lanes per settle, so CSM merge
//     order — and with it path counts and total cycles — may legally
//     differ; the dichotomy is a fixpoint of sound over-approximations
//     and may not.
//
// Policies are constructed fresh per engine run: a CSM is stateful, and
// sharing one across runs would let the first engine's merges subsume
// the second engine's paths.
func TestEngineEquivalenceEndToEnd(t *testing.T) {
	policies := []struct {
		name string
		mk   func(p *symsim.Platform) (symsim.Policy, error)
	}{
		{"merge-all", func(*symsim.Platform) (symsim.Policy, error) { return nil, nil }}, // Config default
		{"constrained", func(p *symsim.Platform) (symsim.Policy, error) {
			return symsim.ConstrainedPolicy(p.Spec.Bits(), []symsim.Constraint{
				{AnyPC: true, Bit: 0, Val: symsim.Lo},
			})
		}},
	}
	for _, d := range []symsim.Design{symsim.BM32, symsim.OMSP430, symsim.DR5} {
		for _, pol := range policies {
			t.Run(fmt.Sprintf("%v/%s", d, pol.name), func(t *testing.T) {
				p, err := symsim.BuildPlatform(d, "tHold")
				if err != nil {
					t.Fatal(err)
				}
				run := func(e symsim.SimEngine) *symsim.Result {
					policy, err := pol.mk(p)
					if err != nil {
						t.Fatal(err)
					}
					res, err := symsim.Analyze(p, symsim.Config{Engine: e, Policy: policy})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				ri := run(symsim.EngineInterp)
				rk := run(symsim.EngineKernel)
				rb := run(symsim.EngineBatch)

				if ri.PathsCreated != rk.PathsCreated || ri.PathsSkipped != rk.PathsSkipped {
					t.Errorf("paths diverged: interp %d/%d kernel %d/%d",
						ri.PathsCreated, ri.PathsSkipped, rk.PathsCreated, rk.PathsSkipped)
				}
				if ri.PathsPruned != rk.PathsPruned {
					t.Errorf("pruned diverged: interp %d kernel %d", ri.PathsPruned, rk.PathsPruned)
				}
				if ri.SimulatedCycles != rk.SimulatedCycles {
					t.Errorf("cycles diverged: %d vs %d", ri.SimulatedCycles, rk.SimulatedCycles)
				}
				if ri.CSMStates != rk.CSMStates {
					t.Errorf("CSM states diverged: %d vs %d", ri.CSMStates, rk.CSMStates)
				}
				for name, res := range map[string]*symsim.Result{"interp": ri, "batch": rb} {
					if res.ExercisableCount != rk.ExercisableCount {
						t.Errorf("%s exercisable count diverged: %d vs kernel %d",
							name, res.ExercisableCount, rk.ExercisableCount)
					}
					for gi := range rk.ExercisableGates {
						if res.ExercisableGates[gi] != rk.ExercisableGates[gi] {
							t.Fatalf("%s: gate %d exercisability diverged", name, gi)
						}
					}
					to, tk := res.TieOffs(), rk.TieOffs()
					if len(to) != len(tk) {
						t.Fatalf("%s tie-off counts diverged: %d vs %d", name, len(to), len(tk))
					}
					for i := range to {
						if to[i] != tk[i] {
							t.Fatalf("%s tie-off %d diverged: %+v vs %+v", name, i, to[i], tk[i])
						}
					}
				}
				if !rb.Complete {
					t.Errorf("batch run degraded: %+v", rb.Degradation)
				}
			})
		}
	}
}
