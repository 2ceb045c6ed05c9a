package core_test

import (
	"testing"

	"symsim/internal/core"
	"symsim/internal/csm"
	"symsim/internal/logic"
	"symsim/internal/report"
	"symsim/internal/vvp"
)

// tHoldPruneFacts is the worked example of constraint-aware forking on
// openMSP430/tHold (the paper's counter-trend path-count cell, §5.0.3).
// The loop body compares each X sample against the threshold and has two
// conditional jumps to the same skip label: JEQ at PC 0x1e (sample ==
// limit) and JNC at 0x20 (sample < limit). The designer fact "no sample
// ever equals the threshold exactly" pins sr_z=0 at the JEQ, which proves
// the JEQ-taken child infeasible before it forks. The pruned path is
// control-flow redundant — the JNC-taken path drives the same skip code —
// so the dichotomy cannot move, only the path count.
func tHoldPruneFacts(t testing.TB, p *core.Platform) []csm.Constraint {
	t.Helper()
	srz := p.Spec.BitOfNet("sr_z")
	if srz < 0 {
		t.Fatal("no state bit for sr_z")
	}
	return []csm.Constraint{{PC: 0x1e, Bit: srz, Val: logic.Lo}}
}

// TestConstraintPruningReducesPathsSoundly is the acceptance gate of the
// pre-fork pruner: with the tHold fact, every engine must create strictly
// fewer paths with pruning on — the pinned created-path counts, off and on
// — and produce the byte-identical tie-off list, because the pruned
// children are redundant under the fact. DisablePrune is the only knob
// flipped between the two runs, so any divergence is the pruner's.
func TestConstraintPruningReducesPathsSoundly(t *testing.T) {
	p, err := report.BuildPlatform(report.OMSP430, "tHold")
	if err != nil {
		t.Fatal(err)
	}
	cons := tHoldPruneFacts(t, p)
	for _, eng := range []struct {
		name    string
		e       vvp.Engine
		off, on int // paths created without and with pruning
	}{
		{"interp", vvp.EngineInterp, 95, 78},
		{"kernel", vvp.EngineKernel, 95, 78},
		{"batch", vvp.EngineBatch, 175, 154},
	} {
		t.Run(eng.name, func(t *testing.T) {
			run := func(disable bool) *core.Result {
				pol, err := csm.NewConstrained(p.Spec.Bits(), cons)
				if err != nil {
					t.Fatal(err)
				}
				cfg := core.Config{Policy: pol, Engine: eng.e}
				if disable {
					cfg = core.DisablePrune(cfg)
				}
				res, err := core.Analyze(p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Complete {
					t.Fatalf("run degraded: %+v", res.Degradation)
				}
				return res
			}
			off, on := run(true), run(false)
			if off.PathsPruned != 0 {
				t.Errorf("DisablePrune run pruned %d paths", off.PathsPruned)
			}
			if on.PathsPruned == 0 {
				t.Error("pruning run pruned nothing")
			}
			if off.PathsCreated != eng.off || on.PathsCreated != eng.on {
				t.Errorf("paths created: unpruned %d, pruned %d — pinned %d, %d",
					off.PathsCreated, on.PathsCreated, eng.off, eng.on)
			}
			toOff, toOn := off.TieOffs(), on.TieOffs()
			if len(toOff) != len(toOn) {
				t.Fatalf("tie-off counts diverged: unpruned %d, pruned %d", len(toOff), len(toOn))
			}
			for i := range toOff {
				if toOff[i] != toOn[i] {
					t.Fatalf("tie-off %d diverged: unpruned %+v, pruned %+v", i, toOff[i], toOn[i])
				}
			}
		})
	}
}
