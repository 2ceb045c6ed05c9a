package bespoke_test

import (
	"testing"

	"symsim/internal/bespoke"
	"symsim/internal/core"
	"symsim/internal/logic"
	"symsim/internal/netlist"
	"symsim/internal/power"
	"symsim/internal/report"
)

// flow runs the full bespoke pipeline for one benchmark/design pair and
// validates it with the given concrete inputs.
func flow(t *testing.T, bench string, d report.Design, inputs map[int]uint64, maxCycles uint64) (*core.Result, *bespoke.Result, *bespoke.ValidationReport) {
	t.Helper()
	p, err := report.BuildPlatform(d, bench)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := core.Analyze(p, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bsp, err := bespoke.Generate(sym)
	if err != nil {
		t.Fatal(err)
	}
	dmem, _ := p.Design.MemByName("dmem")
	width := p.Design.Mems[dmem].DataBits
	var mi []core.MemInit
	for w, v := range inputs {
		mi = append(mi, core.MemInit{Mem: "dmem", Word: w, Val: logic.NewVecUint64(width, v)})
	}
	rep, err := bespoke.Validate(sym, bsp, p, mi, maxCycles)
	if err != nil {
		t.Fatalf("validate %s/%s: %v", bench, d, err)
	}
	return sym, bsp, rep
}

func TestBespokeDivAllDesigns(t *testing.T) {
	for _, d := range []report.Design{report.DR5, report.BM32, report.OMSP430} {
		sym, bsp, rep := flow(t, "Div", d, map[int]uint64{0: 1000, 1: 7}, 300000)
		if bsp.BespokeGates >= bsp.OriginalGates {
			t.Errorf("%s: bespoke %d gates >= original %d", d, bsp.BespokeGates, bsp.OriginalGates)
		}
		if bsp.ReductionPct() <= 0 {
			t.Errorf("%s: reduction %.1f%%", d, bsp.ReductionPct())
		}
		if rep.SubsetViolations != 0 {
			t.Errorf("%s: %d subset violations", d, rep.SubsetViolations)
		}
		if rep.OutputsCompared == 0 || rep.MemWordsCompared == 0 {
			t.Errorf("%s: validation compared nothing: %+v", d, rep)
		}
		_ = sym
		t.Logf("%s: %d -> %d physical gates (exercisable %d, reduction %.1f%%), %d output samples equal",
			d, bsp.OriginalGates, bsp.BespokeGates, bsp.ExercisableGates, bsp.ReductionPct(), rep.OutputsCompared)
	}
}

func TestBespokeTea8SinglePathStillValid(t *testing.T) {
	_, bsp, rep := flow(t, "tea8", report.OMSP430, map[int]uint64{0: 0x1234, 1: 0xBEEF}, 300000)
	if bsp.ReductionPct() < 40 {
		t.Errorf("tea8/msp430 reduction %.1f%%, want the peripheral-dominated cut", bsp.ReductionPct())
	}
	if rep.SubsetViolations != 0 {
		t.Errorf("subset violations: %d", rep.SubsetViolations)
	}
}

// The bespoke netlist of the mult benchmark on openMSP430 must retain the
// hardware multiplier (it is exercised), while tea8's must not.
func TestBespokeKeepsWhatIsUsed(t *testing.T) {
	_, bspMult, _ := flow(t, "mult", report.OMSP430, map[int]uint64{0: 1234, 1: 567}, 300000)
	_, bspTea, _ := flow(t, "tea8", report.OMSP430, map[int]uint64{0: 1, 1: 2}, 300000)
	if bspMult.ExercisableGates <= bspTea.ExercisableGates {
		t.Errorf("mult exercisable %d should exceed tea8 %d (multiplier in use)",
			bspMult.ExercisableGates, bspTea.ExercisableGates)
	}
}

// Physical gate count after re-synthesis must not exceed the exercisable
// count by much (folding can only shrink the surviving logic; buffers from
// tie-off constants account for a tiny overhead).
func TestBespokePhysicalVsExercisable(t *testing.T) {
	_, bsp, _ := flow(t, "tHold", report.DR5, map[int]uint64{0: 1, 1: 200, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7, 7: 300}, 300000)
	if bsp.BespokeGates > bsp.ExercisableGates+8 {
		t.Errorf("bespoke physical gates %d exceed exercisable %d", bsp.BespokeGates, bsp.ExercisableGates)
	}
}

// One count: a validation run and a power profile of the same inputs report
// the same cycles, and on tea8 — one input-independent path — the cycles
// the analysis simulated, all counted from reset release.
func TestValidateAndMeasureCountTheSameCycles(t *testing.T) {
	p, err := report.BuildPlatform(report.DR5, "tea8")
	if err != nil {
		t.Fatal(err)
	}
	sym, err := core.Analyze(p, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bsp, err := bespoke.Generate(sym)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []core.MemInit{
		{Mem: "dmem", Word: 0, Val: logic.NewVecUint64(32, 0x1234)},
		{Mem: "dmem", Word: 1, Val: logic.NewVecUint64(32, 0x5678)},
	}
	rep, err := bespoke.Validate(sym, bsp, p, inputs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := power.Measure(p, inputs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles == 0 || rep.Cycles != pf.Cycles || rep.Cycles != sym.SimulatedCycles {
		t.Errorf("validation %d cycles, power profile %d, the analysis's one path %d: want one count",
			rep.Cycles, pf.Cycles, sym.SimulatedCycles)
	}
}

// Tampering detection: tying off a gate that IS exercised must make the
// validation fail — the §5.0.1 equivalence check has teeth.
func TestValidateDetectsWrongPruning(t *testing.T) {
	p, err := report.BuildPlatform(report.DR5, "tHold")
	if err != nil {
		t.Fatal(err)
	}
	sym, err := core.Analyze(p, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the tie list: tie the most-connected exercisable gate low.
	ties := sym.TieOffs()
	victim := -1
	for gi, ex := range sym.ExercisableGates {
		if ex && len(p.Design.Fanout(p.Design.Gates[gi].Out)) > 3 {
			victim = gi
			break
		}
	}
	if victim < 0 {
		t.Fatal("no victim gate found")
	}
	ties = append(ties, netlist.TieOff{Gate: netlist.GateID(victim), Value: logic.Lo})
	rr, err := netlist.Resynthesize(p.Design, ties)
	if err != nil {
		t.Fatal(err)
	}
	bad := &bespoke.Result{
		Original: p.Design, Bespoke: rr.Netlist,
		ExercisableGates: sym.ExercisableCount,
		OriginalGates:    len(p.Design.Gates),
		BespokeGates:     len(rr.Netlist.Gates),
		Resynth:          rr,
	}
	inputs := []core.MemInit{}
	for i, v := range []uint64{1, 200, 3, 400, 5, 600, 7, 800} {
		inputs = append(inputs, core.MemInit{Mem: "dmem", Word: i, Val: logic.NewVecUint64(32, v)})
	}
	// A corrupted core may never reach its terminating condition, so keep
	// the cycle budget small (the correct run needs ~200 cycles).
	if _, err := bespoke.Validate(sym, bad, p, inputs, 4096); err == nil {
		t.Fatal("validation accepted a functionally wrong bespoke netlist")
	}
}
