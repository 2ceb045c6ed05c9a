package power_test

import (
	"testing"

	"symsim/internal/core"
	"symsim/internal/logic"
	"symsim/internal/power"
	"symsim/internal/report"
)

func measure(t *testing.T, bench string, inputs map[int]uint64) (*core.Platform, *core.Result, *power.Profile) {
	t.Helper()
	p, err := report.BuildPlatform(report.OMSP430, bench)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(p, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var mi []core.MemInit
	for w, v := range inputs {
		mi = append(mi, core.MemInit{Mem: "dmem", Word: w, Val: logic.NewVecUint64(16, v)})
	}
	pf, err := power.Measure(p, mi, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return p, res, pf
}

func TestMeasureTHold(t *testing.T) {
	_, res, pf := measure(t, "tHold", map[int]uint64{0: 150, 1: 3, 2: 100, 3: 101, 4: 5, 5: 6, 6: 7, 7: 999})
	if pf.Cycles == 0 || pf.TotalToggles == 0 {
		t.Fatalf("empty profile: %+v", pf)
	}
	if pf.MeanActivity() <= 0 || pf.MeanActivity() > 1 {
		t.Errorf("mean activity %.3f implausible", pf.MeanActivity())
	}
	// The concrete peak must respect the symbolic bound (the peak-power
	// guarantee of [5]).
	if pf.PeakCycleToggles > power.SymbolicPeakBound(res) {
		t.Errorf("peak %d exceeds symbolic bound %d", pf.PeakCycleToggles, power.SymbolicPeakBound(res))
	}
	if rep := pf.Report(res); len(rep) == 0 {
		t.Error("empty report")
	}
	if hot := pf.HotNets(5); len(hot) != 5 || hot[0].Toggles < hot[4].Toggles {
		t.Errorf("hot nets not sorted: %v", hot)
	}
}

func TestGatingCandidatesExcludeActiveLogic(t *testing.T) {
	p, res, pf := measure(t, "mult", map[int]uint64{0: 1234, 1: 567})
	cands := pf.GatingCandidates(res, 0)
	if len(cands) == 0 {
		t.Fatal("no gating candidates at all")
	}
	// Candidates must be exercisable (pruned gates are excluded) and
	// must not have toggled.
	for _, g := range cands[:min(20, len(cands))] {
		if !res.ExercisableGates[g] {
			t.Errorf("candidate %d not exercisable", g)
		}
		if pf.NetToggles[p.Design.Gates[g].Out] != 0 {
			t.Errorf("candidate %d toggled", g)
		}
	}
	// The clock tree buffer (or any net) must never appear with 0 toggles
	// if it did toggle: the most active net should be clock-adjacent.
	hot := pf.HotNets(1)
	if len(hot) == 0 || hot[0].Toggles < pf.Cycles {
		t.Errorf("hottest net %v toggles less than once per cycle", hot)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
