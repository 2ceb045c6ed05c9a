package report

import (
	"strings"
	"testing"
)

// miniSweep runs a reduced sweep (fast benchmarks only) shared by the
// rendering tests.
func miniSweep(t *testing.T) *Sweep {
	t.Helper()
	s, err := Run(Options{Benchmarks: []string{"mult", "tea8"}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunSweepShape(t *testing.T) {
	s := miniSweep(t)
	if len(s.Cells) != 2*3 {
		t.Fatalf("cells = %d, want 6", len(s.Cells))
	}
	for _, c := range s.Cells {
		if c.TotalGates == 0 || c.Exercisable == 0 || c.SimCycles == 0 {
			t.Errorf("empty cell: %+v", c)
		}
		if c.ReductionPct <= 0 || c.ReductionPct >= 100 {
			t.Errorf("%s/%s reduction %.1f", c.Benchmark, c.Design, c.ReductionPct)
		}
	}
}

func TestHeadlineShapes(t *testing.T) {
	s := miniSweep(t)
	// tea8 runs in exactly one path on all three designs; mult in one on
	// the multiplier-equipped designs and several on dr5 (paper Table 4).
	for _, d := range Designs {
		c, _ := s.cell("tea8", d)
		if c.PathsCreated != 1 {
			t.Errorf("tea8/%s paths = %d", d, c.PathsCreated)
		}
	}
	if c, _ := s.cell("mult", DR5); c.PathsCreated <= 1 {
		t.Errorf("mult/dr5 paths = %d, want > 1", c.PathsCreated)
	}
	// openMSP430 shows the largest reduction on tea8 (unused peripherals,
	// paper Figure 5).
	msp, _ := s.cell("tea8", OMSP430)
	for _, d := range []Design{BM32, DR5} {
		c, _ := s.cell("tea8", d)
		if msp.ReductionPct <= c.ReductionPct {
			t.Errorf("omsp430 reduction %.1f%% not above %s's %.1f%%", msp.ReductionPct, d, c.ReductionPct)
		}
	}
}

func TestTableRendering(t *testing.T) {
	s := miniSweep(t)
	t1 := Table1()
	for _, want := range []string{"Div", "tea8", "TEA encryption"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	t2, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bm32", "omsp430", "dr5", "MIPS32", "MSP430", "RV32E"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
	t3 := s.Table3()
	if !strings.Contains(t3, "Gate count analysis") || !strings.Contains(t3, "mult") {
		t.Errorf("Table 3:\n%s", t3)
	}
	t4 := s.Table4()
	if !strings.Contains(t4, "created") || !strings.Contains(t4, "tea8") {
		t.Errorf("Table 4:\n%s", t4)
	}
	f5 := s.Figure5()
	if !strings.Contains(f5, "Figure 5") || !strings.Contains(f5, "#") {
		t.Errorf("Figure 5:\n%s", f5)
	}
	f6 := s.Figure6()
	if !strings.Contains(f6, "Figure 6") {
		t.Errorf("Figure 6:\n%s", f6)
	}
	csv := s.CSV()
	if !strings.Contains(csv, "benchmark,design") || strings.Count(csv, "\n") != 7 {
		t.Errorf("CSV:\n%s", csv)
	}
}

func TestBuildPlatformErrors(t *testing.T) {
	if _, err := BuildPlatform(BM32, "nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := BuildPlatform(Design("vax"), "Div"); err == nil {
		t.Error("unknown design accepted")
	}
}
