package netlist_test

import (
	"testing"

	"symsim/internal/netlist"
	"symsim/internal/report"
)

// TestFanRunsCPUs runs TestFanRuns' check over the three evaluation
// processors and pins what the kernel's in-line commit rests on there:
// most nets are one run, and most gates commit in line.
func TestFanRunsCPUs(t *testing.T) {
	for _, d := range report.Designs {
		p, err := report.BuildPlatform(d, "tea8")
		if err != nil {
			t.Fatal(err)
		}
		n := p.Design
		netlist.CheckFanRuns(t, n)
		prog := n.Program()
		edges, nets, single, inline := 0, 0, 0, 0
		for id := range n.Nets {
			if f := n.Fanout(netlist.NetID(id)); len(f) > 0 {
				edges += len(f)
				nets++
				if len(prog.FanRuns(netlist.NetID(id))) == 1 {
					single++
				}
			}
		}
		for _, r := range prog.GateRun {
			if r.Mask != 0 {
				inline++
			}
		}
		t.Logf("%s: %d fanout edges in %d runs over %d nets (%.2f runs a net, %.0f%% one run); %d of %d gates commit in line",
			d, edges, len(prog.Runs), nets, float64(len(prog.Runs))/float64(nets), 100*float64(single)/float64(nets), inline, len(prog.Gates))
		if 10*single < 8*nets || 10*inline < 7*len(prog.Gates) {
			t.Errorf("%s: %d of %d nets are one run and %d of %d gates in-line: the run table no longer fits the design", d, single, nets, inline, len(prog.Gates))
		}
	}
}
