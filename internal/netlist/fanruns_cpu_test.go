package netlist_test

import (
	"testing"

	"symsim/internal/netlist"
	"symsim/internal/report"
)

// TestFanRunsCPUs runs TestFanRuns' check over the three evaluation
// processors and pins what the kernel's in-line commit rests on there:
// most nets are at most one run to mark (none, when every reader is a
// flip-flop's D or EN pin), and most gates commit in line.
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
				switch len(prog.FanRuns(netlist.NetID(id))) {
				case 1:
					single++
				case 0:
					// Only with every reader in the data table: a net whose
					// fanout went missing is not a cheap one.
					if len(prog.DataRuns(netlist.NetID(id))) > 0 {
						single++
					}
				}
			}
		}
		for _, r := range prog.GateRun {
			if r.Mask != 0 {
				inline++
			}
		}
		t.Logf("%s: %d fanout edges in %d runs and %d data runs over %d nets (%.2f runs a net, %.0f%% at most one); %d of %d gates commit in line",
			d, edges, len(prog.Runs), len(prog.DataRunTab), nets, float64(len(prog.Runs))/float64(nets), 100*float64(single)/float64(nets), inline, len(prog.Gates))
		if 10*single < 8*nets || 10*inline < 7*len(prog.Gates) {
			t.Errorf("%s: %d of %d nets are at most one run and %d of %d gates in-line: the run table no longer fits the design", d, single, nets, inline, len(prog.Gates))
		}
	}
}
