package symsim_test

import (
	"testing"

	"symsim"
	"symsim/internal/logic"
	"symsim/internal/vvp"
)

// TestCleanEdgeCost is the layer breakdown of a clean clock edge on each
// processor, running tea8 the way a path of Analyze does (kernel engine,
// Symbolic region on, recording): how many of the clock domain's
// flip-flops a rising clean edge's capture visits, and at how many clean
// edges a memory on the clock could write — the edges at which the kernel
// queues the memories; at the others it leaves them alone. Both are read
// off the run rather than off the kernel: the enables the capture reads are
// the values the commit trace gives the nets by the end of the step's first
// Active drain, and a memory could write at an edge that rises while its
// write enable is not 0. The bounds are loose; the logged figures are the
// ones EXPERIMENTS.md "Kernel layers" quotes.
func TestCleanEdgeCost(t *testing.T) {
	for _, d := range []symsim.Design{symsim.BM32, symsim.OMSP430, symsim.DR5} {
		p, err := symsim.BuildPlatform(d, "tea8")
		if err != nil {
			t.Fatal(err)
		}
		prog := p.Design.Program()
		cd := prog.Clock
		if cd == nil || !cd.ClockPinsOnly {
			t.Fatalf("%s: clock-domain table %+v, want one whose clock reaches clock pins only", d, cd)
		}
		tr := &vvp.Trace{}
		sim := vvp.New(p.Design, vvp.Options{Trace: tr})
		sim.SetMonitorX(&p.Monitor)
		sim.BindStimulus(p.Stimulus())
		sim.StartRecording()
		vals := make([]logic.Value, len(p.Design.Nets))
		var clean, rising, visits, writable int
		for status := vvp.Running; status == vvp.Running; {
			copy(vals, sim.Values())
			tr.Events = tr.Events[:0]
			edges := sim.FastEdges()
			if status, err = sim.Step(); err != nil {
				t.Fatal(err)
			}
			for _, e := range tr.Events {
				if e.New == logic.Z {
					t.Fatalf("%s: t=%d: a Z was committed, and a capture then visits disabled groups too", d, e.Time)
				}
			}
			if sim.FastEdges() == edges {
				continue
			}
			clean++
			up := sim.Value(cd.Net) == logic.Hi
			for _, mi := range prog.MemFanOf(cd.Net) {
				if up && vals[p.Design.Mems[mi].WEn] != logic.Lo {
					writable++
					break
				}
			}
			if !up {
				continue
			}
			rising++
			for _, e := range tr.Events {
				if e.Region != vvp.RegionActive {
					break
				}
				vals[e.Net] = e.New
			}
			for k := 1; k < len(cd.Groups); k++ {
				if lo := cd.Groups[k-1]; vals[cd.Members[lo].En] != logic.Lo {
					visits += int(cd.Groups[k] - lo)
				}
			}
		}
		perEdge := float64(visits) / float64(rising)
		t.Logf("%s: %d clean edges, %d rising; a capture visits %.1f of %d flip-flops in %d enable groups; a memory could write at %d clean edges (%.1f %%)",
			d, clean, rising, perEdge, len(cd.Members), len(cd.Groups)-1, writable, 100*float64(writable)/float64(clean))
		if rising == 0 || perEdge > float64(len(cd.Members))/4 || 4*writable > clean {
			t.Errorf("%s: a clean edge costs more than a quarter of the domain or queues the memories at more than a quarter of the edges", d)
		}
	}
}
