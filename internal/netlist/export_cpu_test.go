package netlist_test

import (
	"bytes"
	"strings"
	"testing"

	"symsim/internal/lint"
	"symsim/internal/netlist"
	"symsim/internal/report"
)

// lintCounts runs the structural oracle with the X-cone summary disabled
// (memory init words differ across a round trip only in representation,
// not structure, but the fixpoint is the slowest check and adds nothing
// to a shape comparison).
func lintCounts(n *netlist.Netlist) map[lint.Code]int {
	r := lint.Run(n, lint.Options{Disable: []lint.Code{lint.CodeXCone}})
	return r.Counts
}

// TestCPUExporters drives every serializer over the three evaluation
// processors: the JSON interchange must round-trip to a structurally
// identical design (lint as the oracle), and the Verilog view must be
// shaped like Verilog.
func TestCPUExporters(t *testing.T) {
	for _, d := range report.Designs {
		d := d
		t.Run(string(d), func(t *testing.T) {
			t.Parallel()
			p, err := report.BuildPlatform(d, "tea8")
			if err != nil {
				t.Fatal(err)
			}
			n := p.Design
			base := lintCounts(n)

			// JSON round trip: Write -> Read -> identical shape and
			// identical lint profile.
			var buf bytes.Buffer
			if err := n.Write(&buf); err != nil {
				t.Fatalf("Write: %v", err)
			}
			again, err := netlist.Read(&buf)
			if err != nil {
				t.Fatalf("Read back: %v", err)
			}
			if len(again.Gates) != len(n.Gates) || len(again.Nets) != len(n.Nets) || len(again.Mems) != len(n.Mems) {
				t.Fatalf("round trip changed shape: %d/%d/%d gates/nets/mems, want %d/%d/%d",
					len(again.Gates), len(again.Nets), len(again.Mems), len(n.Gates), len(n.Nets), len(n.Mems))
			}
			got := lintCounts(again)
			for c, want := range base {
				if got[c] != want {
					t.Errorf("round trip changed %s count: %d, want %d", c, got[c], want)
				}
			}
			for c := range got {
				if _, ok := base[c]; !ok {
					t.Errorf("round trip introduced %s findings", c)
				}
			}

			// Verilog view.
			buf.Reset()
			if err := n.WriteVerilog(&buf); err != nil {
				t.Fatalf("WriteVerilog: %v", err)
			}
			v := buf.String()
			for _, want := range []string{"module " + n.Name, "endmodule", "input clk;", "always @(posedge clk"} {
				if !strings.Contains(v, want) {
					t.Errorf("verilog missing %q", want)
				}
			}
		})
	}
}
