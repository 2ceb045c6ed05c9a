package netlist_test

import (
	"bytes"
	"testing"

	"symsim/internal/core"
	"symsim/internal/cpu/cputest"
	"symsim/internal/cpu/dr5"
	"symsim/internal/isa/rv32"
	"symsim/internal/netlist"
	"symsim/internal/vvp"
)

// A full processor netlist must survive the interchange round trip and
// still execute its program identically: serialize dr5 (with a program in
// ROM), parse it back, and run it concretely via a hand-built platform.
func TestProcessorRoundTripExecutes(t *testing.T) {
	a := rv32.NewAsm()
	a.LI(rv32.T0, 10)
	a.LI(rv32.T1, 0)
	a.Label("loop")
	a.ADD(rv32.T1, rv32.T1, rv32.T0)
	a.ADDI(rv32.T0, rv32.T0, -1)
	a.BNE(rv32.T0, rv32.X0, "loop")
	a.SW(rv32.T1, rv32.X0, 0)
	a.Halt()
	p, err := dr5.Build(a.MustAssemble())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Design.Freeze(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := p.Design.Write(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := netlist.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Gates) != len(p.Design.Gates) {
		t.Fatalf("gate count changed: %d vs %d", len(rt.Gates), len(p.Design.Gates))
	}

	// Rebuild the platform around the parsed netlist: net IDs are
	// preserved by the round trip, so the original monitor/state specs
	// apply directly.
	spec, err := vvp.SpecFor(rt, "pc")
	if err != nil {
		t.Fatal(err)
	}
	// Field-wise rather than a struct copy: Platform carries a lint
	// cache (sync.Once) and must not be copied by value.
	p2 := core.Platform{
		Name:        p.Name,
		Design:      rt,
		Spec:        spec,
		Monitor:     p.Monitor,
		HalfPeriod:  p.HalfPeriod,
		ResetCycles: p.ResetCycles,
		Inputs:      p.Inputs,
		Specialize:  p.Specialize,
	}
	sim, err := p2.RunConcrete(vvp.Options{}, nil, 100000, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cputest.MemUint(sim, "dmem", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 {
		t.Fatalf("round-tripped processor computed %d, want 55", got)
	}
}
