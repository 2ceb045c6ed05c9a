package vvp_test

import (
	"fmt"
	"math/rand"
	"testing"

	"symsim/internal/core"
	"symsim/internal/cpu/bm32"
	"symsim/internal/cpu/dr5"
	"symsim/internal/cpu/omsp430"
	"symsim/internal/isa"
	"symsim/internal/logic"
	"symsim/internal/prog"
	"symsim/internal/vvp"
)

// TestReplayMatchesKernelOnProcessors is TestReplayMatchesKernel on tHold on
// the three processors, whose RAMs, ROMs and enable groups the random
// circuits do not have: from both children of the cold boot's first halt,
// each forced the way Analyze forces it, a recorded run and three widenings
// of it, each replayed against the one before and held to a kernel run step
// by step to its next halt.
func TestReplayMatchesKernelOnProcessors(t *testing.T) {
	for _, c := range []struct {
		isa   prog.ISA
		build func(*isa.Image) (*core.Platform, error)
	}{
		{prog.ISAMips, bm32.Build},
		{prog.ISAMsp430, omsp430.Build},
		{prog.ISARV32, dr5.Build},
	} {
		img, err := prog.Build("tHold", c.isa)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.build(img)
		if err != nil {
			t.Fatal(err)
		}
		mk := func() *vvp.Simulator {
			s := vvp.New(p.Design, vvp.Options{})
			s.SetMonitorX(&p.Monitor)
			s.BindStimulus(p.Stimulus())
			return s
		}
		boot := mk()
		status, err := boot.Run(5000)
		if err != nil || status != vvp.HaltX {
			t.Fatalf("%s: the cold boot ended %v, %v; want a halt", p.Name, status, err)
		}
		halt := boot.Snapshot(p.Spec)
		var replayed uint64
		for _, v := range []logic.Value{logic.Hi, logic.Lo} {
			child := halt.Clone()
			if p.Specialize != nil {
				child = p.Specialize(child, v == logic.Hi)
			}
			ctx := fmt.Sprintf("%s/tHold child %v", p.Name, v)
			replayed += vvp.ReplayTrial(t, ctx, rand.New(rand.NewSource(int64(v))), mk, p.Spec, child, p.Monitor.Cond, v, p.HalfPeriod, 3, 4000)
		}
		if replayed == 0 {
			t.Errorf("%s: no step took the replay path", p.Name)
		}
		t.Logf("%s: %d steps replayed", p.Name, replayed)
	}
}
