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

// TestInvariantsOnProcessors holds both engines to the kernel's contract
// (DESIGN.md §8 "The contract") on the three processors, whose RAMs, ROMs
// and 20–38 enable groups the random circuits of the differential suites
// do not have. For tea8 and tHold on each it runs the cold boot to the
// first halt or finish, then both children of tHold's first fork, each
// restored, forced and recorded to its next halt, the way a path of
// Analyze is: every path on a bare kernel and on a one-lane BatchSim, with
// the invariants of both checked after every step.
func TestInvariantsOnProcessors(t *testing.T) {
	for _, c := range []struct {
		isa   prog.ISA
		build func(*isa.Image) (*core.Platform, error)
	}{
		{prog.ISAMips, bm32.Build},
		{prog.ISAMsp430, omsp430.Build},
		{prog.ISARV32, dr5.Build},
	} {
		for _, bench := range []string{"tea8", "tHold"} {
			img, err := prog.Build(bench, c.isa)
			if err != nil {
				t.Fatal(err)
			}
			p, err := c.build(img)
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("%s/%s", p.Name, bench)
			status, halt := invariantPath(t, ctx+" cold boot", p, nil, logic.X)
			if bench == "tea8" {
				if status != vvp.Finished {
					t.Fatalf("%s: the cold boot ended %v, want finished", ctx, status)
				}
				continue
			}
			if status != vvp.HaltX {
				t.Fatalf("%s: the cold boot ended %v, want a halt", ctx, status)
			}
			for _, v := range []logic.Value{logic.Hi, logic.Lo} {
				child := halt.Clone()
				if p.Specialize != nil {
					child = p.Specialize(child, v == logic.Hi)
				}
				invariantPath(t, fmt.Sprintf("%s child %v", ctx, v), p, &child, v)
			}
		}
	}
}

// invariantPath runs one path on a bare kernel and a one-lane BatchSim —
// the cold boot when from is nil, the batch admitted with the kernel's
// state once reset is over; otherwise from's state with the branch
// condition forced to v for three half-periods — recording, to its next
// halt or finish, checking both engines' invariants after the admission
// and after every step and that they end the same step the same way. It
// returns how the path ended and the kernel's state there.
func invariantPath(t *testing.T, ctx string, p *core.Platform, from *vvp.State, v logic.Value) (vvp.Status, vvp.State) {
	t.Helper()
	k := vvp.New(p.Design, vvp.Options{})
	k.SetMonitorX(&p.Monitor)
	k.BindStimulus(p.Stimulus())
	b := vvp.NewBatchSim(p.Design, vvp.BatchOptions{Lanes: 1})
	b.SetMonitorX(&p.Monitor)
	b.BindStimulus(p.Stimulus())
	if from == nil {
		for resetEnd := uint64(2*p.ResetCycles)*p.HalfPeriod + 1; k.Now() <= resetEnd; {
			if _, err := k.Step(); err != nil {
				t.Fatalf("%s: reset: %v", ctx, err)
			}
			k.CheckInvariants(t, fmt.Sprintf("%s: reset, t=%d", ctx, k.Now()))
		}
		st := k.Snapshot(p.Spec)
		from = &st
	} else {
		if err := k.Restore(p.Spec, *from); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
	}
	if err := b.RestoreLane(p.Spec, *from, 0); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if v != logic.X {
		release := k.Now() + 3*p.HalfPeriod
		k.Force(p.Monitor.Cond, v, release)
		b.ForceLane(p.Monitor.Cond, v, 0, release)
	}
	k.StartRecording()
	b.StartRecordingLane(0)
	k.CheckInvariants(t, ctx+": admitted, kernel")
	b.CheckInvariants(t, ctx+": admitted, batch")
	for k.Cycles() < 5000 {
		status, err := k.Step()
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		fin, hal, err := b.StepAll()
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		at := fmt.Sprintf("%s: t=%d", ctx, k.Now())
		k.CheckInvariants(t, at+", kernel")
		b.CheckInvariants(t, at+", batch")
		if (status == vvp.Finished) != (fin != 0) || (status == vvp.HaltX) != (hal != 0) {
			t.Fatalf("%s: kernel %v, batch finished %#x halted %#x", at, status, fin, hal)
		}
		if status != vvp.Running {
			return status, k.Snapshot(p.Spec)
		}
	}
	t.Fatalf("%s: no halt or finish in 5000 cycles", ctx)
	return vvp.Running, vvp.State{}
}

// TestMovedCoversEveryChangeOnProcessors is TestMovedCoversEveryChange on
// the three processors, each on both scalar engines: segments restore the
// state just past reset, the first halt of tHold and that halt's two
// children, force the branch condition half the time, and are absorbed or
// dropped at random (DESIGN.md §8 "The moved set").
func TestMovedCoversEveryChangeOnProcessors(t *testing.T) {
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
		boot := vvp.New(p.Design, vvp.Options{})
		boot.SetMonitorX(&p.Monitor)
		boot.BindStimulus(p.Stimulus())
		for resetEnd := uint64(2*p.ResetCycles)*p.HalfPeriod + 1; boot.Now() <= resetEnd; {
			if _, err := boot.Step(); err != nil {
				t.Fatal(err)
			}
		}
		states := []vvp.State{boot.Snapshot(p.Spec)}
		status, err := boot.Run(5000)
		if err != nil || status != vvp.HaltX {
			t.Fatalf("%s: the cold boot ended %v, %v; want a halt", p.Name, status, err)
		}
		halt := boot.Snapshot(p.Spec)
		states = append(states, halt)
		for _, taken := range []bool{true, false} {
			if p.Specialize != nil {
				states = append(states, p.Specialize(halt.Clone(), taken))
			}
		}
		for _, eng := range []vvp.Engine{vvp.EngineKernel, vvp.EngineInterp} {
			s := vvp.New(p.Design, vvp.Options{Engine: eng})
			s.BindStimulus(p.Stimulus())
			vvp.MovedTrial(t, fmt.Sprintf("%s/tHold %v", p.Name, eng), rand.New(rand.NewSource(1)),
				s, p.Spec, states, p.Monitor.Cond, p.HalfPeriod, 10, 40)
		}
	}
}
