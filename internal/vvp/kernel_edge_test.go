package vvp

import (
	"fmt"
	"testing"

	"symsim/internal/logic"
	"symsim/internal/netlist"
	"symsim/internal/rtl"
)

// Directed tests of the kernel's clock-edge fast path (kernel.go,
// DESIGN.md §8): each one drives the kernel and the interpreter in lockstep
// through a situation where the fast path either must hand the edge to the
// general path or must do something a naive dense pass would get wrong, and
// checks through FastEdges which of the two the kernel did.

// lockstep steps an interpreter and a kernel simulator of n through steps
// time steps of st, comparing all observable state after each and the
// commit traces at the end. each, when non-nil, runs before every step.
func lockstep(t *testing.T, n *netlist.Netlist, st *Stimulus, steps int, each func(step int, si, sk *Simulator)) (si, sk *Simulator) {
	t.Helper()
	si, sk, ti, tk := enginePair(n, st, MemXVerilog)
	for step := 0; step < steps; step++ {
		if each != nil {
			each(step, si, sk)
		}
		sti, erri := si.Step()
		stk, errk := sk.Step()
		if erri != nil || errk != nil || sti != stk {
			t.Fatalf("step %d: status %v/%v err %v/%v", step, sti, stk, erri, errk)
		}
		checkAgreement(t, fmt.Sprintf("step %d (t=%d)", step, si.Now()), si, sk)
	}
	if !ti.Equal(tk) {
		t.Fatalf("commit traces diverged\ninterp:\n%s\nkernel:\n%s", ti.Dump(n), tk.Dump(n))
	}
	if si.FastEdges() != 0 {
		t.Fatalf("interpreter took %d fast edges", si.FastEdges())
	}
	return si, sk
}

// resetStimulus is the plain testbench: clock on Inputs[0], reset on
// Inputs[1] held low over the first posedge.
func resetStimulus(n *netlist.Netlist) *Stimulus {
	st := NewStimulus(n.Inputs[0], hp)
	st.At(1, n.Inputs[1], logic.Lo)
	st.At(2*hp+1, n.Inputs[1], logic.Hi)
	return st
}

// TestFastPathTakesEveryCleanEdge: on an eligible design every clock toggle
// after the reset sequence is clean, and the kernel takes each through the
// fast path without evaluating a single flip-flop for it.
func TestFastPathTakesEveryCleanEdge(t *testing.T) {
	n, q := counterDesign(t)
	if n.Program().Clock == nil {
		t.Fatal("counter has no clock-domain table")
	}
	st := resetStimulus(n)
	st.Finalize()
	var edges0, evals0 uint64
	_, sk := lockstep(t, n, st, 44, func(step int, _, sk *Simulator) {
		if step == 4 { // t=15 is the first toggle after the reset release at t=11
			edges0, evals0 = sk.FastEdges(), sk.Evals()
		}
	})
	if got := sk.FastEdges() - edges0; got != 40 {
		t.Fatalf("fast edges over 40 clean toggles = %d", got)
	}
	// 20 cycles of a 4-bit incrementer: far fewer evaluations than the 8
	// flip-flop events per cycle the general path adds on top.
	if v, ok := sk.VecValue(q).Uint64(); !ok || v != 20%16 {
		t.Fatalf("counter = %s after 20 counted cycles", sk.VecValue(q))
	}
	if perCycle := float64(sk.Evals()-evals0) / 20; perCycle > 20 {
		t.Fatalf("%.1f evals/cycle on the fast path", perCycle)
	}
}

// TestFastPathNeedsTheStimulusClock: a design whose one clock is not the
// net the stimulus toggles has a table and never uses it.
func TestFastPathNeedsTheStimulusClock(t *testing.T) {
	n := netlist.New("otherclk")
	n.AddInput("clk") // the stimulus clock: no flip-flop is on it
	rstn := n.AddInput("rst_n")
	clk2 := n.AddInput("clk2")
	one := n.AddNet("one")
	n.AddGate(netlist.KindConst1, one)
	q, d := n.AddNet("q"), n.AddNet("d")
	n.AddGate(netlist.KindNot, d, q)
	n.AddDFF(q, d, clk2, one, rstn, logic.Lo)
	n.MarkOutput(q)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	if cd := n.Program().Clock; cd == nil || cd.Net != clk2 {
		t.Fatalf("clock-domain table = %+v, want one on clk2", cd)
	}
	st := resetStimulus(n)
	for c := uint64(2); c < 12; c++ {
		st.At(2*hp*c+3, clk2, logic.Bool(c%2 == 0))
	}
	st.Finalize()
	if _, sk := lockstep(t, n, st, 60, nil); sk.FastEdges() != 0 {
		t.Fatalf("took %d fast edges on a clock the stimulus does not toggle", sk.FastEdges())
	}
}

// TestRestoreAtEitherPhaseFiresNoEdge: Restore re-drives the clock to the
// saved state's phase, which can be a 0→1 or 1→0 transition for the
// restoring simulator. Neither may capture: the registers must hold the
// snapshot exactly, the toggle must not count as a fast edge, and the run
// must continue as the interpreter's does.
func TestRestoreAtEitherPhaseFiresNoEdge(t *testing.T) {
	n, q := counterDesign(t)
	sp, err := SpecFor(n, "")
	if err != nil {
		t.Fatal(err)
	}
	st := resetStimulus(n)
	st.Finalize()
	for _, tc := range []struct {
		name             string
		srcSteps, dstRun int // steps the source and the restoring simulators run first
	}{
		{"high-phase state into low-phase simulator", 13, 0}, // source at t=55 (clk=1), target at t=0 (clk=0)
		{"high-phase state into low-phase simulator mid-run", 13, 8},
		{"low-phase state into high-phase simulator", 14, 7}, // source at t=60 (clk=0), target at t=25 (clk=1)
	} {
		src := New(n, Options{})
		src.BindStimulus(st)
		for i := 0; i < tc.srcSteps; i++ {
			if _, err := src.Step(); err != nil {
				t.Fatal(err)
			}
		}
		snap := src.Snapshot(sp)
		want, _ := src.VecValue(q).Uint64()

		si, sk, ti, tk := enginePair(n, st, MemXVerilog)
		for i := 0; i < tc.dstRun; i++ {
			si.Step()
			sk.Step()
		}
		if si.Value(st.Clock) == src.Value(st.Clock) {
			t.Fatalf("%s: restoring simulator already at the state's clock phase", tc.name)
		}
		edges := sk.FastEdges()
		for _, s := range []*Simulator{si, sk} {
			if err := s.Restore(sp, snap); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.VecValue(q).Uint64(); !ok || got != want {
				t.Fatalf("%s: counter = %s after Restore, snapshot had %d", tc.name, s.VecValue(q), want)
			}
		}
		if sk.FastEdges() != edges {
			t.Fatalf("%s: Restore took the clock toggle through the fast path", tc.name)
		}
		checkAgreement(t, tc.name+": after Restore", si, sk)
		cyc := sk.Cycles()
		for i := 0; i < 10; i++ {
			si.Step()
			sk.Step()
			checkAgreement(t, fmt.Sprintf("%s: step %d after Restore", tc.name, i), si, sk)
		}
		if got, ok := sk.VecValue(q).Uint64(); !ok || got != (want+sk.Cycles()-cyc)%16 {
			t.Fatalf("%s: counter = %s, want %d + %d cycles", tc.name, sk.VecValue(q), want, sk.Cycles()-cyc)
		}
		if sk.FastEdges() != edges+10 {
			t.Fatalf("%s: %d fast edges over the 10 steps after Restore", tc.name, sk.FastEdges()-edges)
		}
		if !ti.Equal(tk) {
			t.Fatalf("%s: commit traces diverged\ninterp:\n%s\nkernel:\n%s", tc.name, ti.Dump(n), tk.Dump(n))
		}
	}
}

// TestForceAcrossCapturingEdge: a force on a flip-flop's input cone and one
// on its output, each held over capturing edges the fast path takes. The
// capture must read the forced D, and a forced Q must hold against it.
func TestForceAcrossCapturingEdge(t *testing.T) {
	m := rtl.NewModule("force")
	a := m.Input("a", 1)
	d := m.N.AddNet("d")
	m.N.AddGate(netlist.KindBuf, d, a[0])
	q := m.Reg("q", rtl.Bus{d}, m.Hi(), 0)
	q2 := m.Reg("q2", q, m.Hi(), 0)
	m.Output("q2", q2)
	n := m.N
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	st := resetStimulus(n)
	st.At(2*hp+1, a[0], logic.Hi)
	st.Finalize()

	var during, after uint64
	si, sk := lockstep(t, n, st, 40, func(step int, si, sk *Simulator) {
		switch step {
		case 8: // t=30, clk low: force D low over the posedges at t=35, 45, 55
			for _, s := range []*Simulator{si, sk} {
				s.Force(d, logic.Lo, s.Now()+6*hp)
			}
		case 9:
			during = sk.FastEdges()
		case 14: // the force released at t=60, which fell back
			after = sk.FastEdges()
			if sk.Value(q[0]) != logic.Lo || sk.Value(q2[0]) != logic.Lo {
				t.Fatalf("forced D not captured: q=%v q2=%v", sk.Value(q[0]), sk.Value(q2[0]))
			}
		case 20: // t=90, clk low, q=1: force Q low over the posedges at t=95 and t=105
			for _, s := range []*Simulator{si, sk} {
				s.Force(q[0], logic.Lo, s.Now()+4*hp)
			}
		case 24:
			if sk.Value(q[0]) != logic.Lo || sk.Value(q2[0]) != logic.Lo {
				t.Fatalf("forced Q did not hold: q=%v q2=%v", sk.Value(q[0]), sk.Value(q2[0]))
			}
		}
	})
	// Steps 8..13 are t=35..60: the force commit left gates dirty for the
	// toggle at t=35 and the release at t=60 dirties the driver; the four
	// toggles in between are clean edges with the force active.
	if got := after - during; got != 4 {
		t.Fatalf("%d fast edges while D was forced, want 4", got)
	}
	if sk.Value(q[0]) != logic.Hi || si.Value(q2[0]) != logic.Hi {
		t.Fatalf("registers did not recover after release: q=%v q2=%v", sk.Value(q[0]), sk.Value(q2[0]))
	}
}

// TestRAMReadDuringWriteFeedsCapture: a RAM written and read at the same
// address on the same edge, its read data feeding a flip-flop that sits
// above the RAM's level. The level-major drain evaluates the RAM first, so
// that flip-flop captures post-write data; sampling at the clock commit
// instead of after the drain would capture the old word.
func TestRAMReadDuringWriteFeedsCapture(t *testing.T) {
	n := netlist.New("rdw")
	clk := n.AddInput("clk")
	rstn := n.AddInput("rst_n")
	one, zero := n.AddNet("one"), n.AddNet("zero")
	n.AddGate(netlist.KindConst1, one)
	n.AddGate(netlist.KindConst0, zero)
	tq, td := n.AddNet("t"), n.AddNet("td")
	n.AddGate(netlist.KindNot, td, tq)
	n.AddDFF(tq, td, clk, one, rstn, logic.Lo)
	rd := n.AddNet("rd")
	ram := n.AddMem(&netlist.Mem{
		Name: "ram", AddrBits: 1, DataBits: 1, Words: 2,
		RAddr: []netlist.NetID{zero}, RData: []netlist.NetID{rd},
		Clk: clk, WEn: one,
		WAddr: []netlist.NetID{zero}, WData: []netlist.NetID{tq},
	})
	b := n.AddNet("b")
	n.AddGate(netlist.KindBuf, b, rd)
	sq := n.AddNet("s")
	sg := n.AddDFF(sq, b, clk, one, rstn, logic.Lo)
	n.MarkOutput(sq)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	if n.GateLevel(sg) <= n.MemLevel(ram) {
		t.Fatalf("capturing DFF at level %d, RAM at %d", n.GateLevel(sg), n.MemLevel(ram))
	}
	st := resetStimulus(n)
	st.Finalize()
	edges := uint64(0)
	_, sk := lockstep(t, n, st, 40, func(step int, si, sk *Simulator) {
		if step < 6 || si.Value(clk) != logic.Hi {
			return
		}
		// Just after a posedge: the RAM holds the toggler's previous
		// value, and s captured it in the same edge.
		edges++
		for _, s := range []*Simulator{si, sk} {
			if want := logic.Not(s.Value(tq)); s.Value(rd) != want || s.Value(sq) != want {
				t.Fatalf("step %d: t=%v rd=%v s=%v, want rd = s = %v (post-write data)",
					step, s.Value(tq), s.Value(rd), s.Value(sq), want)
			}
		}
	})
	if edges == 0 || sk.FastEdges() < 2*edges-1 {
		t.Fatalf("%d posedges checked, %d fast edges", edges, sk.FastEdges())
	}
}

// TestResetPulseFallsBackAndResumes: eligible → fallback → eligible within
// one run. While reset is low at a clock toggle the flip-flops take the
// general path (their asynchronous reset commits in the Active region);
// once it is back at 1 the fast path resumes.
func TestResetPulseFallsBackAndResumes(t *testing.T) {
	n, q := counterDesign(t)
	rstn := n.Inputs[1]
	st := resetStimulus(n)
	st.At(12*hp+1, rstn, logic.Lo) // t=61
	st.At(18*hp+1, rstn, logic.Hi) // t=91
	st.Finalize()
	var last uint64
	_, sk := lockstep(t, n, st, 60, func(step int, si, sk *Simulator) {
		fast := sk.FastEdges() - last
		last = sk.FastEdges()
		now := sk.Now() // the time of the step just taken
		toggle := now > 0 && now%hp == 0
		inReset := now <= 2*hp+1 || (now >= 12*hp+1 && now <= 18*hp+1)
		switch {
		case toggle && !inReset && fast != 1:
			t.Fatalf("t=%d: clean toggle took the general path", now)
		case (!toggle || inReset) && fast != 0:
			t.Fatalf("t=%d: fast edge with reset low or no toggle", now)
		}
		if now == 18*hp {
			if v, ok := sk.VecValue(q).Uint64(); !ok || v != 0 {
				t.Fatalf("counter = %s at the end of the reset pulse", sk.VecValue(q))
			}
		}
	})
	if v, ok := sk.VecValue(q).Uint64(); !ok || v == 0 {
		t.Fatalf("counter = %s: did not resume after the pulse", sk.VecValue(q))
	}
}

// TestClockThroughXMerges: the stimulus parks the clock at X between two
// toggles. The next toggle is X→1 — possibly an edge, possibly not — so a
// register whose D differs from Q must merge to X rather than capture, and
// the toggle must stay off the fast path, which knows only clean edges.
func TestClockThroughXMerges(t *testing.T) {
	m := rtl.NewModule("xclk")
	a := m.Input("a", 1)
	q := m.Reg("q", a, m.Hi(), 0)
	m.Output("q", q)
	n := m.N
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	clk := n.Inputs[0]
	st := resetStimulus(n)
	st.At(2*hp+1, a[0], logic.Lo)
	st.At(8*hp+1, a[0], logic.Hi) // t=41, clk low: D=1, Q=0
	st.At(8*hp+2, clk, logic.X)   // t=42
	st.Finalize()
	var before uint64
	_, sk := lockstep(t, n, st, 30, func(step int, si, sk *Simulator) {
		switch sk.Now() {
		case 8*hp + 2:
			before = sk.FastEdges()
		case 9 * hp: // the X→1 toggle has run
			if sk.FastEdges() != before {
				t.Fatal("X→1 toggle took the fast path")
			}
			if si.Value(q[0]) != logic.X || sk.Value(q[0]) != logic.X {
				t.Fatalf("q = %v/%v after an X→1 clock toggle with D != Q, want x", si.Value(q[0]), sk.Value(q[0]))
			}
		}
	})
	if sk.FastEdges() == before || sk.Value(q[0]) != logic.Hi {
		t.Fatalf("fast path did not resume after the X phase: %d edges, q=%v", sk.FastEdges()-before, sk.Value(q[0]))
	}
}

// TestDisabledRegisterHoldingZ: a capture with EN=0 holds Q — except that
// the hold goes through Mux, which folds a Z on Q to X. The dense pass may
// skip a disabled register only when that fold changes nothing.
func TestDisabledRegisterHoldingZ(t *testing.T) {
	m := rtl.NewModule("zq")
	en := m.Input("en", 1)
	a := m.Input("a", 1)
	q := m.Reg("q", a, en[0], 0)
	m.Output("q", q)
	n := m.N
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	st := resetStimulus(n)
	st.At(2*hp+1, en[0], logic.Lo)
	st.At(2*hp+1, a[0], logic.Hi)
	st.Finalize()
	var before uint64
	lockstep(t, n, st, 12, func(step int, si, sk *Simulator) {
		switch step {
		case 5: // t=15, clk high: the negedge at t=20 settles the Drive, the posedge at t=25 is clean
			si.Drive(q[0], logic.Z)
			sk.Drive(q[0], logic.Z)
		case 6:
			before = sk.FastEdges()
			if sk.Value(q[0]) != logic.Z {
				t.Fatalf("q = %v after the negedge, want z", sk.Value(q[0]))
			}
		case 7:
			if sk.FastEdges() != before+1 {
				t.Fatal("posedge with Z on a disabled register's Q left the fast path")
			}
			if si.Value(q[0]) != logic.X || sk.Value(q[0]) != logic.X {
				t.Fatalf("q = %v/%v after the posedge, want x (Mux folds z)", si.Value(q[0]), sk.Value(q[0]))
			}
		}
	})
}
