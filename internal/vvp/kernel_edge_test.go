package vvp

import (
	"fmt"
	"slices"
	"testing"

	"symsim/internal/logic"
	"symsim/internal/netlist"
	"symsim/internal/rtl"
)

// Directed tests of the kernel's clock-edge fast path (kernel.go,
// DESIGN.md §8 "The clean edge"): each one drives the kernel and the interpreter in lockstep
// through a situation where the fast path either must hand the edge to the
// general path or must do something a naive pass would get wrong, and
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
		ctx := fmt.Sprintf("step %d (t=%d)", step, si.Now())
		checkAgreement(t, ctx, si, sk)
		si.checkInvariants(t, ctx+" (interpreter)")
		sk.checkInvariants(t, ctx)
	}
	if !ti.Equal(tk) {
		t.Fatalf("commit traces diverged\ninterp:\n%s\nkernel:\n%s", ti.Dump(n), tk.Dump(n))
	}
	if si.FastEdges() != 0 {
		t.Fatalf("interpreter took %d fast edges", si.FastEdges())
	}
	return si, sk
}

// trio steps three simulators of n through steps time steps of st: an
// interpreter, a traced kernel, and a bare, recording kernel — the
// configuration Analyze runs, and the only one whose level round commits in
// line. prep, when non-nil, runs on each before it starts recording, and
// each, when non-nil, before every step. All three are held to the contract
// after prep and after every step, and compared after every step — the
// kernels with the interpreter and with each other — and the commit traces
// at the end.
func trio(t *testing.T, n *netlist.Netlist, st *Stimulus, steps int, prep func(s *Simulator), each func(step int, si, sk, sb *Simulator)) (si, sk, sb *Simulator) {
	t.Helper()
	si, sk, ti, tk := enginePair(n, st, MemXVerilog)
	sb = New(n, Options{})
	sb.BindStimulus(st)
	for _, s := range []*Simulator{si, sk, sb} {
		if prep != nil {
			prep(s)
		}
		s.StartRecording()
		s.checkInvariants(t, fmt.Sprintf("prepared %v engine", s.opts.Engine))
	}
	for step := 0; step < steps; step++ {
		if each != nil {
			each(step, si, sk, sb)
		}
		for _, s := range []*Simulator{si, sk, sb} {
			if _, err := s.Step(); err != nil {
				t.Fatalf("step %d: %v engine: %v", step, s.opts.Engine, err)
			}
		}
		ctx := fmt.Sprintf("step %d (t=%d)", step, si.Now())
		checkAgreement(t, ctx, si, sk)
		checkAgreement(t, ctx+" (bare kernel)", si, sb)
		checkSameKernel(t, ctx, sk, sb)
		si.checkInvariants(t, ctx+" (interpreter)")
		sk.checkInvariants(t, ctx)
		sb.checkInvariants(t, ctx+" (bare kernel)")
	}
	if !ti.Equal(tk) {
		t.Fatalf("commit traces diverged\ninterp:\n%s\nkernel:\n%s", ti.Dump(n), tk.Dump(n))
	}
	return si, sk, sb
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
		sk.checkInvariants(t, tc.name+": after Restore")
		cyc := sk.Cycles()
		for i := 0; i < 10; i++ {
			si.Step()
			sk.Step()
			ctx := fmt.Sprintf("%s: step %d after Restore", tc.name, i)
			checkAgreement(t, ctx, si, sk)
			sk.checkInvariants(t, ctx)
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
	// Steps 9..13 are t=40..60: four clean edges with the force active, and
	// the release at t=60, which dirties d's driver — a buffer, not a
	// flip-flop, so that toggle is a clean edge too (it fell back while any
	// dirty gate did, and the count was 4; so did the toggle at t=35, which
	// the force commit's dirty cone no longer keeps off the fast path).
	if got := after - during; got != 5 {
		t.Fatalf("%d fast edges while D was forced, want 5", got)
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
// the hold goes through Mux, which folds a Z on Q to X. The capture pass may
// skip a disabled register, or a disabled group of them, only when that fold
// changes nothing.
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

// forkFixture is what the tests of a path's first edge share: a two-register
// pipeline a -> d -> q -> q2 beside a RAM on the domain clock, enabled by
// we = buf(q), whose read data feeds a third register, run past reset and
// snapshotted with the clock low. The clock reaches nothing but clock pins.
type forkFixture struct {
	n              *netlist.Netlist
	st             *Stimulus
	sp             *StateSpec
	snap           State
	rstn, d, q, we netlist.NetID
	ram            netlist.MemID
}

func newForkFixture(t *testing.T) *forkFixture {
	t.Helper()
	m := rtl.NewModule("fork")
	a := m.Input("a", 1)
	d := m.N.AddNet("d")
	m.N.AddGate(netlist.KindBuf, d, a[0])
	q := m.Reg("q", rtl.Bus{d}, m.Hi(), 0)
	q2 := m.Reg("q2", q, m.Hi(), 0)
	we := m.N.AddNet("we")
	m.N.AddGate(netlist.KindBuf, we, q[0])
	rd := m.N.AddNet("rd")
	ram := m.N.AddMem(&netlist.Mem{
		Name: "ram", AddrBits: 1, DataBits: 1, Words: 2,
		RAddr: []netlist.NetID{q2[0]}, RData: []netlist.NetID{rd},
		Clk: m.N.Inputs[0], WEn: we,
		WAddr: []netlist.NetID{q2[0]}, WData: []netlist.NetID{d},
	})
	q3 := m.Reg("q3", rtl.Bus{rd}, m.Hi(), 0)
	m.Output("q3", q3)
	n := m.N
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	if cd := n.Program().Clock; cd == nil || !cd.ClockPinsOnly {
		t.Fatalf("fixture's clock-domain table = %+v, want one whose clock reaches clock pins only", cd)
	}
	st := resetStimulus(n)
	st.At(2*hp+1, a[0], logic.Hi)
	st.Finalize()
	sp, err := SpecFor(n, "")
	if err != nil {
		t.Fatal(err)
	}
	src := New(n, Options{})
	src.BindStimulus(st)
	for src.Now() < 12*hp { // t=60: clock low, the next toggle is a posedge
		if _, err := src.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return &forkFixture{n: n, st: st, sp: sp, snap: src.Snapshot(sp),
		rstn: n.Inputs[1], d: d, q: q[0], we: we, ram: ram}
}

// TestFirstEdgeOfAPath: what a path of Algorithm 1 does before its first
// clock toggle — Restore, then a force that leaves a cone dirty — and three
// other kinds of work pending at a toggle. The toggle is a clean edge unless
// a flip-flop is dirty: combinational gates and memories that await
// evaluation are ordered below the flip-flops that read them by the drain
// either way. Each case runs the interpreter, a traced kernel and a bare,
// recording kernel (the configuration Analyze runs) through the same steps,
// compares them after each, and says through FastEdges which way the first
// toggle went.
func TestFirstEdgeOfAPath(t *testing.T) {
	fx := newForkFixture(t)
	for _, tc := range []struct {
		name    string
		pending func(s *Simulator)
		fast    bool
	}{
		{"restore alone", func(*Simulator) {}, true},
		// The fork: the forced net's cone is dirty, no flip-flop is.
		{"force on the branch cone", func(s *Simulator) { s.Force(fx.d, logic.Lo, s.Now()+3*hp) }, true},
		// A reset that moved marks every flip-flop, and is not at 1.
		{"pending Drive on the reset", func(s *Simulator) { s.Drive(fx.rstn, logic.X) }, false},
		// A force on a Q that expires at the toggle re-dirties the flip-flop.
		{"released force on a Q", func(s *Simulator) { s.Force(fx.q, logic.Lo, s.Now()+hp) }, false},
		// A memory awaiting evaluation is not a flip-flop: its write port
		// fires on the edge and its read data reaches q3's D below q3.
		{"pending SetMemWord on the domain's RAM", func(s *Simulator) {
			s.SetMemWord(fx.ram, 0, logic.MustVec("1"))
			s.SetMemWord(fx.ram, 1, logic.MustVec("1"))
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var edges uint64
			trio(t, fx.n, fx.st, 8, func(s *Simulator) {
				if err := s.Restore(fx.sp, fx.snap); err != nil {
					t.Fatal(err)
				}
				tc.pending(s)
			}, func(step int, _, sk, _ *Simulator) {
				switch step {
				case 0:
					edges = sk.FastEdges()
				case 1:
					if got := sk.FastEdges() - edges; (got == 1) != tc.fast {
						t.Fatalf("the path's first toggle took %d fast edges, want fast = %v", got, tc.fast)
					}
				}
			})
		})
	}
}

// TestReleasedForceOnAWriteEnable: a path that forced the RAM's write enable
// low, with the force expiring at the second posedge after. The release
// re-dirties the enable's driver, a buffer of q (which is 1), so that toggle
// is a clean edge with work pending: the enable is 0 when the clock rises
// and 1 by the time the drain reaches the RAM's level, so the RAM must be
// queued at the edge, and write. Word 1, the one q2 addresses, is cleared
// first, so that the write shows.
func TestReleasedForceOnAWriteEnable(t *testing.T) {
	fx := newForkFixture(t)
	zero, one := logic.MustVec("0"), logic.MustVec("1")
	var edges uint64
	trio(t, fx.n, fx.st, 8, func(s *Simulator) {
		if err := s.Restore(fx.sp, fx.snap); err != nil {
			t.Fatal(err)
		}
		s.SetMemWord(fx.ram, 1, zero)
		s.Force(fx.we, logic.Lo, s.Now()+3*hp) // released at the posedge at t=75
	}, func(step int, si, sk, sb *Simulator) {
		want := zero
		switch step {
		case 2: // t=70: the posedge at t=65 ran with the enable forced low
			edges = sk.FastEdges()
		case 3: // t=75 has run
			if sk.FastEdges() != edges+1 {
				t.Fatal("the toggle that released the force left the fast path")
			}
			want = one
		default:
			return
		}
		for _, s := range []*Simulator{si, sk, sb} {
			if got := s.MemWord(fx.ram, 1); !got.Equal(want) {
				t.Fatalf("t=%d: %v engine: word 1 = %s, want %s", s.Now(), s.opts.Engine, got, want)
			}
		}
	})
}

// TestGeneralToggleAfterCleanEdges: a run of clean edges, a posedge that an
// input event in its time step sends down the general path, and clean edges
// again. While the edges were clean no flip-flop stored a clock sample — the
// samples followed the clock — so the general path must first give every
// flip-flop the old level, or it loses that posedge's capture. The
// registers are togglers on two enables whose groups interleave in kernel
// order, so the captures of one edge also pin the NBA order, and one of the
// enables falls for two posedges, whose captures skip its group.
func TestGeneralToggleAfterCleanEdges(t *testing.T) {
	n := netlist.New("follow")
	clk, rstn := n.AddInput("clk"), n.AddInput("rst_n")
	enb, ena, x := n.AddInput("enb"), n.AddInput("ena"), n.AddInput("x")
	var qs []netlist.NetID
	for i := 0; i < 4; i++ {
		en, name := ena, fmt.Sprintf("a%d", i/2)
		if i%2 == 1 {
			en, name = enb, fmt.Sprintf("b%d", i/2)
		}
		q, d := n.AddNet(name), n.AddNet(name+"_d")
		n.AddGate(netlist.KindNot, d, q)
		n.AddDFF(q, d, clk, en, rstn, logic.Lo)
		n.MarkOutput(q)
		qs = append(qs, q)
	}
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	if cd := n.Program().Clock; cd == nil || len(cd.Groups) != 3 || slices.IsSorted(cd.DFFs) {
		t.Fatalf("clock-domain table = %+v, want two groups out of kernel order", cd)
	}
	const general = 9 * hp // t=45, a posedge
	st := resetStimulus(n)
	st.At(1, ena, logic.Hi)
	st.At(1, enb, logic.Hi)
	st.At(general, x, logic.Hi)
	st.At(12*hp+1, enb, logic.Lo) // the b group holds over the posedges at t=65, 75
	st.At(16*hp+1, enb, logic.Hi)
	st.Finalize()
	var last uint64
	_, sk, _ := trio(t, n, st, 28, nil, func(_ int, _, sk, _ *Simulator) {
		fast := sk.FastEdges() - last
		last = sk.FastEdges()
		now := sk.Now() // the time of the step just taken
		toggle := now > 2*hp+1 && now%hp == 0
		if want := toggle && now != general; (fast == 1) != want {
			t.Fatalf("t=%d: %d fast edges, want one = %v", now, fast, want)
		}
	})
	// The run ends at t=120: the a togglers saw the eleven posedges from
	// t=15 to t=115, the b togglers nine of them.
	for _, q := range qs {
		if got := sk.Value(q); got != logic.Hi {
			t.Fatalf("%s = %v after an odd number of captures", n.NetName(q), got)
		}
	}
}

// TestTwoRAMsOnTheClock: RAM a is written on every posedge with a toggler's
// value, and its read data is RAM b's write enable, so b writes at the
// posedges at which a's write takes that enable from 0 to 1 in the drain —
// it is 0 when the clock rises. The clock reaches nothing but clock pins,
// so a falling edge leaves both RAMs unqueued; a rising one must queue
// both, b too, because a can write. At the posedge at t=45 a's own enable
// is X and b's is 0: a may write, and its word merges to X.
func TestTwoRAMsOnTheClock(t *testing.T) {
	n := netlist.New("tworams")
	clk, rstn, wa := n.AddInput("clk"), n.AddInput("rst_n"), n.AddInput("wa")
	one, zero := n.AddNet("one"), n.AddNet("zero")
	n.AddGate(netlist.KindConst1, one)
	n.AddGate(netlist.KindConst0, zero)
	tq, td := n.AddNet("t"), n.AddNet("td")
	n.AddGate(netlist.KindNot, td, tq)
	n.AddDFF(tq, td, clk, one, rstn, logic.Lo)
	rdA, rdB := n.AddNet("rda"), n.AddNet("rdb")
	ram := func(name string, wen, rd netlist.NetID) netlist.MemID {
		return n.AddMem(&netlist.Mem{
			Name: name, AddrBits: 1, DataBits: 1, Words: 2,
			RAddr: []netlist.NetID{zero}, RData: []netlist.NetID{rd},
			Clk: clk, WEn: wen,
			WAddr: []netlist.NetID{zero}, WData: []netlist.NetID{tq},
		})
	}
	a, b := ram("a", wa, rdA), ram("b", rdA, rdB)
	sq := n.AddNet("s")
	n.AddDFF(sq, rdB, clk, one, rstn, logic.Lo)
	n.MarkOutput(sq)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	// A write pin carries no level: b shares a's, and a's lower ID evaluates
	// it first.
	if cd := n.Program().Clock; cd == nil || !cd.ClockPinsOnly || n.MemLevel(b) != n.MemLevel(a) || a > b {
		t.Fatalf("clock-domain table %+v, RAMs %d and %d at levels %d and %d", cd, a, b, n.MemLevel(a), n.MemLevel(b))
	}
	st := resetStimulus(n)
	st.At(1, wa, logic.Hi)
	st.At(8*hp, wa, logic.X) // over the posedge at t=45, where a holds 0
	st.At(10*hp, wa, logic.Hi)
	st.Finalize()
	var last uint64
	_, sk, _ := trio(t, n, st, 40, nil, func(_ int, _, sk, _ *Simulator) {
		fast := sk.FastEdges() - last
		last = sk.FastEdges()
		now := sk.Now()
		toggle := now > 2*hp+1 && now%hp == 0
		if want := toggle && now != 8*hp && now != 10*hp; (fast == 1) != want {
			t.Fatalf("t=%d: %d fast edges, want one = %v", now, fast, want)
		}
		if now == 9*hp && sk.Value(rdA).IsKnown() {
			t.Fatalf("t=%d: a's word = %v after a write with its enable at X", now, sk.Value(rdA))
		}
	})
	if got := sk.MemWord(b, 0); !got.Equal(logic.MustVec("1")) {
		t.Fatalf("RAM b word 0 = %s after the run, want 1 (written whenever a's write raised its enable)", got)
	}
}

// xResetDesign is two togglers, qa on reset ra and qb on reset rb, both
// enabled by en: under an X reset a toggler's own output moves its D, which
// is the one thing that schedules the re-merge of Q after a capture.
func xResetDesign(t *testing.T) (n *netlist.Netlist, ra, rb, en, qa, qb netlist.NetID) {
	t.Helper()
	n = netlist.New("xreset")
	n.AddInput("clk")
	ra, rb, en = n.AddInput("ra_n"), n.AddInput("rb_n"), n.AddInput("en")
	for i, rs := range []netlist.NetID{ra, rb} {
		q, d := n.AddNet(fmt.Sprintf("q%c", 'a'+i)), n.AddNet(fmt.Sprintf("d%c", 'a'+i))
		n.AddGate(netlist.KindNot, d, q)
		n.AddDFF(q, d, n.Inputs[0], en, rs, logic.Lo)
		n.MarkOutput(q)
	}
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	qa, _ = n.NetByName("qa")
	qb, _ = n.NetByName("qb")
	return n, ra, rb, en, qa, qb
}

// TestDataPinsScheduleUnderXReset: with a reset at X a flip-flop that
// captures re-merges Q in the very time step of the capture — the NBA commit
// of Q moves D, D schedules the flip-flop, and stepDFF folds the reset value
// back in — where a kernel that left data pins out of the schedule for good
// would show the captured value until the next clock toggle. The resets go
// to X one at a time, so a quiet flag that looks at one reset net, or is
// never cleared, leaves one of the two togglers at its captured value; the
// bare kernel is the one whose level round commits in line. On the batch
// engine the same state is admitted beside a lane whose resets are at 1.
func TestDataPinsScheduleUnderXReset(t *testing.T) {
	n, ra, rb, en, qa, qb := xResetDesign(t)
	const (
		xa    = 6*hp + 1  // ra goes to X at t=31, clock low, both togglers at 0
		pulse = 10*hp + 1 // both resets low from t=51 to t=71, to start over from 0
		xb    = 18*hp + 1 // rb goes to X at t=91, both togglers at 0 again
		idle  = 24*hp + 1 // en falls at t=121: nothing moves after that
	)
	st := NewStimulus(n.Inputs[0], hp)
	for _, r := range []netlist.NetID{ra, rb} {
		st.At(1, r, logic.Lo)
		st.At(2*hp+1, r, logic.Hi)
		st.At(pulse, r, logic.Lo)
		st.At(pulse+4*hp, r, logic.Hi)
	}
	st.At(1, en, logic.Hi)
	st.At(xa, ra, logic.X)
	st.At(xb, rb, logic.X)
	st.At(xb+4*hp, rb, logic.Hi)
	st.At(idle, en, logic.Lo)
	st.Finalize()
	sp, err := SpecFor(n, "")
	if err != nil {
		t.Fatal(err)
	}

	sb := New(n, Options{})
	sb.BindStimulus(st)
	var underX, atIdle State
	lockstep(t, n, st, 60, func(step int, si, sk *Simulator) {
		if step == 0 {
			si.StartRecording()
			sk.StartRecording()
			sb.StartRecording()
		} else {
			if _, err := sb.Step(); err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("t=%d (bare kernel)", sb.Now())
			checkAgreement(t, ctx, si, sb)
			sb.checkInvariants(t, ctx)
		}
		switch si.Now() { // the time of the step just taken
		case xa, xb:
			if si.Value(qa) != logic.Lo || si.Value(qb) != logic.Lo {
				t.Fatalf("t=%d: togglers at %v/%v when the reset goes to X, want 0/0", si.Now(), si.Value(qa), si.Value(qb))
			}
			if si.Now() == xb {
				underX = si.Snapshot(sp)
			}
		case xa + hp - 1, xb + hp - 1: // the first posedge under the X reset
			merged, clean := qa, qb
			if si.Now() > xb {
				merged, clean = qb, qa
			}
			for _, s := range []*Simulator{si, sk, sb} {
				if s.Value(merged) != logic.X || s.Value(clean) != logic.Hi {
					t.Fatalf("t=%d: %v engine: toggler under the X reset = %v, the other = %v; want x (re-merged in the step of the capture) and 1",
						s.Now(), s.opts.Engine, s.Value(merged), s.Value(clean))
				}
			}
		case idle + 2*hp - 1:
			atIdle = si.Snapshot(sp)
		}
	})

	// Lane 0 idles with both resets at 1; lane 1 starts where rb has just
	// gone to X.
	b := NewBatchSim(n, BatchOptions{})
	b.BindStimulus(st)
	ref := New(n, Options{Engine: EngineInterp})
	ref.BindStimulus(st)
	if err := b.RestoreLane(sp, atIdle, 0); err != nil {
		t.Fatal(err)
	}
	if !b.quiet {
		t.Fatal("one lane with its resets at 1: batch not quiet")
	}
	// Twice, as a slot is re-used: the second admission finds every input
	// where the state wants it, so no reset net commits and only the change
	// of the occupied lanes can tell the batch that it is no longer quiet.
	for i := 0; i < 2; i++ {
		if i > 0 {
			b.RetireLane(1)
		}
		if err := b.RestoreLane(sp, underX, 1); err != nil {
			t.Fatal(err)
		}
		if b.quiet {
			t.Fatalf("admission %d of a lane under an X reset: batch still quiet", i)
		}
	}
	if err := ref.Restore(sp, underX); err != nil {
		t.Fatal(err)
	}
	b.StartRecordingLane(1)
	ref.StartRecording()
	b.checkInvariants(t, "lane admitted under an X reset")
	for step := 0; step < 6; step++ {
		if _, _, err := b.StepAll(); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Step(); err != nil {
			t.Fatal(err)
		}
		ctx := fmt.Sprintf("batch step %d", step)
		checkLane(t, ctx, b, ref, 1)
		b.checkInvariants(t, ctx)
	}
	if got := b.LaneValue(qb, 1); got != logic.X {
		t.Fatalf("batch lane under the X reset: qb = %v, want x", got)
	}
	b.RetireLane(1)
	if !b.quiet {
		t.Fatal("the lane under the X reset retired: batch not quiet again")
	}
}

// TestQuietMovesInsideARound: a reset driven by logic goes low in the middle
// of a level round, and a gate later in the same round moves the D pin of a
// flip-flop on another reset. commit, which the traced kernel takes, marks
// that flip-flop because the design is no longer quiet; the bare kernel's
// in-line commit must give way to commit from that gate on, or the two
// kernels stop evaluating the same gates.
func TestQuietMovesInsideARound(t *testing.T) {
	n := netlist.New("midround")
	clk, rstn, x := n.AddInput("clk"), n.AddInput("rst_n"), n.AddInput("x")
	one := n.AddNet("one")
	n.AddGate(netlist.KindConst1, one)
	lrst, bx := n.AddNet("lrst"), n.AddNet("bx")
	n.AddGate(netlist.KindAnd, lrst, rstn, x) // before bx's driver in the round
	n.AddGate(netlist.KindBuf, bx, x)
	q1, q2 := n.AddNet("q1"), n.AddNet("q2")
	n.AddDFF(q1, one, clk, one, lrst, logic.Lo)
	n.AddDFF(q2, bx, clk, one, rstn, logic.Lo)
	nbx := n.AddNet("nbx") // a reader besides q2's D pin gives bx's driver a GateRun
	n.AddGate(netlist.KindNot, nbx, bx)
	n.MarkOutput(q1)
	n.MarkOutput(q2)
	n.MarkOutput(nbx)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	p := n.Program()
	if a, b := p.Renum[n.Nets[lrst].Driver], p.Renum[n.Nets[bx].Driver]; p.GateLevel[a] != p.GateLevel[b] || a > b || p.GateRun[a].Mask != 0 || p.GateRun[b].Mask == 0 {
		t.Fatalf("fixture: lrst's driver %d (level %d, GateRun %+v) must commit through commit and precede bx's %d (level %d, GateRun %+v) in one round",
			a, p.GateLevel[a], p.GateRun[a], b, p.GateLevel[b], p.GateRun[b])
	}
	st := resetStimulus(n)
	st.At(2*hp+1, x, logic.Hi)
	st.At(6*hp+1, x, logic.Lo) // lrst falls and bx moves in the same round
	st.At(8*hp+1, x, logic.Hi)
	st.Finalize()
	trio(t, n, st, 24, nil, nil)
}
