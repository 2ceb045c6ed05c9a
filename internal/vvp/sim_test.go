package vvp

import (
	"slices"
	"testing"

	"symsim/internal/logic"
	"symsim/internal/netlist"
	"symsim/internal/rtl"
)

const hp = 5 // clock half-period used throughout the tests

// counterDesign builds a 4-bit counter with the declare-then-drive idiom:
// the register's D nets are declared first and driven by the increment of
// its own Q afterwards.
func counterDesign(t *testing.T) (*netlist.Netlist, rtl.Bus) {
	t.Helper()
	m := rtl.NewModule("counter")
	d := rtl.Bus{m.N.AddNet("d0"), m.N.AddNet("d1"), m.N.AddNet("d2"), m.N.AddNet("d3")}
	q := m.Reg("q", d, m.Hi(), 0)
	next := m.Inc(q)
	for i := range d {
		m.N.AddGate(netlist.KindBuf, d[i], next[i])
	}
	m.Output("q", q)
	if err := m.N.Freeze(); err != nil {
		t.Fatal(err)
	}
	return m.N, q
}

func startSim(t *testing.T, d *netlist.Netlist, opts Options) *Simulator {
	t.Helper()
	s := New(d, opts)
	st := NewStimulus(d.Inputs[0], hp)
	rstn := d.Inputs[1]
	st.At(1, rstn, logic.Lo)
	st.At(2*hp+1, rstn, logic.Hi)
	st.Finalize()
	s.BindStimulus(st)
	return s
}

// stepCycles advances the simulation by n clock cycles.
func stepCycles(t *testing.T, s *Simulator, n uint64) {
	t.Helper()
	target := s.Cycles() + n
	for s.Cycles() < target {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCounterCounts(t *testing.T) {
	d, q := counterDesign(t)
	s := startSim(t, d, Options{})
	// Run past reset (1 cycle held in reset) plus 5 counted cycles.
	stepCycles(t, s, 1) // reset cycle
	v, ok := s.VecValue(rtl.Bus(q)).Uint64()
	if !ok || v != 0 {
		t.Fatalf("counter after reset = %v (%s)", v, s.VecValue(q))
	}
	for want := uint64(1); want <= 5; want++ {
		stepCycles(t, s, 1)
		got, ok := s.VecValue(q).Uint64()
		if !ok || got != want {
			t.Fatalf("counter after %d cycles = %s, want %d", want, s.VecValue(q), want)
		}
	}
}

func TestDFFEnableGates(t *testing.T) {
	m := rtl.NewModule("en")
	en := m.Input("en", 1)
	din := m.Input("din", 1)
	q := m.Reg("q", din, en[0], 0)
	m.Output("q", q)
	if err := m.N.Freeze(); err != nil {
		t.Fatal(err)
	}
	s := New(m.N, Options{})
	st := NewStimulus(m.N.Inputs[0], hp)
	rstn := m.N.Inputs[1]
	st.At(1, rstn, logic.Lo)
	st.At(2*hp+1, rstn, logic.Hi)
	st.At(2*hp+1, en[0], logic.Lo)
	st.At(2*hp+1, din[0], logic.Hi)
	st.At(8*hp+1, en[0], logic.Hi)
	st.Finalize()
	s.BindStimulus(st)

	stepCycles(t, s, 3)
	if got := s.Value(q[0]); got != logic.Lo {
		t.Fatalf("disabled register changed to %v", got)
	}
	stepCycles(t, s, 3)
	if got := s.Value(q[0]); got != logic.Hi {
		t.Fatalf("enabled register did not load: %v", got)
	}
}

func TestDFFEnableXMerges(t *testing.T) {
	// With an unknown enable and D != Q, the register must go X after a
	// clock edge (conservative capture).
	m := rtl.NewModule("enx")
	en := m.Input("en", 1)
	din := m.Input("din", 1)
	q := m.Reg("q", din, en[0], 0)
	m.Output("q", q)
	if err := m.N.Freeze(); err != nil {
		t.Fatal(err)
	}
	s := New(m.N, Options{})
	st := NewStimulus(m.N.Inputs[0], hp)
	rstn := m.N.Inputs[1]
	st.At(1, rstn, logic.Lo)
	st.At(2*hp+1, rstn, logic.Hi)
	st.At(2*hp+1, din[0], logic.Hi)
	// en stays X (never driven)
	st.Finalize()
	s.BindStimulus(st)
	stepCycles(t, s, 3)
	if got := s.Value(q[0]); got != logic.X {
		t.Fatalf("X-enable capture = %v, want X", got)
	}
}

func TestAsyncResetDominates(t *testing.T) {
	d, q := counterDesign(t)
	s := startSim(t, d, Options{})
	stepCycles(t, s, 5)
	if v, _ := s.VecValue(q).Uint64(); v == 0 {
		t.Fatal("counter did not advance")
	}
	// Reassert reset mid-run via direct commit on the input.
	s.commit(d.Inputs[1], logic.Lo, RegionActive)
	if err := s.settle(); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.VecValue(q).Uint64(); !ok || v != 0 {
		t.Fatalf("async reset did not clear counter: %s", s.VecValue(q))
	}
}

func TestXPropagatesThroughLogic(t *testing.T) {
	m := rtl.NewModule("xprop")
	a := m.Input("a", 1)
	b := m.Input("b", 1)
	and := m.AndBit(a[0], b[0])
	or := m.OrBit(a[0], b[0])
	m.Output("and", rtl.Bus{and})
	m.Output("or", rtl.Bus{or})
	if err := m.N.Freeze(); err != nil {
		t.Fatal(err)
	}
	s := New(m.N, Options{})
	st := NewStimulus(m.N.Inputs[0], hp)
	st.At(1, m.N.Inputs[1], logic.Hi)
	st.At(1, b[0], logic.Hi) // a stays X
	st.Finalize()
	s.BindStimulus(st)
	stepCycles(t, s, 1)
	if s.Value(and) != logic.X {
		t.Errorf("AND(x,1) = %v, want x", s.Value(and))
	}
	if s.Value(or) != logic.Hi {
		t.Errorf("OR(x,1) = %v, want 1 (controlling value)", s.Value(or))
	}
}

func TestROMRead(t *testing.T) {
	m := rtl.NewModule("rom")
	addr := m.Input("addr", 2)
	init := []logic.Vec{
		logic.NewVecUint64(8, 0x11),
		logic.NewVecUint64(8, 0x22),
		logic.NewVecUint64(8, 0x33),
		logic.NewVecUint64(8, 0x44),
	}
	data := m.ROM("rom", addr, 8, 4, init)
	m.Output("data", data)
	if err := m.N.Freeze(); err != nil {
		t.Fatal(err)
	}
	s := New(m.N, Options{})
	st := NewStimulus(m.N.Inputs[0], hp)
	st.At(1, m.N.Inputs[1], logic.Hi)
	st.At(1, addr[0], logic.Lo)
	st.At(1, addr[1], logic.Hi) // addr = 2
	st.Finalize()
	s.BindStimulus(st)
	stepCycles(t, s, 1)
	if v, ok := s.VecValue(data).Uint64(); !ok || v != 0x33 {
		t.Fatalf("ROM[2] = %s, want 0x33", s.VecValue(data))
	}
	// X address reads X.
	s.commit(addr[0], logic.X, RegionActive)
	if err := s.settle(); err != nil {
		t.Fatal(err)
	}
	if s.VecValue(data).CountX() != 8 {
		t.Fatalf("ROM[x] = %s, want all-X", s.VecValue(data))
	}
}

// ramDesign builds a RAM with write port wired to inputs.
func ramDesign(t *testing.T) (*netlist.Netlist, rtl.Bus, rtl.Bus, rtl.Bus, netlist.NetID, rtl.Bus) {
	t.Helper()
	m := rtl.NewModule("ram")
	raddr := m.Input("raddr", 2)
	waddr := m.Input("waddr", 2)
	wdata := m.Input("wdata", 4)
	wen := m.Input("wen", 1)
	init := make([]logic.Vec, 4)
	for i := range init {
		init[i] = logic.NewVecUint64(4, uint64(i))
	}
	rdata := m.RAM("ram", raddr, 4, 4, init, wen[0], waddr, wdata)
	m.Output("rdata", rdata)
	if err := m.N.Freeze(); err != nil {
		t.Fatal(err)
	}
	return m.N, raddr, waddr, wdata, wen[0], rdata
}

func TestRAMWriteRead(t *testing.T) {
	d, raddr, waddr, wdata, wen, rdata := ramDesign(t)
	s := New(d, Options{})
	st := NewStimulus(d.Inputs[0], hp)
	st.At(1, d.Inputs[1], logic.Hi)
	// Read word 1, write 0xA to word 1 on the first posedge.
	st.At(1, raddr[0], logic.Hi)
	st.At(1, raddr[1], logic.Lo)
	st.At(1, waddr[0], logic.Hi)
	st.At(1, waddr[1], logic.Lo)
	st.At(1, wen, logic.Hi)
	for i := 0; i < 4; i++ {
		v := logic.Lo
		if 0xA>>uint(i)&1 == 1 {
			v = logic.Hi
		}
		st.At(1, wdata[i], v)
	}
	st.At(hp+1, wen, logic.Lo)
	st.Finalize()
	s.BindStimulus(st)

	// Before the first posedge the read must return the init value.
	if _, err := s.Step(); err != nil { // t=1: apply inputs (no clock edge yet)
		t.Fatal(err)
	}
	if v, ok := s.VecValue(rdata).Uint64(); !ok || v != 1 {
		t.Fatalf("pre-write read = %s, want 1", s.VecValue(rdata))
	}
	stepCycles(t, s, 1)
	if v, ok := s.VecValue(rdata).Uint64(); !ok || v != 0xA {
		t.Fatalf("post-write read = %s, want 0xA", s.VecValue(rdata))
	}
}

func TestRAMXAddrWriteVerilogDropped(t *testing.T) {
	d, raddr, _, wdata, wen, rdata := ramDesign(t)
	s := New(d, Options{MemX: MemXVerilog})
	st := NewStimulus(d.Inputs[0], hp)
	st.At(1, d.Inputs[1], logic.Hi)
	st.At(1, raddr[0], logic.Lo)
	st.At(1, raddr[1], logic.Lo)
	// waddr stays X; wen on.
	st.At(1, wen, logic.Hi)
	for i := range wdata {
		st.At(1, wdata[i], logic.Hi)
	}
	st.Finalize()
	s.BindStimulus(st)
	stepCycles(t, s, 2)
	if v, ok := s.VecValue(rdata).Uint64(); !ok || v != 0 {
		t.Fatalf("Verilog X-addr write corrupted word 0: %s", s.VecValue(rdata))
	}
}

func TestRAMXAddrWriteSoundMerges(t *testing.T) {
	d, raddr, _, wdata, wen, rdata := ramDesign(t)
	s := New(d, Options{MemX: MemXSound})
	st := NewStimulus(d.Inputs[0], hp)
	st.At(1, d.Inputs[1], logic.Hi)
	st.At(1, raddr[0], logic.Lo)
	st.At(1, raddr[1], logic.Lo)
	st.At(1, wen, logic.Hi)
	for i := range wdata {
		st.At(1, wdata[i], logic.Hi)
	}
	st.Finalize()
	s.BindStimulus(st)
	stepCycles(t, s, 2)
	// Word 0 was 0; write data is 0xF with unknown address: sound mode
	// merges, so every bit that differs becomes X.
	if got := s.VecValue(rdata); got.CountX() != 4 {
		t.Fatalf("sound X-addr write: word0 = %s, want xxxx", got)
	}
}

func TestForceAndRelease(t *testing.T) {
	m := rtl.NewModule("force")
	a := m.Input("a", 1)
	inv := m.NotBit(a[0])
	m.Output("inv", rtl.Bus{inv})
	if err := m.N.Freeze(); err != nil {
		t.Fatal(err)
	}
	s := New(m.N, Options{})
	st := NewStimulus(m.N.Inputs[0], hp)
	st.At(1, m.N.Inputs[1], logic.Hi)
	st.At(1, a[0], logic.Lo)
	st.Finalize()
	s.BindStimulus(st)
	stepCycles(t, s, 1)
	if s.Value(inv) != logic.Hi {
		t.Fatal("precondition failed")
	}
	s.Force(inv, logic.Lo, s.Now()+3*hp)
	if s.Value(inv) != logic.Lo || !s.Forced(inv) {
		t.Fatal("force did not take")
	}
	stepCycles(t, s, 1) // within force window
	if s.Value(inv) != logic.Lo {
		t.Fatal("force did not hold across steps")
	}
	stepCycles(t, s, 2) // past release
	if s.Value(inv) != logic.Hi {
		t.Fatalf("release did not reassert driver: %v", s.Value(inv))
	}
	if s.Forced(inv) {
		t.Fatal("force still registered after release")
	}
}

func TestToggleRecording(t *testing.T) {
	d, q := counterDesign(t)
	s := startSim(t, d, Options{CountActivity: true})
	stepCycles(t, s, 1) // through reset
	s.StartRecording()
	stepCycles(t, s, 1)
	tog := s.Toggled()
	if !tog[q[0]] {
		t.Error("q[0] toggled but not recorded")
	}
	if tog[q[3]] {
		t.Error("q[3] cannot toggle after one increment")
	}
	// A profile starts empty, the counters with it and in the same storage.
	counts := s.ActivityCounts()
	s.StartRecording()
	if slices.Contains(s.Toggled(), true) || slices.ContainsFunc(s.ActivityCounts(), func(c uint64) bool { return c != 0 }) {
		t.Error("StartRecording left marks or counts of the profile before")
	}
	if &counts[0] != &s.ActivityCounts()[0] {
		t.Error("StartRecording re-allocated the activity counters")
	}
}
