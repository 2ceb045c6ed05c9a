package vvp

import (
	"bytes"
	"testing"

	"symsim/internal/logic"
	"symsim/internal/netlist"
	"symsim/internal/rtl"
)

// pcCounterDesign is a counter whose register is named "pc" so SpecFor can
// locate it, with a small RAM to exercise memory state.
func pcCounterDesign(t *testing.T) *netlist.Netlist {
	t.Helper()
	m := rtl.NewModule("pccnt")
	d := rtl.Bus{m.N.AddNet("d0"), m.N.AddNet("d1"), m.N.AddNet("d2"), m.N.AddNet("d3")}
	pc := m.Reg("pc", d, m.Hi(), 0)
	next := m.Inc(pc)
	for i := range d {
		m.N.AddGate(netlist.KindBuf, d[i], next[i])
	}
	// RAM written with the counter value at address counter%4.
	init := make([]logic.Vec, 4)
	for i := range init {
		init[i] = logic.NewVecUint64(4, 0)
	}
	rdata := m.RAM("ram", pc[:2], 4, 4, init, m.Hi(), pc[:2], pc)
	m.Output("pc", pc)
	m.Output("rdata", rdata)
	if err := m.N.Freeze(); err != nil {
		t.Fatal(err)
	}
	return m.N
}

func TestSpecFor(t *testing.T) {
	d := pcCounterDesign(t)
	sp, err := SpecFor(d, "pc")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.DFFs) != 4 {
		t.Errorf("DFFs = %d, want 4", len(sp.DFFs))
	}
	if len(sp.Mems) != 1 {
		t.Errorf("Mems = %d, want 1", len(sp.Mems))
	}
	if len(sp.PC) != 4 {
		t.Errorf("PC nets = %d, want 4", len(sp.PC))
	}
	if sp.Bits() != 4+4*4 {
		t.Errorf("Bits = %d, want 20", sp.Bits())
	}
	if _, err := SpecFor(d, "nope"); err == nil {
		t.Error("SpecFor accepted missing PC name")
	}
}

func TestBitLabelRoundTrip(t *testing.T) {
	d := pcCounterDesign(t)
	sp, err := SpecFor(d, "pc")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sp.Bits(); i++ {
		label := sp.BitLabel(i)
		if got := sp.BitByLabel(label); got != i {
			t.Errorf("BitByLabel(%q) = %d, want %d", label, got, i)
		}
	}
	if sp.BitByLabel("dff:doesnotexist") != -1 {
		t.Error("unknown label did not return -1")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	d := pcCounterDesign(t)
	sp, err := SpecFor(d, "pc")
	if err != nil {
		t.Fatal(err)
	}
	run := func(s *Simulator, cycles uint64) {
		t.Helper()
		target := s.Cycles() + cycles
		for s.Cycles() < target {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	mkStim := func() *Stimulus {
		st := NewStimulus(d.Inputs[0], hp)
		st.At(1, d.Inputs[1], logic.Lo)
		st.At(2*hp+1, d.Inputs[1], logic.Hi)
		st.Finalize()
		return st
	}
	a := New(d, Options{})
	a.BindStimulus(mkStim())
	run(a, 6)
	snap := a.Snapshot(sp)
	if !snap.PCKnown {
		t.Fatal("PC unknown at snapshot")
	}
	// Continue the original 3 more cycles.
	run(a, 3)
	ref := a.Snapshot(sp)

	// Restore into a fresh simulator and run the same 3 cycles.
	b := New(d, Options{})
	b.BindStimulus(mkStim())
	if err := b.Restore(sp, snap); err != nil {
		t.Fatal(err)
	}
	if b.Now() != snap.Time {
		t.Fatalf("restored time %d != %d", b.Now(), snap.Time)
	}
	run(b, 3)
	got := b.Snapshot(sp)
	if !got.Bits.Equal(ref.Bits) {
		t.Fatalf("diverged after restore:\n got %s\nwant %s", got.Bits, ref.Bits)
	}
	if got.PC != ref.PC {
		t.Fatalf("PC diverged: %#x vs %#x", got.PC, ref.PC)
	}
	// Every net (not just state bits) must agree.
	for n := range d.Nets {
		if a.Value(netlist.NetID(n)) != b.Value(netlist.NetID(n)) {
			t.Errorf("net %q: %v vs %v", d.NetName(netlist.NetID(n)),
				a.Value(netlist.NetID(n)), b.Value(netlist.NetID(n)))
		}
	}
}

func TestRestoreMergedStateWithXBits(t *testing.T) {
	d := pcCounterDesign(t)
	sp, err := SpecFor(d, "pc")
	if err != nil {
		t.Fatal(err)
	}
	st := NewStimulus(d.Inputs[0], hp)
	st.At(1, d.Inputs[1], logic.Lo)
	st.At(2*hp+1, d.Inputs[1], logic.Hi)
	st.Finalize()
	s := New(d, Options{})
	s.BindStimulus(st)
	for s.Cycles() < 5 {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot(sp)
	// Blur the counter's bit 1 as a CSM merge would.
	snap.Bits.Set(1, logic.X)
	b := New(d, Options{})
	b.BindStimulus(st)
	if err := b.Restore(sp, snap); err != nil {
		t.Fatal(err)
	}
	pcNet, _ := d.NetByName("pc[1]")
	if b.Value(pcNet) != logic.X {
		t.Fatalf("restored X bit reads %v", b.Value(pcNet))
	}
	// The X must flow into the incrementer cone.
	if _, err := b.Step(); err != nil {
		t.Fatal(err)
	}
}

func TestStateMarshalRoundTrip(t *testing.T) {
	st := State{Bits: logic.MustVec("01xx10"), Time: 12345, PC: 0xABCD, PCKnown: true}
	data, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, st.AppendBinary(nil)) {
		t.Fatal("MarshalBinary is not the AppendBinary encoding")
	}
	var got State
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !got.Bits.Equal(st.Bits) || got.Time != st.Time || got.PC != st.PC || got.PCKnown != st.PCKnown {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, st)
	}
}

func TestStateUnmarshalTruncated(t *testing.T) {
	st := State{Bits: logic.MustVec("0101"), Time: 7, PC: 1, PCKnown: true}
	data, _ := st.MarshalBinary()
	for name, bad := range map[string][]byte{
		"truncated body":   data[:len(data)-2],
		"truncated header": data[:10],
		"trailing byte":    append(append([]byte(nil), data...), 0),
		"PCKnown byte 2":   append(append(append([]byte(nil), data[:16]...), 2), data[17:]...),
	} {
		var got State
		if err := got.UnmarshalBinary(bad); err == nil {
			t.Errorf("%s: unmarshal succeeded", name)
		}
	}
}

// TestTraceEquivalence reproduces the paper's §5.0.1 check that the
// symbolic enhancements do not perturb ordinary simulation: the event list
// with the Symbolic region disabled must equal the list with it enabled
// (for a run that triggers no symbolic events).
func TestTraceEquivalence(t *testing.T) {
	d := pcCounterDesign(t)
	runTrace := func(disable bool) *Trace {
		tr := &Trace{}
		s := New(d, Options{Trace: tr, DisableSymbolic: disable})
		st := NewStimulus(d.Inputs[0], hp)
		st.At(1, d.Inputs[1], logic.Lo)
		st.At(2*hp+1, d.Inputs[1], logic.Hi)
		st.Finalize()
		s.BindStimulus(st)
		for s.Cycles() < 8 {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	base := runTrace(true)
	enhanced := runTrace(false)
	if !base.Equal(enhanced) {
		t.Fatalf("event lists diverge:\nbase:\n%s\nenhanced:\n%s",
			base.Dump(d), enhanced.Dump(d))
	}
	if len(base.Events) == 0 {
		t.Fatal("trace recorded nothing")
	}
}

func TestTraceDumpAndLimit(t *testing.T) {
	tr := &Trace{Limit: 1}
	tr.record(1, RegionActive, 0, logic.Lo, logic.Hi)
	tr.record(2, RegionNBA, 0, logic.Hi, logic.Lo)
	if len(tr.Events) != 1 {
		t.Fatalf("limit not enforced: %d events", len(tr.Events))
	}
}
