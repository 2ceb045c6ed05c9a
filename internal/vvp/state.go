package vvp

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

// StateSpec defines which design elements constitute the machine state for
// save/restore and conservative-state management: an ordered list of DFFs,
// the writable memories, and the nets holding the program counter (used to
// index the CSM's state table). Build one with SpecFor.
type StateSpec struct {
	design *netlist.Netlist
	// DFFs lists every D flip-flop in the design, in gate order.
	DFFs []netlist.GateID
	// Mems lists the memories whose contents are part of the machine
	// state (ROMs are immutable and excluded).
	Mems []netlist.MemID
	// PC lists the nets carrying the program counter, bit 0 first.
	PC []netlist.NetID

	bits     int
	memBase  []int // bit offset of each entry in Mems
	dffIndex map[netlist.GateID]int
	// outs and clks are the output and clock net of each entry in DFFs: what
	// Snapshot and Restore touch per flip-flop, gathered once so that neither
	// walks Gate records.
	outs, clks []netlist.NetID
}

// SpecFor builds the state specification for a design: all DFFs, all
// writable memories, and the PC located by net-name prefix pcName
// ("pc[0]", "pc[1]", ... or a single net "pc").
func SpecFor(d *netlist.Netlist, pcName string) (*StateSpec, error) {
	sp := &StateSpec{design: d, dffIndex: make(map[netlist.GateID]int)}
	for gi := range d.Gates {
		if d.Gates[gi].Kind == netlist.KindDFF {
			sp.dffIndex[netlist.GateID(gi)] = len(sp.DFFs)
			sp.DFFs = append(sp.DFFs, netlist.GateID(gi))
			sp.outs = append(sp.outs, d.Gates[gi].Out)
			sp.clks = append(sp.clks, d.Gates[gi].In[netlist.DFFPinClk])
		}
	}
	sp.bits = len(sp.DFFs)
	for mi, m := range d.Mems {
		if m.IsROM() {
			continue
		}
		sp.Mems = append(sp.Mems, netlist.MemID(mi))
		sp.memBase = append(sp.memBase, sp.bits)
		sp.bits += m.Words * m.DataBits
	}
	if pcName != "" {
		if id, ok := d.NetByName(pcName); ok {
			sp.PC = []netlist.NetID{id}
		} else {
			for i := 0; ; i++ {
				id, ok := d.NetByName(fmt.Sprintf("%s[%d]", pcName, i))
				if !ok {
					break
				}
				sp.PC = append(sp.PC, id)
			}
		}
		if len(sp.PC) == 0 {
			return nil, fmt.Errorf("vvp: PC net %q not found in %s", pcName, d.Name)
		}
	}
	return sp, nil
}

// Bits returns the total number of state bits covered by the spec.
func (sp *StateSpec) Bits() int { return sp.bits }

// BitLabel names state bit i for constraint files and debugging:
// "dff:<netname>" for flip-flops, "mem:<name>[word].bit" for memory bits.
func (sp *StateSpec) BitLabel(i int) string {
	if i < len(sp.DFFs) {
		g := sp.design.Gates[sp.DFFs[i]]
		return "dff:" + sp.design.NetName(g.Out)
	}
	rem := i - len(sp.DFFs)
	for _, mid := range sp.Mems {
		m := sp.design.Mems[mid]
		n := m.Words * m.DataBits
		if rem < n {
			return fmt.Sprintf("mem:%s[%d].%d", m.Name, rem/m.DataBits, rem%m.DataBits)
		}
		rem -= n
	}
	return fmt.Sprintf("bit:%d", i)
}

// BitByLabel is the inverse of BitLabel; it returns -1 when no state bit
// carries the label.
func (sp *StateSpec) BitByLabel(label string) int {
	for i := 0; i < sp.bits; i++ {
		if sp.BitLabel(i) == label {
			return i
		}
	}
	return -1
}

// BitOfNet returns the state-bit index of the flip-flop driving the named
// net, or -1 when the net is not a flip-flop output. Platforms use this to
// locate architectural state (flags, instruction register) inside saved
// states when specializing forked children.
func (sp *StateSpec) BitOfNet(name string) int {
	id, ok := sp.design.NetByName(name)
	if !ok {
		return -1
	}
	d := sp.design.Nets[id].Driver
	if d == netlist.NoGate {
		return -1
	}
	idx, ok := sp.dffIndex[d]
	if !ok {
		return -1
	}
	return idx
}

// State is one saved simulation state: the ternary valuation of the
// machine state plus the simulation time and the PC it was captured at.
// This is what the paper's enhanced iverilog serializes when it halts and
// what $initialize_state loads to continue a halted simulation.
type State struct {
	Bits logic.Vec
	Time uint64
	PC   uint64
	// PCKnown is false when the program counter contained X bits at the
	// snapshot — a fatal condition for the co-analysis (the state table
	// is indexed by PC).
	PCKnown bool
}

// Clone returns a deep copy of st.
func (st State) Clone() State {
	c := st
	c.Bits = st.Bits.Clone()
	return c
}

// Snapshot captures the machine state per spec (paper §3 modification 2:
// "save the simulation state") in a state of its own.
func (s *Simulator) Snapshot(sp *StateSpec) State { return s.SnapshotInto(sp, State{}) }

// SnapshotInto is Snapshot into dst's storage: every bit of dst.Bits is
// overwritten when it has the spec's width, and a fresh vector is allocated
// when it has not. A caller that consumes each halt state before it takes
// the next one — the explorer — saves the allocation.
func (s *Simulator) SnapshotInto(sp *StateSpec, dst State) State {
	v := sp.bitsFor(dst)
	for i := 0; i < len(sp.outs); i += 64 {
		c := min(64, len(sp.outs)-i)
		a, x := s.busBits(sp.outs[i : i+c])
		v.SetWord(i, c, ^x, a)
	}
	for k, mid := range sp.Mems {
		img := s.mem[mid].image
		v.CopyBitsFrom(sp.memBase[k], img, 0, img.Width())
	}
	st := State{Bits: v, Time: s.now}
	if len(sp.PC) <= 64 {
		if pc, x := s.busBits(sp.PC); x == 0 {
			st.PC, st.PCKnown = pc, true
		}
	}
	return st
}

// busBits packs the current values of up to 64 nets into one word per
// plane, nets[0] being bit 0: x marks the bits that are X or Z, a holds the
// level of the others (zero where x is set).
//
//symsim:hotpath
func (s *Simulator) busBits(nets []netlist.NetID) (a, x uint64) {
	val := s.val
	for j, n := range nets {
		k, v := val[n].Planes()
		a |= v << uint(j)
		x |= (k ^ 1) << uint(j)
	}
	return a, x
}

// bitsFor returns the vector a snapshot per sp is written into: dst's when
// it already has the spec's width, a new one otherwise.
func (sp *StateSpec) bitsFor(dst State) logic.Vec {
	if sp.bits > 0 && dst.Bits.Width() == sp.bits {
		return dst.Bits
	}
	return logic.NewVec(sp.bits)
}

// Restore implements the $initialize_state system task (paper §3
// modification 3): it loads a previously saved (possibly merged) machine
// state into the simulator and re-derives all combinational values from
// it. The stimulus must already be bound; primary inputs are re-driven
// with their scheduled values at the state's time. Restore overrides the
// entire processor and simulator state, which — as the paper notes —
// nullifies any events executed before initialization.
func (s *Simulator) Restore(sp *StateSpec, st State) error {
	if s.stim == nil {
		return fmt.Errorf("vvp: Restore without stimulus")
	}
	s.now = st.Time
	s.forces = s.forces[:0]
	s.nba = s.nba[:0]
	s.inactiveQ = s.inactiveQ[:0]
	s.edgePending = false

	// Primary inputs: clock level derived from the phase at st.Time, all
	// other inputs take their latest scheduled value (X when none).
	for _, in := range s.d.Inputs {
		if in == s.stim.Clock {
			s.commit(in, s.stim.clockValueAt(s.now), RegionActive)
			continue
		}
		v, _ := s.stim.inputValueAt(in, s.now)
		s.commit(in, v, RegionActive)
	}
	s.stimCursor = 0
	for s.stimCursor < len(s.stim.Events) && s.stim.Events[s.stimCursor].Time <= s.now {
		s.stimCursor++
	}

	// Memories.
	for k, mid := range sp.Mems {
		ms := &s.mem[mid]
		ms.image.CopyBitsFrom(0, st.Bits, sp.memBase[k], ms.image.Width())
		ms.lastClk = s.val[s.d.Mems[mid].Clk]
	}
	// Every read port re-evaluates: RAM contents and inputs both moved.
	for mi := range s.d.Mems {
		s.markMem(netlist.MemID(mi))
	}

	s.assertState(sp, st)
	if err := s.settle(); err != nil {
		return err
	}
	if s.follow && s.quiet {
		// Every sample is the clock's level and every reset is at 1, so the
		// settle moved no Q and a second pass would commit nothing
		// (DESIGN.md §8 "Restore under follow").
		return nil
	}
	// Re-assert flip-flop outputs: combinational settling may have rippled
	// through DFF evaluation paths, but Q values are state and must equal
	// the snapshot exactly.
	s.assertState(sp, st)
	return s.settle()
}

// assertState commits the saved flip-flop outputs and makes each flip-flop's
// clock sample its clock's level so no spurious edge fires on the next
// settle: by setting follow when the clock-domain table holds every
// flip-flop, by storing every sample otherwise. It compares 64 outputs at a
// time — one busBits read against one read of the saved planes — and
// commits only the outputs that differ. busBits reads Z as X, so once a Z
// has been committed the outputs the state holds at X are looked at one by
// one. Restore has dropped every force, so an output already at its saved
// value needs no commit: the cost is proportional to what differs.
//
//symsim:hotpath
func (s *Simulator) assertState(sp *StateSpec, st State) {
	val, lastClk := s.val, s.lastClk
	follow := s.prog != nil && s.prog.Clock != nil
	s.follow = follow
	for i := 0; i < len(sp.DFFs); i += 64 {
		c := min(64, len(sp.DFFs)-i)
		outs := sp.outs[i : i+c]
		if !follow {
			for j := range outs {
				lastClk[s.gidx(sp.DFFs[i+j])] = val[sp.clks[i+j]]
			}
		}
		known, level := st.Bits.Word(i, c)
		a, x := s.busBits(outs)
		diff := x ^ ^known | (a^level)&known
		if s.zSeen {
			diff |= x &^ known
		}
		if c < 64 {
			diff &= uint64(1)<<uint(c) - 1
		}
		for ; diff != 0; diff &= diff - 1 {
			j := bits.TrailingZeros64(diff)
			if q := logic.PlaneBit(known, level, j); val[outs[j]] != q {
				s.commit(outs[j], q, RegionActive)
			}
		}
	}
}

// gidx maps a netlist gate ID to the index of the per-gate simulator
// state arrays (lastClk), which follow the Program's level-major
// numbering under the kernel engine.
func (s *Simulator) gidx(g netlist.GateID) netlist.GateID {
	if s.prog != nil {
		return s.prog.Renum[g]
	}
	return g
}

// MarshalBinary serializes st (the on-disk "sim_state.log" of the paper's
// flow) in the one State encoding, AppendBinary's.
func (st State) MarshalBinary() ([]byte, error) {
	return st.AppendBinary(nil), nil
}

// UnmarshalBinary deserializes a state written by MarshalBinary: one
// DecodeState with nothing after it.
func (st *State) UnmarshalBinary(data []byte) error {
	got, rest, err := DecodeState(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("vvp: %d trailing bytes after state", len(rest))
	}
	*st = got
	return nil
}

// AppendBinary appends the compact canonical encoding of st to b: the
// fixed header followed by the packed-bitplane Vec encoding. It is the
// form checkpoints, segments and -dump-states files all hold, and
// round-trips byte-identically through DecodeState.
func (st State) AppendBinary(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, st.Time)
	b = binary.LittleEndian.AppendUint64(b, st.PC)
	if st.PCKnown {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return st.Bits.AppendBinary(b)
}

// DecodeState decodes one state encoded by AppendBinary from the front of
// data, returning the state and the unconsumed remainder. It never panics
// on malformed input.
func DecodeState(data []byte) (State, []byte, error) {
	if len(data) < 17 {
		return State{}, nil, fmt.Errorf("vvp: state header truncated: %d bytes", len(data))
	}
	var st State
	st.Time = binary.LittleEndian.Uint64(data)
	st.PC = binary.LittleEndian.Uint64(data[8:])
	switch data[16] {
	case 0:
	case 1:
		st.PCKnown = true
	default:
		return State{}, nil, fmt.Errorf("vvp: state PCKnown byte %d not 0/1", data[16])
	}
	bits, rest, err := logic.DecodeVec(data[17:])
	if err != nil {
		return State{}, nil, err
	}
	st.Bits = bits
	return st, rest, nil
}
