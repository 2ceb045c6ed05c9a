// Compiled-simulation support: Freeze-time flattening of a netlist into a
// structure-of-arrays Program that the vvp kernel engine evaluates without
// per-gate pointer chasing, plus the precomputed four-valued lookup table
// that replaces EvalGate's switch on the hot path.
//
// The compiled form changes nothing semantically — every table is derived
// from the same Gates/Mems/fanout data the interpreter walks, and the
// evaluation LUT is generated from EvalGate itself, so the two engines
// cannot disagree by construction of the encoding (they can only disagree
// through scheduling bugs, which the differential suite in internal/vvp
// exists to catch).
package netlist

import (
	"fmt"
	"slices"

	"symsim/internal/logic"
)

// GateDesc is the packed per-gate descriptor of a compiled Program: the
// input nets inlined into a fixed-size array (no per-gate slice header to
// chase), the output net, the kind, and the DFF reset value. Pins beyond
// Kind.NumInputs() are padded with net 0; the evaluation LUT ignores the
// operands a kind does not use, so the padding value never matters.
type GateDesc struct {
	In   [4]NetID
	Out  NetID
	Kind GateKind
	// Init is the asynchronous reset value of a DFF; ignored otherwise.
	Init logic.Value
}

// Program is the flattened, cache-friendly form of a frozen netlist that
// the compiled simulation kernel executes:
//
//   - Gates are renumbered level-major: descriptors are stored sorted by
//     (topological level, netlist GateID), so each level occupies one
//     contiguous index range — LvlStart[l] to LvlStart[l+1] — and the
//     kernel's dirty set over a level is a run of bits in a flat bitmap.
//     Because the renumbering is stable, ascending kernel ID within a
//     level is ascending netlist ID, and a level drain visits gates in
//     exactly the order the interpreter's sorted rounds do. Orig and
//     Renum translate between the two numberings; nets and memories keep
//     their netlist IDs.
//   - Gates holds one packed descriptor per gate (structure-of-arrays
//     relative to the interpreter's Gate, which carries a heap-allocated
//     input slice and a name string per instance).
//   - Fan/FanIdx and MemFan/MemFanIdx store the per-net fanout in CSR form:
//     one backing array plus offsets, so walking a net's consumers is a
//     single contiguous slice scan instead of a [][]GateID double
//     indirection.
//   - LvlMems/LvlMemIdx group memories by topological level, ascending ID.
//
// A Program is immutable and shared by every simulator of its netlist.
type Program struct {
	// Gates holds the packed descriptors in level-major kernel order.
	Gates []GateDesc
	// Orig maps a kernel gate ID to its netlist GateID; Renum is the
	// inverse. Simulator state shared with callers that speak netlist IDs
	// (flip-flop clock samples during state restore, force release) goes
	// through these.
	Orig  []GateID
	Renum []GateID

	// GateLevel is the topological level per kernel gate ID (a
	// non-decreasing sequence, by construction of the numbering); MemLevel
	// is per netlist MemID, identical to Netlist.MemLevel.
	GateLevel []int32
	MemLevel  []int32

	// FanIdx has len(Nets)+1 entries; gates reading net n are
	// Fan[FanIdx[n]:FanIdx[n+1]], ascending kernel ID.
	FanIdx []uint32
	Fan    []GateID
	// MemFanIdx/MemFan are the memory analogue (address, data, clock and
	// enable pins), ascending MemID.
	MemFanIdx []uint32
	MemFan    []MemID

	// LvlStart has MaxLevel+2 entries; the gates of level l are the kernel
	// IDs LvlStart[l] to LvlStart[l+1] exclusive.
	LvlStart  []uint32
	LvlMemIdx []uint32
	LvlMems   []MemID

	MaxLevel int32

	// Clock is the design's clock-domain table, nil when the design does
	// not qualify for the kernel's clock-edge fast path (see ClockDomain).
	Clock *ClockDomain

	// memFanBits has one bit per net, set when the net feeds a memory pin.
	// Almost no net does, so the commit path tests the bit before paying
	// for the MemFanIdx lookup.
	memFanBits []uint64
}

// DomainDFF is one flip-flop of a ClockDomain: the three nets a capturing
// edge reads or writes.
type DomainDFF struct {
	D, En, Out NetID
}

// ClockDomain describes a design whose every flip-flop hangs off one
// primary-input clock, the shape that lets the kernel handle a clock edge
// as one dense pass over Members instead of one dirty-bitmap event per
// flip-flop. compile builds it only when all of the following hold, and
// leaves Program.Clock nil otherwise:
//
//   - the design has flip-flops, and the CLK pin of every one is the same
//     primary-input net;
//   - every RSTN pin is on a primary-input net;
//   - the clock net is on no D, EN or RSTN pin, so it reaches a flip-flop
//     only through CLK;
//   - the write clock of every writable memory is a primary input, so no
//     memory write can fire in the middle of an Active-region drain.
//
// The per-edge conditions are the simulator's (vvp, Simulator.cleanEdge).
type ClockDomain struct {
	// Net is the clock.
	Net NetID
	// DFFs lists every flip-flop in ascending kernel ID — the order a
	// level-major drain evaluates them in, and therefore the order their
	// captures enter the NBA queue. Members[i] holds the pins of DFFs[i];
	// the two are separate so that each pass over the domain reads only
	// what it uses.
	DFFs    []GateID
	Members []DomainDFF
	// Resets lists the distinct RSTN nets, ascending.
	Resets []NetID
	// Fan lists the combinational gates reading Net, ascending kernel ID:
	// GateFan(Net) without the members.
	Fan []GateID
}

// LevelRange returns the kernel gate ID range [lo, hi) of topological
// level l.
//
//symsim:hotpath
func (p *Program) LevelRange(l int32) (lo, hi uint32) {
	return p.LvlStart[l], p.LvlStart[l+1]
}

// LevelMems returns the memories of topological level l, ascending ID.
func (p *Program) LevelMems(l int32) []MemID {
	return p.LvlMems[p.LvlMemIdx[l]:p.LvlMemIdx[l+1]]
}

// GateFan returns the kernel IDs of the gates reading net id, ascending.
//
//symsim:hotpath
func (p *Program) GateFan(id NetID) []GateID {
	return p.Fan[p.FanIdx[id]:p.FanIdx[id+1]]
}

// MemFanOf returns the memories reading net id, ascending MemID.
//
//symsim:hotpath
func (p *Program) MemFanOf(id NetID) []MemID {
	return p.MemFan[p.MemFanIdx[id]:p.MemFanIdx[id+1]]
}

// HasMemFan reports whether MemFanOf(id) is non-empty, from a bitmap small
// enough to stay cached where the MemFanIdx offsets are not.
//
//symsim:hotpath
func (p *Program) HasMemFan(id NetID) bool {
	return p.memFanBits[uint32(id)>>6]>>(uint32(id)&63)&1 != 0
}

// Program returns the compiled form of the netlist, building it on first
// use (the build is linear in design size and cached: every simulator of
// this netlist and of its views shares one Program). It panics when the netlist is not
// frozen — compilation bakes in the fanout and level tables Freeze builds.
func (n *Netlist) Program() *Program {
	if n.tables == nil {
		panic(fmt.Sprintf("netlist %s: Program before Freeze", n.Name))
	}
	n.progOnce.Do(func() { n.prog = compile(n) })
	return n.prog
}

// compile flattens a frozen netlist into its Program.
func compile(n *Netlist) *Program {
	p := &Program{
		MemLevel: n.memLevel,
		MaxLevel: n.maxLevel,
	}

	// Level-major renumbering: counting sort of the gates by level.
	// Iterating netlist IDs in ascending order keeps the sort stable, so
	// kernel IDs within a level ascend with netlist IDs.
	levels := int(n.maxLevel) + 1
	p.LvlStart = make([]uint32, levels+1)
	for _, l := range n.gateLevel {
		p.LvlStart[l+1]++
	}
	for l := 0; l < levels; l++ {
		p.LvlStart[l+1] += p.LvlStart[l]
	}
	p.Orig = make([]GateID, len(n.Gates))
	p.Renum = make([]GateID, len(n.Gates))
	cursor := append([]uint32(nil), p.LvlStart...)
	for gi, l := range n.gateLevel {
		k := GateID(cursor[l])
		p.Orig[k] = GateID(gi)
		p.Renum[gi] = k
		cursor[l]++
	}

	p.Gates = make([]GateDesc, len(n.Gates))
	p.GateLevel = make([]int32, len(n.Gates))
	for k, gi := range p.Orig {
		g := &n.Gates[gi]
		d := GateDesc{Out: g.Out, Kind: g.Kind, Init: g.Init}
		copy(d.In[:], g.In)
		p.Gates[k] = d
		p.GateLevel[k] = n.gateLevel[gi]
	}

	// Fanout CSR in kernel numbering. Freeze appends consumers in
	// ascending netlist order; mapping through Renum breaks that, so each
	// run is re-sorted (once, at compile time).
	p.FanIdx = make([]uint32, len(n.Nets)+1)
	total := 0
	for _, f := range n.fanout {
		total += len(f)
	}
	p.Fan = make([]GateID, 0, total)
	for id, f := range n.fanout {
		p.FanIdx[id] = uint32(len(p.Fan))
		for _, g := range f {
			p.Fan = append(p.Fan, p.Renum[g])
		}
		slices.Sort(p.Fan[p.FanIdx[id]:])
	}
	p.FanIdx[len(n.Nets)] = uint32(len(p.Fan))

	p.MemFanIdx = make([]uint32, len(n.Nets)+1)
	total = 0
	for _, f := range n.memFanout {
		total += len(f)
	}
	p.MemFan = make([]MemID, 0, total)
	p.memFanBits = make([]uint64, (len(n.Nets)+63)/64)
	for id, f := range n.memFanout {
		p.MemFanIdx[id] = uint32(len(p.MemFan))
		p.MemFan = append(p.MemFan, f...)
		if len(f) > 0 {
			p.memFanBits[id>>6] |= 1 << (id & 63)
		}
	}
	p.MemFanIdx[len(n.Nets)] = uint32(len(p.MemFan))

	// Memory level grouping CSR: counting sort by level, ascending ID
	// within a level (memory IDs are appended in increasing order).
	p.LvlMemIdx = make([]uint32, levels+1)
	for _, l := range n.memLevel {
		p.LvlMemIdx[l+1]++
	}
	for l := 0; l < levels; l++ {
		p.LvlMemIdx[l+1] += p.LvlMemIdx[l]
	}
	p.LvlMems = make([]MemID, len(n.Mems))
	cursor = append(cursor[:0], p.LvlMemIdx...)
	for mi, l := range n.memLevel {
		p.LvlMems[cursor[l]] = MemID(mi)
		cursor[l]++
	}
	p.Clock = clockDomain(n, p)
	return p
}

// clockDomain builds the clock-domain table of a compiled design, or
// returns nil when the design fails one of the conditions documented on
// ClockDomain.
func clockDomain(n *Netlist, p *Program) *ClockDomain {
	cd := &ClockDomain{Net: NoNet}
	for k := range p.Gates {
		d := &p.Gates[k]
		if d.Kind != KindDFF {
			continue
		}
		m := DomainDFF{D: d.In[DFFPinD], En: d.In[DFFPinEn], Out: d.Out}
		clk, rstn := d.In[DFFPinClk], d.In[DFFPinRstn]
		if cd.Net == NoNet {
			cd.Net = clk
		}
		if clk != cd.Net || !n.Nets[rstn].IsInput || m.D == clk || m.En == clk || rstn == clk {
			return nil
		}
		cd.DFFs = append(cd.DFFs, GateID(k))
		cd.Members = append(cd.Members, m)
		cd.Resets = append(cd.Resets, rstn)
	}
	if cd.Net == NoNet || !n.Nets[cd.Net].IsInput {
		return nil
	}
	slices.Sort(cd.Resets)
	cd.Resets = slices.Compact(cd.Resets)
	for _, m := range n.Mems {
		if !m.IsROM() && !n.Nets[m.Clk].IsInput {
			return nil
		}
	}
	for _, g := range p.GateFan(cd.Net) {
		if p.Gates[g].Kind != KindDFF {
			cd.Fan = append(cd.Fan, g)
		}
	}
	return cd
}

// The branch-free combinational evaluator: a flat lookup table indexed by
// kind and up to three packed two-bit operands. EvalLUT[EvalIdx(k,a,b,c)]
// equals EvalGate(k, ins) for every combinational kind and operand
// combination, including Z inputs; operands beyond the kind's pin count are
// ignored (the table repeats the result over their positions), so padded
// descriptor pins never influence the output.
var EvalLUT [int(KindDFF) << 6]logic.Value

// EvalIdx packs a combinational evaluation into its EvalLUT index.
func EvalIdx(k GateKind, a, b, c logic.Value) uint32 {
	return uint32(k)<<6 | uint32(a)<<4 | uint32(b)<<2 | uint32(c)
}

func init() {
	vals := [4]logic.Value{logic.Lo, logic.Hi, logic.X, logic.Z}
	var in [3]logic.Value
	for k := KindConst0; k < KindDFF; k++ {
		for _, a := range vals {
			for _, b := range vals {
				for _, c := range vals {
					in[0], in[1], in[2] = a, b, c
					EvalLUT[EvalIdx(k, a, b, c)] = EvalGate(k, in[:k.NumInputs()])
				}
			}
		}
	}
	// Guard against GateKind growth: a new combinational kind must extend
	// the LUT sizing above, and the descriptor pin array bounds all kinds.
	for k := KindConst0; k <= KindDFF; k++ {
		if k.NumInputs() > 4 {
			panic("netlist: GateDesc pin array too small for " + k.String())
		}
	}
}
