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
	"cmp"
	"fmt"
	"math/bits"
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
//   - Runs/RunIdx store the per-net gate fanout as runs of the kernel's
//     dirty bitmap (see FanRun): the level-major numbering puts the
//     consumers of one net in adjacent bits, so scheduling them is one OR
//     per run — almost always one per net — instead of one event per gate.
//     A flip-flop that reads the net on D or EN alone is not among them:
//     it is in DataRunTab/DataIdx, the same shape, which a commit marks
//     only while some reset net is not at 1 (see DataRuns).
//     MemFan/MemFanIdx store the memory fanout in CSR form.
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

	// RunIdx has len(Nets)+1 entries; the gates a change of net n always
	// schedules — its combinational readers and the flip-flops that read it
	// on CLK or RSTN — are the runs Runs[RunIdx[n]:RunIdx[n+1]], ascending.
	RunIdx []uint32
	Runs   []FanRun
	// DataIdx and DataRunTab are the same table for the flip-flops that
	// read net n on D or EN only (see DataRuns).
	DataIdx    []uint32
	DataRunTab []FanRun
	// GateRun holds, per kernel gate, the whole of FanRuns of its output
	// when that is a single run, the output is on no memory or RSTN pin
	// and the run lies at a level above the gate's own: a commit the level
	// round may make in line, without touching dirtyLo (see vvp's
	// kernelLevel). Every other gate has the zero FanRun and commits
	// through the general path.
	GateRun []FanRun
	// Resets lists the distinct nets on an RSTN pin, ascending. While every
	// one of them is at 1 a simulator leaves DataRuns unmarked.
	Resets []NetID
	// FFMask has one word per word of the dirty bitmap: the bits that are
	// flip-flops.
	FFMask []uint64
	// MemFanIdx has len(Nets)+1 entries; the memories reading net n
	// (address, data, clock and enable pins) are
	// MemFan[MemFanIdx[n]:MemFanIdx[n+1]], ascending MemID.
	MemFanIdx []uint32
	MemFan    []MemID

	// LvlStart has MaxLevel+2 entries; the gates of level l are the kernel
	// IDs LvlStart[l] to LvlStart[l+1] exclusive.
	LvlStart []uint32

	MaxLevel int32

	// Clock is the design's clock-domain table, nil when the design does
	// not qualify for the kernel's clock-edge fast path (see ClockDomain).
	Clock *ClockDomain

	// slowBits has one bit per net, set when a commit of the net has more
	// to do than mark FanRuns: the net feeds a memory pin, it is one of
	// Resets, or it is the clock of Clock. Almost no net is any of these, so
	// the commit path tests the bit before paying for the MemFanIdx lookup.
	slowBits []uint64
}

// FanRun is the part of a net's gate fanout that shares one 64-bit word of
// the kernel's dirty bitmap and one topological level: bit b of Mask is
// kernel gate Word<<6|b. A gate reading the net on several pins is one bit.
type FanRun struct {
	Mask  uint64
	Word  uint32
	Level int32
}

// DomainDFF is one flip-flop of a ClockDomain: the three nets a capturing
// edge reads or writes.
type DomainDFF struct {
	D, En, Out NetID
}

// ClockDomain describes a design whose every flip-flop hangs off one
// primary-input clock, the shape that lets the kernel handle a clock edge
// as one pass over the enabled Members instead of one dirty-bitmap event per
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
	// DFFs lists every flip-flop, ordered by enable net and, among the
	// flip-flops of one enable, by ascending kernel ID. Members[i] holds the
	// pins of DFFs[i]; the two are separate so that each pass over the
	// domain reads only what it uses. A level-major drain evaluates — and
	// queues the captures of — the flip-flops in ascending kernel ID, which
	// is DFFs sorted by value.
	DFFs    []GateID
	Members []DomainDFF
	// Groups has one entry per distinct enable net, plus one: the members
	// Members[Groups[k]:Groups[k+1]] share one EN net, so a capture reads
	// that net once and skips the group when it is 0.
	Groups []uint32
	// Fan is the combinational gates reading Net: FanRuns(Net) without the
	// members.
	Fan []FanRun
	// ClockPinsOnly is true when Net is on no pin but the members' CLK and
	// the write clocks of memories: Fan is empty and no memory reads Net as
	// an address, data or enable bit. An edge of such a clock at which no
	// memory can write moves no net but the members' Q.
	ClockPinsOnly bool
}

// FanRuns returns the gates a change of net id always schedules, as runs of
// the dirty bitmap, ascending: every reader but the flip-flops of DataRuns.
//
//symsim:hotpath
func (p *Program) FanRuns(id NetID) []FanRun {
	return p.Runs[p.RunIdx[id]:p.RunIdx[id+1]]
}

// DataRuns returns the flip-flops that read net id on D or EN and on no
// other pin, as runs of the dirty bitmap, ascending. Such a flip-flop has
// nothing to do when id moves unless its reset is not at 1 — its clock pin
// schedules the capture — so a simulator marks these runs only while some
// net of Resets is not at 1.
//
//symsim:hotpath
func (p *Program) DataRuns(id NetID) []FanRun {
	return p.DataRunTab[p.DataIdx[id]:p.DataIdx[id+1]]
}

// MemFanOf returns the memories reading net id, ascending MemID.
//
//symsim:hotpath
func (p *Program) MemFanOf(id NetID) []MemID {
	return p.MemFan[p.MemFanIdx[id]:p.MemFanIdx[id+1]]
}

// SlowCommit reports whether a commit of net id has more to do than mark
// FanRuns and DataRuns — MemFanOf(id) is non-empty, id is one of Resets, or
// it is Clock.Net — from a bitmap small enough to stay cached where the
// MemFanIdx offsets are not.
//
//symsim:hotpath
func (p *Program) SlowCommit(id NetID) bool {
	return p.slowBits[uint32(id)>>6]>>(uint32(id)&63)&1 != 0
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

	// Fanout runs in kernel numbering. Freeze appends consumers in
	// ascending netlist order; mapping through Renum breaks that, so each
	// net's consumers are re-sorted (once, at compile time) and then cut
	// wherever the bitmap word or the level changes. A flip-flop that reads
	// the net on D or EN but on neither CLK nor RSTN goes to the data table.
	p.RunIdx = make([]uint32, len(n.Nets)+1)
	p.DataIdx = make([]uint32, len(n.Nets)+1)
	var runs, dataRuns []FanRun
	var fan, dataFan []GateID
	cut := func(runs []FanRun, fan []GateID) []FanRun {
		slices.Sort(fan)
		first := len(runs)
		for _, g := range fan {
			w, lvl := uint32(g)>>6, p.GateLevel[g]
			if last := len(runs) - 1; last < first || runs[last].Word != w || runs[last].Level != lvl {
				runs = append(runs, FanRun{Word: w, Level: lvl})
			}
			runs[len(runs)-1].Mask |= 1 << (uint32(g) & 63)
		}
		return runs
	}
	for id, f := range n.fanout {
		p.RunIdx[id], p.DataIdx[id] = uint32(len(runs)), uint32(len(dataRuns))
		fan, dataFan = fan[:0], dataFan[:0]
		for _, g := range f {
			if d := &p.Gates[p.Renum[g]]; d.Kind == KindDFF && d.In[DFFPinClk] != NetID(id) && d.In[DFFPinRstn] != NetID(id) {
				dataFan = append(dataFan, p.Renum[g])
			} else {
				fan = append(fan, p.Renum[g])
			}
		}
		runs, dataRuns = cut(runs, fan), cut(dataRuns, dataFan)
	}
	p.RunIdx[len(n.Nets)], p.DataIdx[len(n.Nets)] = uint32(len(runs)), uint32(len(dataRuns))
	// Exact size: the tables live as long as the design.
	p.Runs = append(make([]FanRun, 0, len(runs)), runs...)
	p.DataRunTab = append(make([]FanRun, 0, len(dataRuns)), dataRuns...)

	p.slowBits = make([]uint64, (len(n.Nets)+63)/64)
	p.FFMask = make([]uint64, (len(p.Gates)+63)/64)
	for k := range p.Gates {
		if d := &p.Gates[k]; d.Kind == KindDFF {
			p.FFMask[k>>6] |= 1 << (k & 63)
			if r := d.In[DFFPinRstn]; p.slowBits[r>>6]>>(r&63)&1 == 0 {
				p.slowBits[r>>6] |= 1 << (r & 63)
				p.Resets = append(p.Resets, r)
			}
		}
	}
	slices.Sort(p.Resets)

	p.MemFanIdx = make([]uint32, len(n.Nets)+1)
	total := 0
	for _, f := range n.memFanout {
		total += len(f)
	}
	p.MemFan = make([]MemID, 0, total)
	for id, f := range n.memFanout {
		p.MemFanIdx[id] = uint32(len(p.MemFan))
		p.MemFan = append(p.MemFan, f...)
		if len(f) > 0 {
			p.slowBits[id>>6] |= 1 << (id & 63)
		}
	}
	p.MemFanIdx[len(n.Nets)] = uint32(len(p.MemFan))

	p.GateRun = make([]FanRun, len(p.Gates))
	for k := range p.Gates {
		out := p.Gates[k].Out
		if r := p.FanRuns(out); len(r) == 1 && !p.SlowCommit(out) && r[0].Level > p.GateLevel[k] {
			p.GateRun[k] = r[0]
		}
	}

	if p.Clock = clockDomain(n, p); p.Clock != nil {
		c := p.Clock.Net
		p.slowBits[c>>6] |= 1 << (c & 63)
	}
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
		clk, rstn := d.In[DFFPinClk], d.In[DFFPinRstn]
		if cd.Net == NoNet {
			cd.Net = clk
		}
		if clk != cd.Net || !n.Nets[rstn].IsInput || d.In[DFFPinD] == clk || d.In[DFFPinEn] == clk || rstn == clk {
			return nil
		}
		cd.DFFs = append(cd.DFFs, GateID(k))
	}
	if cd.Net == NoNet || !n.Nets[cd.Net].IsInput {
		return nil
	}
	for _, m := range n.Mems {
		if !m.IsROM() && !n.Nets[m.Clk].IsInput {
			return nil
		}
	}
	en := func(g GateID) NetID { return p.Gates[g].In[DFFPinEn] }
	slices.SortFunc(cd.DFFs, func(a, b GateID) int { return cmp.Or(cmp.Compare(en(a), en(b)), cmp.Compare(a, b)) })
	cd.Members = make([]DomainDFF, len(cd.DFFs))
	for i, g := range cd.DFFs {
		d := &p.Gates[g]
		cd.Members[i] = DomainDFF{D: d.In[DFFPinD], En: d.In[DFFPinEn], Out: d.Out}
		if i == 0 || en(cd.DFFs[i-1]) != en(g) {
			cd.Groups = append(cd.Groups, uint32(i))
		}
	}
	cd.Groups = append(cd.Groups, uint32(len(cd.DFFs)))
	for _, r := range p.FanRuns(cd.Net) {
		for m := r.Mask; m != 0; m &= m - 1 {
			if b := uint32(bits.TrailingZeros64(m)); p.Gates[r.Word<<6|b].Kind == KindDFF {
				r.Mask &^= 1 << b
			}
		}
		if r.Mask != 0 {
			cd.Fan = append(cd.Fan, r)
		}
	}
	cd.ClockPinsOnly = len(cd.Fan) == 0
	for _, mi := range p.MemFanOf(cd.Net) {
		m := n.Mems[mi]
		if m.IsROM() || m.Clk != cd.Net || m.WEn == cd.Net ||
			slices.Contains(m.RAddr, cd.Net) || slices.Contains(m.WAddr, cd.Net) || slices.Contains(m.WData, cd.Net) {
			cd.ClockPinsOnly = false
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
