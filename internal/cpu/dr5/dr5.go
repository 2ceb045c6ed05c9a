// Package dr5 builds the gate-level RV32E processor of the paper's
// evaluation (darkRiscV: 16 integer registers, 3-stage pipeline in the
// original; implemented here as a two-state multicycle core, which leaves
// the symbolic-analysis-relevant properties intact — see DESIGN.md).
// dr5 has no hardware multiplier, so multiplication is software — the
// property behind the mult benchmark's multiple simulation paths in paper
// §5.0.3. Conditional branches resolve from the subtraction of the operand
// registers; the low 16 bits of that difference are the monitored
// control-flow signals ("a 16-bit register is used to indicate branch
// conditions", paper Figure 6).
package dr5

import (
	"fmt"
	"sync"
	"sync/atomic"

	"symsim/internal/core"
	"symsim/internal/isa"
	"symsim/internal/logic"
	"symsim/internal/netlist"
	"symsim/internal/rtl"
	"symsim/internal/vvp"
)

// Geometry of the core.
const (
	// ROMWords is the program memory capacity (32-bit words).
	ROMWords = 1024
	// RAMWords is the data memory capacity (32-bit words).
	RAMWords = 256
	// PCBits is the program-counter width (byte addresses).
	PCBits = 16
	// WatchBits is the width of the monitored compare-result bus.
	WatchBits = 16
)

// bare is the dr5 platform without a program: the core elaborated,
// frozen and compiled, its state specification and its monitor, built on
// first use and then shared by every Build of the process. Nothing writes
// to a frozen design, and Build hands out views of this one.
var bare = sync.OnceValues(func() (*core.Platform, error) {
	elaborations.Add(1)
	m := rtl.NewModule("dr5")
	b := &builder{Module: m}
	b.elaborate()
	if err := m.N.Freeze(); err != nil {
		return nil, err
	}
	spec, err := vvp.SpecFor(m.N, "pc")
	if err != nil {
		return nil, err
	}
	mon, err := monitorSpec(m.N)
	if err != nil {
		return nil, err
	}
	return &core.Platform{
		Name:        "dr5",
		Design:      m.N,
		Spec:        spec,
		Monitor:     mon,
		HalfPeriod:  5,
		ResetCycles: 2,
	}, nil
})

// elaborations counts runs of bare's body; the tests read it.
var elaborations atomic.Int32

// Build returns the dr5 platform with the given program loaded: the
// shared design bound to the image's program and data memory contents.
func Build(img *isa.Image) (*core.Platform, error) {
	if len(img.ROM) > ROMWords {
		return nil, fmt.Errorf("dr5: program of %d words exceeds ROM (%d)", len(img.ROM), ROMWords)
	}
	base, err := bare()
	if err != nil {
		return nil, err
	}
	p := *base
	p.Design, err = base.Design.Bind(map[string][]logic.Vec{
		"prom": img.ROM,
		"dmem": img.DataVec(RAMWords, 32),
	})
	if err != nil {
		return nil, err
	}
	return &p, nil
}

func monitorSpec(n *netlist.Netlist) (vvp.MonitorXSpec, error) {
	var mon vvp.MonitorXSpec
	var ok bool
	if mon.BranchActive, ok = n.NetByName("branch_active"); !ok {
		return mon, fmt.Errorf("dr5: branch_active net missing")
	}
	if mon.Cond, ok = n.NetByName("branch_cond"); !ok {
		return mon, fmt.Errorf("dr5: branch_cond net missing")
	}
	if mon.Finish, ok = n.NetByName("halted"); !ok {
		return mon, fmt.Errorf("dr5: halted net missing")
	}
	for i := 0; i < WatchBits; i++ {
		id, ok := n.NetByName(fmt.Sprintf("cmp_res[%d]", i))
		if !ok {
			return mon, fmt.Errorf("dr5: cmp_res[%d] net missing", i)
		}
		mon.Watch = append(mon.Watch, id)
	}
	return mon, nil
}

type builder struct {
	*rtl.Module
}

// wire declares a named bus to be driven later with drive().
func (b *builder) wire(name string, width int) rtl.Bus {
	out := make(rtl.Bus, width)
	for i := range out {
		out[i] = b.N.AddNet(wname(name, width, i))
	}
	return out
}

func wname(name string, width, i int) string {
	if width == 1 {
		return name
	}
	return fmt.Sprintf("%s[%d]", name, i)
}

// drive connects src to the declared wire dst through buffers.
func (b *builder) drive(dst, src rtl.Bus) {
	if len(dst) != len(src) {
		panic("dr5: drive width mismatch")
	}
	for i := range dst {
		b.N.AddGate(netlist.KindBuf, dst[i], src[i])
	}
}

func (b *builder) elaborate() {
	m := b.Module

	// --- Architectural state ---
	pcD := b.wire("pc_d", PCBits)
	pcEn := b.wire("pc_en", 1)
	pc := m.Reg("pc", pcD, pcEn[0], 0)

	irD := b.wire("ir_d", 32)
	irEn := b.wire("ir_en", 1)
	ir := m.Reg("ir", irD, irEn[0], 0)

	// ph: 0 = FETCH, 1 = EXEC. Toggles every cycle.
	phD := b.wire("ph_d", 1)
	ph := m.Reg("ph", phD, m.Hi(), 0)
	exec := ph[0]
	fetch := m.NotBit(exec)
	b.drive(phD, rtl.Bus{m.NotBit(ph[0])})

	haltD := b.wire("halt_d", 1)
	haltEn := b.wire("halt_en", 1)
	halted := m.Reg("halted_q", haltD, haltEn[0], 0)
	m.Output("halted", m.Named("halted", halted))

	// --- Program memory ---
	romAddr := pc[2 : 2+10] // word index of the 16-bit byte PC
	insn := m.ROM("prom", romAddr, 32, ROMWords, nil)
	b.drive(irD, insn)
	b.drive(irEn, rtl.Bus{fetch})

	// --- Decode ---
	opcode := ir[0:7]
	rd := ir[7:11] // RV32E: 4-bit register numbers
	funct3 := ir[12:15]
	rs1 := ir[15:19]
	rs2 := ir[20:24]
	f7b5 := ir[30]

	isLUI := m.EqConst(opcode, 0b0110111)
	isALUImm := m.EqConst(opcode, 0b0010011)
	isALU := m.EqConst(opcode, 0b0110011)
	isLoad := m.EqConst(opcode, 0b0000011)
	isStore := m.EqConst(opcode, 0b0100011)
	isBranch := m.EqConst(opcode, 0b1100011)
	isJAL := m.EqConst(opcode, 0b1101111)
	isJALR := m.EqConst(opcode, 0b1100111)

	// Immediates (sign-extended to 32 where used as data, 16 for PC math).
	immI := m.SignExtend(ir[20:32], 32)
	immS := m.SignExtend(rtl.Cat(ir[7:12], ir[25:32]), 32)
	immB := m.SignExtend(rtl.Cat(rtl.Bus{m.Lo()}, ir[8:12], ir[25:31], rtl.Bus{ir[7]}, rtl.Bus{ir[31]}), PCBits)
	immU := rtl.Cat(m.Const(12, 0), ir[12:32])
	immJ := m.SignExtend(rtl.Cat(rtl.Bus{m.Lo()}, ir[21:31], rtl.Bus{ir[20]}, ir[12:20], rtl.Bus{ir[31]}), PCBits)

	// --- Register file (16 x 32, x0 hardwired to zero by write masking) ---
	wbData := b.wire("wb_data", 32)
	wbEn := b.wire("wb_en", 1)
	ports := m.RegFile("rf", 16, 32, wbEn[0], rd, wbData, []rtl.Bus{rs1, rs2})
	rs1d, rs2d := ports[0], ports[1]

	// --- ALU ---
	useImm := m.OrBit(isALUImm, m.OrBit(isLoad, m.OrBit(isStore, isJALR)))
	imm := m.Mux(isStore, immI, immS)
	bOp := m.Mux(useImm, rs2d, imm)
	subSel := m.AndBit(isALU, f7b5) // SUB only for R-type
	addB := m.Mux(subSel, bOp, m.Not(bOp))
	addRes, _ := m.Add(rs1d, addB, subSel)

	// Shift amount: the rs2 field for immediate shifts, the low bits of
	// rs2's value for R-type shifts.
	shamt := m.Mux(isALU, ir[20:25], rs2d[0:5])

	sll := m.ShiftLeft(rs1d, shamt)
	srl := m.ShiftRight(rs1d, shamt, false)
	sra := m.ShiftRight(rs1d, shamt, true)
	srx := m.Mux(f7b5, srl, sra)

	ltS := m.LtS(rs1d, bOp)
	ltU := m.LtU(rs1d, bOp)
	sltRes := m.ZeroExtend(rtl.Bus{ltS}, 32)
	sltuRes := m.ZeroExtend(rtl.Bus{ltU}, 32)

	aluRes := m.MuxWord(funct3, []rtl.Bus{
		addRes,           // 000 add/sub
		sll,              // 001 sll
		sltRes,           // 010 slt
		sltuRes,          // 011 sltu
		m.Xor(rs1d, bOp), // 100 xor
		srx,              // 101 srl/sra
		m.Or(rs1d, bOp),  // 110 or
		m.And(rs1d, bOp), // 111 and
	})

	// --- Branch comparison: subtraction of the operand registers. The
	// low 16 bits of the difference are the monitored control-flow
	// signals (paper §5.0.3). ---
	diff, noBorrow := m.Sub(rs1d, rs2d)
	m.Named("cmp_res", diff[0:WatchBits])
	eq := m.Eq(rs1d, rs2d)
	bLtS := m.LtS(rs1d, rs2d)
	bLtU := m.NotBit(noBorrow)
	condRaw := m.MuxWord(funct3, []rtl.Bus{
		{eq},             // 000 beq
		{m.NotBit(eq)},   // 001 bne
		{m.Lo()},         // 010 (unused)
		{m.Lo()},         // 011 (unused)
		{bLtS},           // 100 blt
		{m.NotBit(bLtS)}, // 101 bge
		{bLtU},           // 110 bltu
		{m.NotBit(bLtU)}, // 111 bgeu
	})
	cond := m.Named("branch_cond", condRaw)[0]
	m.Named("branch_active", rtl.Bus{m.AndBit(exec, isBranch)})

	// --- Next PC ---
	pc4, _ := m.Add(pc, m.Const(PCBits, 4), m.Lo())
	brTarget, _ := m.Add(pc, immB, m.Lo())
	jalTarget, _ := m.Add(pc, immJ, m.Lo())
	jalrTarget := addRes[0:PCBits]
	target := m.Mux(isJAL, m.Mux(isJALR, brTarget, jalrTarget), jalTarget)

	jump := m.OrBit(isJAL, isJALR)
	taken := m.OrBit(m.AndBit(isBranch, cond), jump)
	nextPC := m.Mux(taken, pc4, target)
	b.drive(pcD, nextPC)
	b.drive(pcEn, rtl.Bus{exec})

	// Terminating condition: a taken jump to the current instruction
	// ("bkend: jal x0, bkend").
	selfJump := m.AndBit(taken, m.Eq(target, pc))
	hit := m.AndBit(exec, selfJump)
	b.drive(haltD, rtl.Bus{m.Hi()})
	b.drive(haltEn, rtl.Bus{hit})

	// --- Data memory ---
	memIdx := addRes[2 : 2+8] // 256 words
	ramWen := m.AndBit(exec, isStore)
	rdata := m.RAM("dmem", memIdx, 32, RAMWords, nil, ramWen, memIdx, rs2d)

	// --- Write-back ---
	link := m.ZeroExtend(pc4, 32)
	wb := m.Mux(isLoad, aluRes, rdata)
	wb = m.Mux(isLUI, wb, immU)
	wb = m.Mux(jump, wb, link)
	b.drive(wbData, wb)

	writesReg := m.OrBit(isALU, m.OrBit(isALUImm, m.OrBit(isLoad, m.OrBit(isLUI, jump))))
	rdNonZero := m.NonZero(rd)
	b.drive(wbEn, rtl.Bus{m.AndBit(exec, m.AndBit(writesReg, rdNonZero))})

	// Expose observability outputs so the bespoke flow preserves the
	// architecturally visible behaviour.
	m.Output("pc_out", pc)
	m.Output("wb_out", wbData)
}
