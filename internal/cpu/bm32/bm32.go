// Package bm32 builds the gate-level 32-bit MIPS processor of the paper's
// evaluation ("bm32", a custom implementation of the textbook MIPS32 [24]
// with a hardware multiplier). The core is a two-state multicycle machine:
// FETCH latches the instruction, EXEC performs the operation, writes back
// and updates the PC. Conditional branches (BEQ/BNE) resolve from the
// subtraction of the two operand registers; the low 16 bits of that
// difference are the monitored control-flow signals, the architectural
// property behind bm32's large simulation path counts in paper §5.0.3.
package bm32

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
	// PCBits is the program counter width (byte addresses).
	PCBits = 16
	// WatchBits is the width of the monitored compare-result bus.
	WatchBits = 16
	// MulBits is the hardware multiplier operand width: a full 32x32
	// array producing the 64-bit {HI,LO} pair, as in MIPS32. The array
	// dominates bm32's gate count, which is why the paper's mult
	// benchmark exercises more of bm32 than any other benchmark.
	MulBits = 32
)

// bare is the bm32 platform without a program: the core elaborated,
// frozen and compiled, its state specification and its monitor, built on
// first use and then shared by every Build of the process. Nothing writes
// to a frozen design, and Build hands out views of this one.
var bare = sync.OnceValues(func() (*core.Platform, error) {
	elaborations.Add(1)
	m := rtl.NewModule("bm32")
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
		Name:        "bm32",
		Design:      m.N,
		Spec:        spec,
		Monitor:     mon,
		HalfPeriod:  5,
		ResetCycles: 2,
	}, nil
})

// elaborations counts runs of bare's body; the tests read it.
var elaborations atomic.Int32

// Build returns the bm32 platform with the given program loaded: the
// shared design bound to the image's program and data memory contents.
func Build(img *isa.Image) (*core.Platform, error) {
	if len(img.ROM) > ROMWords {
		return nil, fmt.Errorf("bm32: program of %d words exceeds ROM (%d)", len(img.ROM), ROMWords)
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
		return mon, fmt.Errorf("bm32: branch_active net missing")
	}
	if mon.Cond, ok = n.NetByName("branch_cond"); !ok {
		return mon, fmt.Errorf("bm32: branch_cond net missing")
	}
	if mon.Finish, ok = n.NetByName("halted"); !ok {
		return mon, fmt.Errorf("bm32: halted net missing")
	}
	for i := 0; i < WatchBits; i++ {
		id, ok := n.NetByName(fmt.Sprintf("cmp_res[%d]", i))
		if !ok {
			return mon, fmt.Errorf("bm32: cmp_res[%d] net missing", i)
		}
		mon.Watch = append(mon.Watch, id)
	}
	return mon, nil
}

type builder struct {
	*rtl.Module
}

func (b *builder) wire(name string, width int) rtl.Bus {
	out := make(rtl.Bus, width)
	for i := range out {
		if width == 1 {
			out[i] = b.N.AddNet(name)
		} else {
			out[i] = b.N.AddNet(fmt.Sprintf("%s[%d]", name, i))
		}
	}
	return out
}

func (b *builder) drive(dst, src rtl.Bus) {
	if len(dst) != len(src) {
		panic("bm32: drive width mismatch")
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
	insn := m.ROM("prom", pc[2:2+10], 32, ROMWords, nil)
	b.drive(irD, insn)
	b.drive(irEn, rtl.Bus{fetch})

	// --- Decode ---
	op := ir[26:32]
	rs := ir[21:26]
	rt := ir[16:21]
	rdF := ir[11:16]
	shamt := ir[6:11]
	funct := ir[0:6]
	imm16 := ir[0:16]

	isR := m.Zero(op)
	fn := func(code uint64) netlist.NetID { return m.AndBit(isR, m.EqConst(funct, code)) }
	isSLL := fn(0x00)
	isSRL := fn(0x02)
	isSRA := fn(0x03)
	isSLLV := fn(0x04)
	isSRLV := fn(0x06)
	isSRAV := fn(0x07)
	isJR := fn(0x08)
	isMFHI := fn(0x10)
	isMFLO := fn(0x12)
	isMULT := m.OrBit(fn(0x18), fn(0x19))
	isADD := m.OrBit(fn(0x20), fn(0x21))
	isSUB := m.OrBit(fn(0x22), fn(0x23))
	isANDr := fn(0x24)
	isORr := fn(0x25)
	isXORr := fn(0x26)
	isNOR := fn(0x27)
	isSLT := fn(0x2A)
	isSLTU := fn(0x2B)

	opIs := func(code uint64) netlist.NetID { return m.EqConst(op, code) }
	isJ := opIs(0x02)
	isJAL := opIs(0x03)
	isBEQ := opIs(0x04)
	isBNE := opIs(0x05)
	isADDI := m.OrBit(opIs(0x08), opIs(0x09))
	isSLTI := opIs(0x0A)
	isSLTIU := opIs(0x0B)
	isANDI := opIs(0x0C)
	isORI := opIs(0x0D)
	isXORI := opIs(0x0E)
	isLUI := opIs(0x0F)
	isLW := opIs(0x23)
	isSW := opIs(0x2B)

	isBranch := m.OrBit(isBEQ, isBNE)
	isShiftImm := m.OrBit(isSLL, m.OrBit(isSRL, isSRA))
	isShiftReg := m.OrBit(isSLLV, m.OrBit(isSRLV, isSRAV))
	zeroExtImm := m.OrBit(isANDI, m.OrBit(isORI, isXORI))

	immSE := m.SignExtend(imm16, 32)
	immZE := m.ZeroExtend(imm16, 32)
	imm := m.Mux(zeroExtImm, immSE, immZE)

	// --- Register file (32 x 32) ---
	wbData := b.wire("wb_data", 32)
	wbEn := b.wire("wb_en", 1)
	wbAddr := b.wire("wb_addr", 5)
	ports := m.RegFile("rf", 32, 32, wbEn[0], wbAddr, wbData, []rtl.Bus{rs, rt})
	rsd, rtd := ports[0], ports[1]

	// --- ALU ---
	useImm := m.OrBit(isADDI, m.OrBit(isSLTI, m.OrBit(isSLTIU,
		m.OrBit(zeroExtImm, m.OrBit(isLW, isSW)))))
	bOp := m.Mux(useImm, rtd, imm)
	subSel := isSUB
	addB := m.Mux(subSel, bOp, m.Not(bOp))
	addRes, _ := m.Add(rsd, addB, subSel)

	sh := m.Mux(isShiftReg, shamt, rsd[0:5])
	sll := m.ShiftLeft(rtd, sh)
	srl := m.ShiftRight(rtd, sh, false)
	sra := m.ShiftRight(rtd, sh, true)

	ltS := m.LtS(rsd, bOp)
	ltU := m.LtU(rsd, bOp)

	// --- Hardware multiplier (32x32 -> 64) with HI/LO registers ---
	prod := m.MulU(rsd[0:MulBits], rtd[0:MulBits])
	loD := b.wire("lo_d", 32)
	loEn := b.wire("lo_en", 1)
	lo := m.Reg("lo", loD, loEn[0], 0)
	hiD := b.wire("hi_d", 32)
	hiEn := b.wire("hi_en", 1)
	hi := m.Reg("hi", hiD, hiEn[0], 0)
	b.drive(loD, prod[0:32])
	b.drive(hiD, prod[32:64])
	mulGo := m.AndBit(exec, isMULT)
	b.drive(loEn, rtl.Bus{mulGo})
	b.drive(hiEn, rtl.Bus{mulGo})

	// --- Result selection ---
	res := addRes
	sel := func(cond netlist.NetID, val rtl.Bus) { res = m.Mux(cond, res, val) }
	sel(m.OrBit(isSLL, isSLLV), sll)
	sel(m.OrBit(isSRL, isSRLV), srl)
	sel(m.OrBit(isSRA, isSRAV), sra)
	sel(m.OrBit(isSLT, isSLTI), m.ZeroExtend(rtl.Bus{ltS}, 32))
	sel(m.OrBit(isSLTU, isSLTIU), m.ZeroExtend(rtl.Bus{ltU}, 32))
	sel(isANDr, m.And(rsd, bOp))
	sel(m.OrBit(isORr, isORI), m.Or(rsd, bOp))
	sel(isANDI, m.And(rsd, bOp))
	sel(m.OrBit(isXORr, isXORI), m.Xor(rsd, bOp))
	sel(isNOR, m.Not(m.Or(rsd, bOp)))
	sel(isLUI, rtl.Cat(m.Const(16, 0), imm16))
	sel(isMFLO, lo)
	sel(isMFHI, hi)

	// --- Branch resolution: subtraction of the operand registers; the
	// low 16 bits of the difference are monitored (paper §5.0.3). ---
	diff, _ := m.Sub(rsd, rtd)
	m.Named("cmp_res", diff[0:WatchBits])
	eq := m.Eq(rsd, rtd)
	condRaw := m.MuxBit(isBNE, eq, m.NotBit(eq))
	cond := m.Named("branch_cond", rtl.Bus{condRaw})[0]
	m.Named("branch_active", rtl.Bus{m.AndBit(exec, isBranch)})

	// --- Next PC ---
	pc4, _ := m.Add(pc, m.Const(PCBits, 4), m.Lo())
	// Branch offset in bytes, modulo the 16-bit PC space: (imm << 2) mod
	// 2^16, which preserves negative offsets without explicit extension.
	brOff := rtl.Cat(m.Const(2, 0), imm16[0:PCBits-2])
	brTarget, _ := m.Add(pc4, brOff, m.Lo())
	jTarget := rtl.Cat(m.Const(2, 0), ir[0:PCBits-2])
	jump := m.OrBit(isJ, isJAL)
	target := m.Mux(jump, rsd[0:PCBits], jTarget) // JR uses rs, J/JAL the field
	target = m.Mux(isBranch, target, brTarget)

	takenJump := m.OrBit(jump, isJR)
	taken := m.OrBit(m.AndBit(isBranch, cond), takenJump)
	nextPC := m.Mux(taken, pc4, target)
	b.drive(pcD, nextPC)
	b.drive(pcEn, rtl.Bus{exec})

	selfJump := m.AndBit(taken, m.Eq(target, pc))
	b.drive(haltD, rtl.Bus{m.Hi()})
	b.drive(haltEn, rtl.Bus{m.AndBit(exec, selfJump)})

	// --- Data memory ---
	ramWen := m.AndBit(exec, isSW)
	memIdx := addRes[2 : 2+8]
	rdata := m.RAM("dmem", memIdx, 32, RAMWords, nil, ramWen, memIdx, rtd)

	// --- Write-back ---
	link := m.ZeroExtend(pc4, 32)
	wb := m.Mux(isLW, res, rdata)
	wb = m.Mux(isJAL, wb, link)
	b.drive(wbData, wb)

	// Destination register: rd for R-type, rt for I-type, $ra (31) for JAL.
	dst := m.Mux(isR, rt, rdF)
	dst = m.Mux(isJAL, dst, m.Const(5, 31))
	b.drive(wbAddr, dst)

	writesReg := m.OrBit(isADD, m.OrBit(isSUB, m.OrBit(isANDr, m.OrBit(isORr,
		m.OrBit(isXORr, m.OrBit(isNOR, m.OrBit(isSLT, m.OrBit(isSLTU,
			m.OrBit(isShiftImm, m.OrBit(isShiftReg, m.OrBit(isMFLO, isMFHI)))))))))))
	writesReg = m.OrBit(writesReg, m.OrBit(isADDI, m.OrBit(isSLTI, m.OrBit(isSLTIU,
		m.OrBit(zeroExtImm, m.OrBit(isLUI, m.OrBit(isLW, isJAL)))))))
	dstNonZero := m.NonZero(dst)
	b.drive(wbEn, rtl.Bus{m.AndBit(exec, m.AndBit(writesReg, dstNonZero))})

	m.Output("pc_out", pc)
	m.Output("wb_out", wbData)
}
