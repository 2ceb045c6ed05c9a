// Package omsp430 builds the gate-level openMSP430 processor of the
// paper's evaluation: a 16-bit MSP430 microcontroller with the peripheral
// set the paper lists in Table 2 — a 16x16 hardware multiplier, a
// watchdog, GPIO, and TimerA. Conditional jumps resolve from the 1-bit
// N/Z/C/V status flags, which is why openMSP430 needs far fewer
// simulation paths than bm32 and dr5 (paper §5.0.3), and the unused
// peripherals are why it shows the largest bespoke gate-count reduction
// (paper Figure 5).
//
// The core is a three-state multicycle machine: FETCH latches the
// instruction word, EXT latches the optional extension word (immediate or
// indexed offset), EXEC performs the operation. Memory is Harvard-style:
// a program ROM fetched by the PC plus a data space containing RAM at
// 0x0200 and the memory-mapped peripherals below it.
package omsp430

import (
	"fmt"
	"sync"
	"sync/atomic"

	"symsim/internal/core"
	"symsim/internal/isa"
	"symsim/internal/isa/msp430"
	"symsim/internal/logic"
	"symsim/internal/netlist"
	"symsim/internal/rtl"
	"symsim/internal/vvp"
)

// Geometry of the platform.
const (
	// ROMWords is the program memory capacity (16-bit words).
	ROMWords = 1024
	// RAMWords is the data memory capacity (16-bit words).
	RAMWords = 256
	// PCBits is the program counter width (byte addresses).
	PCBits = 16
)

// bare is the omsp430 platform without a program: the core elaborated,
// frozen and compiled, its state specification and its monitor, built on
// first use and then shared by every Build of the process. Nothing writes
// to a frozen design, and Build hands out views of this one.
var bare = sync.OnceValues(func() (*core.Platform, error) {
	elaborations.Add(1)
	m := rtl.NewModule("omsp430")
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
		Name:        "omsp430",
		Design:      m.N,
		Spec:        spec,
		Monitor:     mon,
		HalfPeriod:  5,
		ResetCycles: 2,
		Specialize:  specializer(spec),
	}, nil
})

// elaborations counts runs of bare's body; the tests read it.
var elaborations atomic.Int32

// Build returns the omsp430 platform with the given program loaded: the
// shared design bound to the image's program and data memory contents.
func Build(img *isa.Image) (*core.Platform, error) {
	if len(img.ROM) > ROMWords {
		return nil, fmt.Errorf("omsp430: program of %d words exceeds ROM (%d)", len(img.ROM), ROMWords)
	}
	base, err := bare()
	if err != nil {
		return nil, err
	}
	p := *base
	p.Design, err = base.Design.Bind(map[string][]logic.Vec{
		"prom": img.ROM,
		"dmem": img.DataVec(RAMWords, 16),
	})
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// specializer implements the paper's §3.3 fork semantics for the MSP430:
// the Xs in the monitored state (the status flags) are re-interpreted as
// ones or zeros consistent with the chosen branch direction. A conditional
// jump tests a specific flag combination, so the flag it reads can be
// pinned exactly: the set of machine states that take JEQ is precisely the
// set with Z = 1. Register-relation branches (bm32/dr5 BEQ-style) admit no
// such per-bit refinement.
func specializer(spec *vvp.StateSpec) func(st vvp.State, taken bool) vvp.State {
	var ir [16]int
	for i := range ir {
		ir[i] = spec.BitOfNet(fmt.Sprintf("ir[%d]", i))
	}
	bitN := spec.BitOfNet("sr_n")
	bitZ := spec.BitOfNet("sr_z")
	bitC := spec.BitOfNet("sr_c")
	bitV := spec.BitOfNet("sr_v")
	if bitN < 0 || bitZ < 0 || bitC < 0 || bitV < 0 {
		return nil
	}
	return func(st vvp.State, taken bool) vvp.State {
		cond := 0
		for i := 0; i < 3; i++ {
			b := st.Bits.Get(ir[10+i])
			if !b.IsKnown() {
				return st // cannot decode the jump: no refinement
			}
			if b == logic.Hi {
				cond |= 1 << i
			}
		}
		set := func(bit int, v bool) { st.Bits.Set(bit, logic.Bool(v)) }
		switch cond {
		case msp430.CondJNE:
			set(bitZ, !taken)
		case msp430.CondJEQ:
			set(bitZ, taken)
		case msp430.CondJNC:
			set(bitC, !taken)
		case msp430.CondJC:
			set(bitC, taken)
		case msp430.CondJN:
			set(bitN, taken)
		case msp430.CondJGE, msp430.CondJL:
			// taken JGE means N == V; taken JL means N != V. One of the
			// two flags can be pinned when the other is known.
			want := cond == msp430.CondJGE && taken || cond == msp430.CondJL && !taken
			n, v := st.Bits.Get(bitN), st.Bits.Get(bitV)
			switch {
			case v.IsKnown():
				set(bitN, want == (v == logic.Hi))
			case n.IsKnown():
				set(bitV, want == (n == logic.Hi))
			}
		}
		return st
	}
}

func monitorSpec(n *netlist.Netlist) (vvp.MonitorXSpec, error) {
	var mon vvp.MonitorXSpec
	var ok bool
	if mon.BranchActive, ok = n.NetByName("branch_active"); !ok {
		return mon, fmt.Errorf("omsp430: branch_active net missing")
	}
	if mon.Cond, ok = n.NetByName("branch_cond"); !ok {
		return mon, fmt.Errorf("omsp430: branch_cond net missing")
	}
	if mon.Finish, ok = n.NetByName("halted"); !ok {
		return mon, fmt.Errorf("omsp430: halted net missing")
	}
	// The monitored control-flow state is the four status flags — 1 bit
	// each, unlike the 16-bit compare-result registers of bm32/dr5.
	for _, f := range []string{"sr_n", "sr_z", "sr_c", "sr_v"} {
		id, ok := n.NetByName(f)
		if !ok {
			return mon, fmt.Errorf("omsp430: %s net missing", f)
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
		panic("omsp430: drive width mismatch")
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

	irD := b.wire("ir_d", 16)
	irEn := b.wire("ir_en", 1)
	ir := m.Reg("ir", irD, irEn[0], 0)

	extD := b.wire("ext_d", 16)
	extEn := b.wire("ext_en", 1)
	extw := m.Reg("extw", extD, extEn[0], 0)

	// FSM state: 00 FETCH, 01 EXT, 10 EXEC.
	stD := b.wire("st_d", 2)
	st := m.Reg("st", stD, m.Hi(), 0)
	stFetch := m.Named("st_fetch", rtl.Bus{m.EqConst(st, 0)})[0]
	stExt := m.EqConst(st, 1)
	stExec := m.EqConst(st, 2)

	haltD := b.wire("halt_d", 1)
	haltEn := b.wire("halt_en", 1)
	halted := m.Reg("halted_q", haltD, haltEn[0], 0)
	m.Output("halted", m.Named("halted", halted))

	// --- Program memory ---
	insn := m.ROM("prom", pc[1:1+10], 16, ROMWords, nil)
	b.drive(irD, insn)
	b.drive(irEn, rtl.Bus{stFetch})
	b.drive(extD, insn)
	b.drive(extEn, rtl.Bus{stExt})

	// --- Decode (from IR during EXT/EXEC; from the fresh instruction
	// word during FETCH to pick the next state) ---
	type decoded struct {
		fmt1, fmt2, jump    netlist.NetID
		srcReg, dstReg      rtl.Bus
		asIdx, asImm, adIdx netlist.NetID
		needExt             netlist.NetID
	}
	decode := func(w rtl.Bus) decoded {
		var d decoded
		// Format I opcodes occupy 4..15: any of the top two opcode bits
		// set. Jumps are 001x; Format II is the 000100 prefix.
		d.fmt1 = m.OrBit(w[15], w[14])
		d.jump = m.AndBit(m.NotBit(w[15]), m.AndBit(m.NotBit(w[14]), w[13]))
		d.fmt2 = m.EqConst(w[10:16], 0b000100)
		d.srcReg = w[8:12]
		d.dstReg = w[0:4]
		as := w[4:6]
		d.asIdx = m.AndBit(m.NotBit(as[1]), as[0]) // As == 01: x(Rn)
		d.asImm = m.AndBit(as[1], as[0])           // As == 11, src=R0: #imm
		d.adIdx = w[7]
		srcMem := m.AndBit(m.OrBit(d.fmt1, d.fmt2), d.asIdx)
		immSrc := m.AndBit(d.fmt1, d.asImm)
		dstMem := m.AndBit(d.fmt1, d.adIdx)
		d.needExt = m.OrBit(srcMem, m.OrBit(immSrc, dstMem))
		return d
	}
	dNow := decode(insn) // used during FETCH for next-state selection
	d := decode(ir)      // used during EXEC

	op := ir[12:16]
	opIs := func(code uint64) netlist.NetID { return m.AndBit(d.fmt1, m.EqConst(op, code)) }
	isMOV := opIs(msp430.OpMOV)
	isADD := opIs(msp430.OpADD)
	isADDC := opIs(msp430.OpADDC)
	isSUBC := opIs(msp430.OpSUBC)
	isSUB := opIs(msp430.OpSUB)
	isCMP := opIs(msp430.OpCMP)
	isBIT := opIs(msp430.OpBIT)
	isBIC := opIs(msp430.OpBIC)
	isBIS := opIs(msp430.OpBIS)
	isXOR := opIs(msp430.OpXOR)
	isAND := opIs(msp430.OpAND)

	op2 := ir[7:10]
	op2Is := func(code uint64) netlist.NetID { return m.AndBit(d.fmt2, m.EqConst(op2, code)) }
	isRRC := op2Is(msp430.Op2RRC)
	isSWPB := op2Is(msp430.Op2SWPB)
	isRRA := op2Is(msp430.Op2RRA)
	isSXT := op2Is(msp430.Op2SXT)

	// --- Register file (16 x 16) ---
	wbData := b.wire("wb_data", 16)
	wbEn := b.wire("wb_en", 1)
	wbAddr := b.wire("wb_addr", 4)
	ports := m.RegFile("rf", 16, 16, wbEn[0], wbAddr, wbData, []rtl.Bus{d.srcReg, d.dstReg})
	srcRegVal, dstRegVal := ports[0], ports[1]

	// --- Status register flags (the monitored control-flow state) ---
	nD := b.wire("sr_n_d", 1)
	zD := b.wire("sr_z_d", 1)
	cD := b.wire("sr_c_d", 1)
	vD := b.wire("sr_v_d", 1)
	flagEn := b.wire("flag_en", 1)
	srN := m.Reg("sr_n", nD, flagEn[0], 0)[0]
	srZ := m.Reg("sr_z", zD, flagEn[0], 0)[0]
	srC := m.Reg("sr_c", cD, flagEn[0], 0)[0]
	srV := m.Reg("sr_v", vD, flagEn[0], 0)[0]

	// --- Data-space access (RAM + peripherals) ---
	// At most one memory operand per instruction: its address is
	// reg[base] + EXTW, base = src for indexed/Format II source, dst for
	// indexed destination.
	srcMemF1 := m.AndBit(d.fmt1, d.asIdx)
	srcMem := m.OrBit(srcMemF1, m.AndBit(d.fmt2, d.asIdx))
	dstMem := m.AndBit(d.fmt1, d.adIdx)
	// The Format II operand register lives in the dst field, so only
	// Format I indexed sources use the src register as base.
	baseVal := m.Mux(srcMemF1, dstRegVal, srcRegVal)
	memAddr, _ := m.Add(baseVal, extw, m.Lo())

	periph := b.peripherals(memAddr)

	// --- Operand selection ---
	srcVal := srcRegVal
	srcVal = m.Mux(m.AndBit(d.fmt1, d.asImm), srcVal, extw)
	srcVal = m.Mux(srcMem, srcVal, periph.rdata)
	dstVal := m.Mux(dstMem, dstRegVal, periph.rdata)
	// Format II operates on its single (dst-field) operand, register or
	// memory sourced via As.
	uniVal := m.Mux(srcMem, dstRegVal, periph.rdata)

	// --- ALU ---
	sum16 := func(a, bb rtl.Bus, cin netlist.NetID) (rtl.Bus, netlist.NetID) {
		return m.Add(a, bb, cin)
	}
	notSrc := m.Not(srcVal)
	isSubLike := m.OrBit(isSUB, m.OrBit(isSUBC, isCMP))
	addA := dstVal
	addB := m.Mux(isSubLike, srcVal, notSrc)
	cin := m.MuxBit(isSubLike, m.Lo(), m.Hi())
	cin = m.MuxBit(m.OrBit(isADDC, isSUBC), cin, srC)
	addRes, cout := sum16(addA, addB, cin)

	// Signed overflow for add/sub.
	vAdd := m.AndBit(m.XnorBit(addA[15], addB[15]), m.XorBit(addRes[15], addA[15]))

	andRes := m.And(dstVal, srcVal)
	res := addRes
	sel := func(cond netlist.NetID, val rtl.Bus) { res = m.Mux(cond, res, val) }
	sel(isMOV, srcVal)
	sel(m.OrBit(isAND, isBIT), andRes)
	sel(isBIC, m.And(dstVal, notSrc))
	sel(isBIS, m.Or(dstVal, srcVal))
	sel(isXOR, m.Xor(dstVal, srcVal))
	// Format II results.
	rraRes := rtl.Cat(uniVal[1:16], rtl.Bus{uniVal[15]})
	rrcRes := rtl.Cat(uniVal[1:16], rtl.Bus{srC})
	swpbRes := rtl.Cat(uniVal[8:16], uniVal[0:8])
	sxtRes := m.SignExtend(uniVal[0:8], 16)
	sel(isRRA, rraRes)
	sel(isRRC, rrcRes)
	sel(isSWPB, swpbRes)
	sel(isSXT, sxtRes)

	// --- Flags ---
	resZ := m.Zero(res)
	resN := res[15]
	arith := m.OrBit(isADD, m.OrBit(isADDC, isSubLike))
	logical := m.OrBit(isAND, m.OrBit(isBIT, m.OrBit(isXOR, isSXT)))
	shifty := m.OrBit(isRRA, isRRC)
	setsFlags := m.OrBit(arith, m.OrBit(logical, shifty))
	b.drive(flagEn, rtl.Bus{m.AndBit(stExec, setsFlags)})
	b.drive(nD, rtl.Bus{resN})
	b.drive(zD, rtl.Bus{resZ})
	cNew := m.MuxBit(arith, m.NotBit(resZ), cout) // logical: C = ~Z
	cNew = m.MuxBit(shifty, cNew, uniVal[0])      // shifts: C = LSB out
	b.drive(cD, rtl.Bus{cNew})
	vNew := m.MuxBit(arith, m.Lo(), vAdd)
	b.drive(vD, rtl.Bus{vNew})

	// --- Jump resolution from the 1-bit flags (paper §5.0.3) ---
	cond3 := ir[10:13]
	nxv := m.XorBit(srN, srV)
	condRaw := m.MuxWord(cond3, []rtl.Bus{
		{m.NotBit(srZ)}, // JNE
		{srZ},           // JEQ
		{m.NotBit(srC)}, // JNC
		{srC},           // JC
		{srN},           // JN
		{m.NotBit(nxv)}, // JGE
		{nxv},           // JL
		{m.Hi()},        // JMP
	})
	isCondJump := m.AndBit(d.jump, m.NotBit(m.EqConst(cond3, msp430.CondJMP)))
	cond := m.Named("branch_cond", condRaw)[0]
	m.Named("branch_active", rtl.Bus{m.AndBit(stExec, isCondJump)})

	// --- Next PC and state ---
	pc2, _ := m.Add(pc, m.Const(PCBits, 2), m.Lo())
	// Jump target: pc + 2*offset with the 10-bit offset sign-extended;
	// pc already points past the jump word at EXEC.
	off := m.SignExtend(ir[0:10], PCBits-1)
	offBytes := rtl.Cat(rtl.Bus{m.Lo()}, off)
	jTarget, _ := m.Add(pc, offBytes, m.Lo())
	jumpTaken := m.AndBit(d.jump, cond)
	execPC := m.Mux(jumpTaken, pc, jTarget)
	nextPC := m.Mux(stExec, pc2, execPC)
	pcAdvance := m.OrBit(stFetch, m.OrBit(stExt, m.AndBit(stExec, jumpTaken)))
	b.drive(pcD, nextPC)
	b.drive(pcEn, rtl.Bus{pcAdvance})

	// Terminating condition: taken JMP with offset -1 (jump to self).
	selfJump := m.AndBit(jumpTaken, m.EqConst(ir[0:10], 0x3FF))
	b.drive(haltD, rtl.Bus{m.Hi()})
	b.drive(haltEn, rtl.Bus{m.AndBit(stExec, selfJump)})

	// Next state: FETCH -> (EXT | EXEC) -> EXEC -> FETCH.
	nextSt := m.Mux(stFetch,
		m.Mux(stExt, m.Const(2, 0) /* EXEC done -> FETCH */, m.Const(2, 2)),
		m.Mux(dNow.needExt, m.Const(2, 2), m.Const(2, 1)))
	b.drive(stD, nextSt)

	// --- Write-back ---
	writesReg1 := m.AndBit(d.fmt1, m.AndBit(m.NotBit(d.adIdx),
		m.NotBit(m.OrBit(isCMP, isBIT))))
	writesReg2 := m.AndBit(d.fmt2, m.NotBit(d.asIdx))
	b.drive(wbEn, rtl.Bus{m.AndBit(stExec, m.OrBit(writesReg1, writesReg2))})
	b.drive(wbAddr, d.dstReg)
	b.drive(wbData, res)

	// Memory write-back (indexed destination, or Format II on memory).
	memWrite := m.AndBit(stExec, m.OrBit(
		m.AndBit(d.fmt1, m.AndBit(d.adIdx, m.NotBit(m.OrBit(isCMP, isBIT)))),
		m.AndBit(d.fmt2, d.asIdx)))
	b.drive(periph.wen, rtl.Bus{memWrite})
	b.drive(periph.wdata, res)

	m.Output("pc_out", pc)
	m.Output("wb_out", wbData)
}
