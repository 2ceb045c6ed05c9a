package omsp430

import (
	"symsim/internal/isa/msp430"
	"symsim/internal/netlist"
	"symsim/internal/rtl"
)

// periphPorts is the data-space interface the core drives: a read-data bus
// (RAM or memory-mapped peripheral, selected by address) and the write
// strobe/data wires the core connects after elaborating the ALU.
type periphPorts struct {
	rdata rtl.Bus // combinational read of mem[memAddr]
	wen   rtl.Bus // 1-bit wire: write strobe (driven by the core)
	wdata rtl.Bus // 16-bit wire: write data (driven by the core)
}

// peripherals elaborates the openMSP430 data space: 256x16 RAM at 0x0200
// plus the Table 2 peripheral set — 16x16 hardware multiplier, watchdog,
// GPIO and TimerA — memory-mapped below the RAM. Benchmarks that never
// touch a peripheral leave its logic unexercised, which is exactly why the
// paper reports the largest bespoke reductions on openMSP430 (Figure 5).
func (b *builder) peripherals(memAddr rtl.Bus) periphPorts {
	m := b.Module
	p := periphPorts{
		wen:   b.wire("dm_wen", 1),
		wdata: b.wire("dm_wdata", 16),
	}

	// Address decode. RAM: 0x0200..0x03FF -> bit 9 set, bits 15:10 clear.
	hiClear := m.Zero(memAddr[10:16])
	isRAM := m.AndBit(hiClear, memAddr[9])
	addrIs := func(addr uint64) netlist.NetID { return m.EqConst(memAddr, addr) }

	strobe := func(addr uint64) netlist.NetID {
		return m.AndBit(p.wen[0], addrIs(addr))
	}

	// --- Data RAM ---
	ramIdx := memAddr[1 : 1+8]
	ramWen := m.AndBit(p.wen[0], isRAM)
	ram := m.RAM("dmem", ramIdx, 16, RAMWords, nil, ramWen, ramIdx, p.wdata)

	// --- GPIO port 1 ---
	p1in := m.Input("p1in", 8) // application inputs: X unless driven
	p1out := m.Reg("p1out", p.wdata[0:8], strobe(msp430.AddrP1OUT), 0)
	p1dir := m.Reg("p1dir", p.wdata[0:8], strobe(msp430.AddrP1DIR), 0)
	m.Output("p1out_pins", p1out)
	m.Output("p1dir_pins", p1dir)

	// --- Watchdog timer ---
	// WDTCTL bit 7 is WDTHOLD. As on real silicon the watchdog runs out
	// of reset; benchmarks disable it in their first instructions (the
	// canonical MOV #WDTHOLD, &WDTCTL prologue).
	wdtctl := m.Reg("wdtctl", p.wdata, strobe(msp430.AddrWDTCTL), 0)
	wdtHold := wdtctl[7]
	wdtD := b.wire("wdt_cnt_d", 16)
	wdtCnt := m.Reg("wdt_cnt", wdtD, m.NotBit(wdtHold), 0)
	b.drive(wdtD, m.Inc(wdtCnt))
	// Overflow raises the reset-request flag (observable output; this
	// platform does not wire it back to the reset tree).
	wdtOvfD := b.wire("wdt_ovf_d", 1)
	wdtOvf := m.Reg("wdt_ovf", wdtOvfD, m.Hi(), 0)
	b.drive(wdtOvfD, rtl.Bus{m.OrBit(wdtOvf[0], m.EqConst(wdtCnt, 0xFFFF))})
	m.Output("wdt_rst_req", wdtOvf)

	// --- 16x16 hardware multiplier ---
	mpy := m.Reg("mpy_op1", p.wdata, strobe(msp430.AddrMPY), 0)
	op2 := m.Reg("mpy_op2", p.wdata, strobe(msp430.AddrOP2), 0)
	prod := m.MulU(mpy, op2)
	resLo := prod[0:16]
	resHi := prod[16:32]

	// --- TimerA ---
	// TACTL bit 0 starts the counter; it powers up stopped (MC=stop on
	// real TimerA), so applications that never start it leave the whole
	// block unexercised.
	tactl := m.Reg("tactl", p.wdata, strobe(msp430.AddrTACTL), 0)
	taRun := tactl[0]
	tarD := b.wire("tar_d", 16)
	tar := m.Reg("tar", tarD, taRun, 0)
	b.drive(tarD, m.Inc(tar))
	taccr0 := m.Reg("taccr0", p.wdata, strobe(msp430.AddrTACCR0), 0)
	taifgD := b.wire("taifg_d", 1)
	taifg := m.Reg("taifg", taifgD, m.Hi(), 0)
	b.drive(taifgD, rtl.Bus{m.OrBit(taifg[0], m.AndBit(taRun, m.Eq(tar, taccr0)))})
	m.Output("ta_ifg", taifg)

	// --- Read mux ---
	rd := ram
	sel := func(cond netlist.NetID, val rtl.Bus) { rd = m.Mux(cond, rd, val) }
	sel(addrIs(msp430.AddrP1IN), m.ZeroExtend(p1in, 16))
	sel(addrIs(msp430.AddrP1OUT), m.ZeroExtend(p1out, 16))
	sel(addrIs(msp430.AddrP1DIR), m.ZeroExtend(p1dir, 16))
	sel(addrIs(msp430.AddrWDTCTL), wdtctl)
	sel(addrIs(msp430.AddrMPY), mpy)
	sel(addrIs(msp430.AddrOP2), op2)
	sel(addrIs(msp430.AddrRESLO), resLo)
	sel(addrIs(msp430.AddrRESHI), resHi)
	sel(addrIs(msp430.AddrTACTL), tactl)
	sel(addrIs(msp430.AddrTAR), tar)
	sel(addrIs(msp430.AddrTACCR0), taccr0)
	p.rdata = rd
	return p
}
