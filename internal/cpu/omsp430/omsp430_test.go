package omsp430

import (
	"testing"

	"symsim/internal/cpu/cputest"
	"symsim/internal/isa/msp430"
	"symsim/internal/vvp"
)

func run(t *testing.T, build func(a *msp430.Asm)) *vvp.Simulator {
	t.Helper()
	a := msp430.NewAsm()
	build(a)
	img, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(img)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := p.RunConcrete(vvp.Options{}, nil, 200000, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func memWord(t *testing.T, sim *vvp.Simulator, index int, want uint16) {
	t.Helper()
	got, err := cputest.MemUint(sim, "dmem", index)
	if err != nil {
		t.Fatal(err)
	}
	if uint16(got) != want {
		t.Errorf("dmem[%d] = %#x, want %#x", index, got, want)
	}
}

func TestHaltOnly(t *testing.T) {
	sim := run(t, func(a *msp430.Asm) { a.Halt() })
	if sim.Cycles() > 20 {
		t.Errorf("halt took %d cycles", sim.Cycles())
	}
}

func TestMoveAndArith(t *testing.T) {
	sim := run(t, func(a *msp430.Asm) {
		a.DisableWatchdog()
		a.MOVI(40, msp430.R4)
		a.MOVI(2, msp430.R5)
		a.MOV(msp430.R4, msp430.R6)
		a.ADD(msp430.R5, msp430.R6) // 42
		a.StoreAbs(msp430.R6, msp430.DataAddr(0))
		a.MOV(msp430.R4, msp430.R7)
		a.SUB(msp430.R5, msp430.R7) // 38
		a.StoreAbs(msp430.R7, msp430.DataAddr(1))
		a.Halt()
	})
	memWord(t, sim, 0, 42)
	memWord(t, sim, 1, 38)
}

func TestLogicalOps(t *testing.T) {
	sim := run(t, func(a *msp430.Asm) {
		a.DisableWatchdog()
		a.MOVI(0x0F0F, msp430.R4)
		a.MOVI(0x00FF, msp430.R5)
		a.MOV(msp430.R4, msp430.R6)
		a.AND(msp430.R5, msp430.R6) // 0x000F
		a.StoreAbs(msp430.R6, msp430.DataAddr(0))
		a.MOV(msp430.R4, msp430.R7)
		a.BIS(msp430.R5, msp430.R7) // 0x0FFF
		a.StoreAbs(msp430.R7, msp430.DataAddr(1))
		a.MOV(msp430.R4, msp430.R8)
		a.XOR(msp430.R5, msp430.R8) // 0x0FF0
		a.StoreAbs(msp430.R8, msp430.DataAddr(2))
		a.MOV(msp430.R4, msp430.R9)
		a.BIC(msp430.R5, msp430.R9) // 0x0F00
		a.StoreAbs(msp430.R9, msp430.DataAddr(3))
		a.Halt()
	})
	memWord(t, sim, 0, 0x000F)
	memWord(t, sim, 1, 0x0FFF)
	memWord(t, sim, 2, 0x0FF0)
	memWord(t, sim, 3, 0x0F00)
}

func TestFormatII(t *testing.T) {
	sim := run(t, func(a *msp430.Asm) {
		a.DisableWatchdog()
		a.MOVI(-64, msp430.R4)
		a.RRA(msp430.R4) // -32
		a.StoreAbs(msp430.R4, msp430.DataAddr(0))
		a.MOVI(0x1234, msp430.R5)
		a.SWPB(msp430.R5) // 0x3412
		a.StoreAbs(msp430.R5, msp430.DataAddr(1))
		a.MOVI(0x0080, msp430.R6)
		a.SXT(msp430.R6) // 0xFF80
		a.StoreAbs(msp430.R6, msp430.DataAddr(2))
		// RRC: set carry via CMP (borrow clear -> C=1), then rotate.
		a.MOVI(5, msp430.R7)
		a.CMPI(3, msp430.R7) // 5-3: C=1 (no borrow)
		a.MOVI(2, msp430.R8)
		a.RRC(msp430.R8) // 0x8001
		a.StoreAbs(msp430.R8, msp430.DataAddr(3))
		a.Halt()
	})
	memWord(t, sim, 0, 0xFFE0)
	memWord(t, sim, 1, 0x3412)
	memWord(t, sim, 2, 0xFF80)
	memWord(t, sim, 3, 0x8001)
}

func TestLoadStoreIndexed(t *testing.T) {
	sim := run(t, func(a *msp430.Asm) {
		a.DisableWatchdog()
		a.MOVI(msp430.DataAddr(8), msp430.R4) // base
		a.MOVI(0xBEEF, msp430.R5)
		a.MOVRM(msp430.R5, 4, msp430.R4) // mem[base+4] = word 10
		a.MOVM(4, msp430.R4, msp430.R6)  // load back
		a.ADDI(1, msp430.R6)
		a.StoreAbs(msp430.R6, msp430.DataAddr(0))
		a.Halt()
	})
	memWord(t, sim, 10, 0xBEEF)
	memWord(t, sim, 0, 0xBEF0)
}

func TestConditionalJumps(t *testing.T) {
	sim := run(t, func(a *msp430.Asm) {
		a.DisableWatchdog()
		a.MOVI(0, msp430.R10)

		a.MOVI(5, msp430.R4)
		a.CMPI(5, msp430.R4)
		a.JEQ("eq_ok")
		a.Halt()
		a.Label("eq_ok")
		a.BISI(1, msp430.R10)

		a.CMPI(7, msp430.R4) // 5-7: borrow -> C=0, N set
		a.JNC("lt_ok")
		a.Halt()
		a.Label("lt_ok")
		a.BISI(2, msp430.R10)

		a.MOVI(-3, msp430.R5)
		a.CMPI(2, msp430.R5) // -3 - 2 = -5: N^V -> JL taken
		a.JL("jl_ok")
		a.Halt()
		a.Label("jl_ok")
		a.BISI(4, msp430.R10)

		a.MOVI(9, msp430.R6)
		a.CMPI(2, msp430.R6)
		a.JGE("jge_ok")
		a.Halt()
		a.Label("jge_ok")
		a.BISI(8, msp430.R10)

		a.CMPI(9, msp430.R6)
		a.JNE("wrong") // not taken
		a.BISI(16, msp430.R10)
		a.Label("wrong")
		a.StoreAbs(msp430.R10, msp430.DataAddr(0))
		a.Halt()
	})
	memWord(t, sim, 0, 31)
}

func TestLoopSum(t *testing.T) {
	sim := run(t, func(a *msp430.Asm) {
		a.DisableWatchdog()
		a.MOVI(10, msp430.R4)
		a.MOVI(0, msp430.R5)
		a.Label("loop")
		a.ADD(msp430.R4, msp430.R5)
		a.SUBI(1, msp430.R4)
		a.JNE("loop")
		a.StoreAbs(msp430.R5, msp430.DataAddr(0))
		a.Halt()
	})
	memWord(t, sim, 0, 55)
}

func TestHardwareMultiplierPeripheral(t *testing.T) {
	sim := run(t, func(a *msp430.Asm) {
		a.DisableWatchdog()
		a.MOVI(1234, msp430.R4)
		a.StoreAbs(msp430.R4, msp430.AddrMPY)
		a.MOVI(567, msp430.R5)
		a.StoreAbs(msp430.R5, msp430.AddrOP2)
		a.LoadAbs(msp430.AddrRESLO, msp430.R6)
		a.StoreAbs(msp430.R6, msp430.DataAddr(0))
		a.LoadAbs(msp430.AddrRESHI, msp430.R7)
		a.StoreAbs(msp430.R7, msp430.DataAddr(1))
		a.Halt()
	})
	const prod = 1234 * 567
	memWord(t, sim, 0, uint16(prod&0xFFFF))
	memWord(t, sim, 1, uint16(prod>>16))
}

func TestWatchdogRunsUntilDisabled(t *testing.T) {
	sim := run(t, func(a *msp430.Asm) {
		a.DisableWatchdog()
		// Read WDTCTL back and also snapshot the count.
		a.LoadAbs(msp430.AddrWDTCTL, msp430.R4)
		a.StoreAbs(msp430.R4, msp430.DataAddr(0))
		a.Halt()
	})
	memWord(t, sim, 0, msp430.WDTHold)
	// The counter ran for the cycles before the disable store: nonzero
	// but small.
	cnt, err := cputest.BusValue(sim, "wdt_cnt")
	if err != nil {
		t.Fatal(err)
	}
	v, ok := cnt.Uint64()
	if !ok || v == 0 || v > 64 {
		t.Errorf("wdt_cnt = %s, want small nonzero count", cnt)
	}
}

func TestTimerAStoppedByDefaultAndCounts(t *testing.T) {
	sim := run(t, func(a *msp430.Asm) {
		a.DisableWatchdog()
		// Timer must read zero while stopped.
		a.LoadAbs(msp430.AddrTAR, msp430.R4)
		a.StoreAbs(msp430.R4, msp430.DataAddr(0))
		// Start it, burn a few instructions, read it.
		a.MOVI(1, msp430.R5)
		a.StoreAbs(msp430.R5, msp430.AddrTACTL)
		a.MOV(msp430.R5, msp430.R6)
		a.MOV(msp430.R5, msp430.R6)
		a.LoadAbs(msp430.AddrTAR, msp430.R7)
		a.StoreAbs(msp430.R7, msp430.DataAddr(1))
		a.Halt()
	})
	memWord(t, sim, 0, 0)
	got, err := cputest.MemUint(sim, "dmem", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got == 0 {
		t.Error("TimerA did not count after being started")
	}
}

func TestGPIOOutput(t *testing.T) {
	sim := run(t, func(a *msp430.Asm) {
		a.DisableWatchdog()
		a.MOVI(0xA5, msp430.R4)
		a.StoreAbs(msp430.R4, msp430.AddrP1OUT)
		a.MOVI(0xFF, msp430.R5)
		a.StoreAbs(msp430.R5, msp430.AddrP1DIR)
		a.Halt()
	})
	out, err := cputest.BusValue(sim, "p1out")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := out.Uint64(); !ok || v != 0xA5 {
		t.Errorf("p1out = %s, want 0xA5", out)
	}
}

func TestGateCountPlausible(t *testing.T) {
	a := msp430.NewAsm()
	a.Halt()
	p, err := Build(a.MustAssemble())
	if err != nil {
		t.Fatal(err)
	}
	st := p.Design.Stats()
	// Paper openMSP430: 7218 gates. Same order of magnitude required,
	// smaller than bm32.
	if st.Gates < 2000 || st.Gates > 30000 {
		t.Errorf("omsp430 gate count %d implausible (%s)", st.Gates, st)
	}
	t.Logf("omsp430: %s", st)
}

func TestMonitorWatchesFourFlags(t *testing.T) {
	a := msp430.NewAsm()
	a.Halt()
	p, err := Build(a.MustAssemble())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Monitor.Watch) != 4 {
		t.Errorf("watch width %d, want 4 (NZCV)", len(p.Monitor.Watch))
	}
}
