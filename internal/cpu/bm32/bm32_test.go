package bm32

import (
	"testing"

	"symsim/internal/cpu/cputest"
	"symsim/internal/isa/mips"
	"symsim/internal/vvp"
)

func run(t *testing.T, build func(a *mips.Asm)) *vvp.Simulator {
	t.Helper()
	a := mips.NewAsm()
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

func memWord(t *testing.T, sim *vvp.Simulator, index int, want uint32) {
	t.Helper()
	got, err := cputest.MemUint(sim, "dmem", index)
	if err != nil {
		t.Fatal(err)
	}
	if uint32(got) != want {
		t.Errorf("dmem[%d] = %#x, want %#x", index, got, want)
	}
}

func TestHaltOnly(t *testing.T) {
	sim := run(t, func(a *mips.Asm) { a.Halt() })
	if sim.Cycles() > 20 {
		t.Errorf("halt took %d cycles", sim.Cycles())
	}
}

func TestRTypeALU(t *testing.T) {
	sim := run(t, func(a *mips.Asm) {
		a.LI(mips.T0, 40)
		a.LI(mips.T1, 2)
		a.ADDU(mips.T2, mips.T0, mips.T1)
		a.SW(mips.T2, mips.ZERO, 0) // 42
		a.SUBU(mips.T3, mips.T0, mips.T1)
		a.SW(mips.T3, mips.ZERO, 4) // 38
		a.AND(mips.T4, mips.T0, mips.T1)
		a.SW(mips.T4, mips.ZERO, 8) // 0
		a.OR(mips.T5, mips.T0, mips.T1)
		a.SW(mips.T5, mips.ZERO, 12) // 42
		a.XOR(mips.T6, mips.T0, mips.T1)
		a.SW(mips.T6, mips.ZERO, 16) // 42
		a.NOR(mips.T7, mips.T0, mips.T1)
		a.SW(mips.T7, mips.ZERO, 20) // ^42
		a.Halt()
	})
	memWord(t, sim, 0, 42)
	memWord(t, sim, 1, 38)
	memWord(t, sim, 2, 0)
	memWord(t, sim, 3, 42)
	memWord(t, sim, 4, 42)
	memWord(t, sim, 5, ^uint32(42))
}

func TestImmediatesAndLUI(t *testing.T) {
	sim := run(t, func(a *mips.Asm) {
		a.LI(mips.T0, 0x12345678)
		a.SW(mips.T0, mips.ZERO, 0)
		a.ADDIU(mips.T1, mips.ZERO, -1)
		a.SW(mips.T1, mips.ZERO, 4)
		a.ANDI(mips.T2, mips.T0, 0xFF)
		a.SW(mips.T2, mips.ZERO, 8) // 0x78
		a.ORI(mips.T3, mips.ZERO, 0x8000)
		a.SW(mips.T3, mips.ZERO, 12) // zero-extended 0x8000
		a.XORI(mips.T4, mips.T3, 0x8000)
		a.SW(mips.T4, mips.ZERO, 16) // 0
		a.Halt()
	})
	memWord(t, sim, 0, 0x12345678)
	memWord(t, sim, 1, 0xFFFFFFFF)
	memWord(t, sim, 2, 0x78)
	memWord(t, sim, 3, 0x8000)
	memWord(t, sim, 4, 0)
}

func TestShifts(t *testing.T) {
	sim := run(t, func(a *mips.Asm) {
		a.LI(mips.T0, 1)
		a.SLL(mips.T1, mips.T0, 5)
		a.SW(mips.T1, mips.ZERO, 0) // 32
		a.LI(mips.T2, -64)
		a.SRA(mips.T3, mips.T2, 3)
		a.SW(mips.T3, mips.ZERO, 4) // -8
		a.SRL(mips.T4, mips.T2, 28)
		a.SW(mips.T4, mips.ZERO, 8) // 0xF
		a.LI(mips.T5, 2)
		a.SLLV(mips.T6, mips.T1, mips.T5)
		a.SW(mips.T6, mips.ZERO, 12) // 128
		a.SRLV(mips.T7, mips.T1, mips.T5)
		a.SW(mips.T7, mips.ZERO, 16) // 8
		a.SRAV(mips.S0, mips.T2, mips.T5)
		a.SW(mips.S0, mips.ZERO, 20) // -16
		a.Halt()
	})
	memWord(t, sim, 0, 32)
	memWord(t, sim, 1, 0xFFFFFFF8)
	memWord(t, sim, 2, 0xF)
	memWord(t, sim, 3, 128)
	memWord(t, sim, 4, 8)
	memWord(t, sim, 5, 0xFFFFFFF0)
}

func TestSetLessThan(t *testing.T) {
	sim := run(t, func(a *mips.Asm) {
		a.LI(mips.T0, -5)
		a.LI(mips.T1, 3)
		a.SLT(mips.T2, mips.T0, mips.T1)
		a.SW(mips.T2, mips.ZERO, 0) // 1
		a.SLTU(mips.T3, mips.T0, mips.T1)
		a.SW(mips.T3, mips.ZERO, 4) // 0
		a.SLTI(mips.T4, mips.T1, 10)
		a.SW(mips.T4, mips.ZERO, 8) // 1
		a.SLTIU(mips.T5, mips.T1, 2)
		a.SW(mips.T5, mips.ZERO, 12) // 0
		a.Halt()
	})
	memWord(t, sim, 0, 1)
	memWord(t, sim, 1, 0)
	memWord(t, sim, 2, 1)
	memWord(t, sim, 3, 0)
}

func TestHardwareMultiplier(t *testing.T) {
	sim := run(t, func(a *mips.Asm) {
		a.LI(mips.T0, 1234)
		a.LI(mips.T1, 567)
		a.MULTU(mips.T0, mips.T1)
		a.MFLO(mips.T2)
		a.SW(mips.T2, mips.ZERO, 0)
		a.MFHI(mips.T3)
		a.SW(mips.T3, mips.ZERO, 4)
		a.Halt()
	})
	memWord(t, sim, 0, 1234*567)
	memWord(t, sim, 1, 0)
}

func TestBranchLoopSum(t *testing.T) {
	// MIPS compare-then-branch idiom: SLT/SUB result in a register,
	// BNE against $zero (paper §5.0.3).
	sim := run(t, func(a *mips.Asm) {
		a.LI(mips.T0, 10)
		a.LI(mips.T1, 0)
		a.Label("loop")
		a.ADDU(mips.T1, mips.T1, mips.T0)
		a.ADDIU(mips.T0, mips.T0, -1)
		a.BNE(mips.T0, mips.ZERO, "loop")
		a.SW(mips.T1, mips.ZERO, 0)
		a.Halt()
	})
	memWord(t, sim, 0, 55)
}

func TestBEQTakenAndNotTaken(t *testing.T) {
	sim := run(t, func(a *mips.Asm) {
		a.LI(mips.T0, 5)
		a.LI(mips.T1, 5)
		a.BEQ(mips.T0, mips.T1, "eq")
		a.Halt() // must not execute
		a.Label("eq")
		a.LI(mips.T2, 7)
		a.BEQ(mips.T0, mips.T2, "wrong")
		a.LI(mips.T3, 1)
		a.SW(mips.T3, mips.ZERO, 0)
		a.Label("wrong")
		a.Halt()
	})
	memWord(t, sim, 0, 1)
}

func TestJALAndJR(t *testing.T) {
	sim := run(t, func(a *mips.Asm) {
		a.LI(mips.A0, 5)
		a.JAL("double")
		a.SW(mips.A0, mips.ZERO, 0)
		a.Halt()
		a.Label("double")
		a.ADDU(mips.A0, mips.A0, mips.A0)
		a.JR(mips.RA)
	})
	memWord(t, sim, 0, 10)
}

func TestLoadStore(t *testing.T) {
	sim := run(t, func(a *mips.Asm) {
		a.LI(mips.T0, 0xCAFE)
		a.LI(mips.T1, 64)
		a.SW(mips.T0, mips.T1, 8)
		a.LW(mips.T2, mips.T1, 8)
		a.ADDIU(mips.T2, mips.T2, 2)
		a.SW(mips.T2, mips.ZERO, 0)
		a.Halt()
	})
	memWord(t, sim, 0, 0xCB00)
	memWord(t, sim, 18, 0xCAFE)
}

func TestGateCountPlausible(t *testing.T) {
	a := mips.NewAsm()
	a.Halt()
	p, err := Build(a.MustAssemble())
	if err != nil {
		t.Fatal(err)
	}
	st := p.Design.Stats()
	// Paper bm32: 16795 gates; same order of magnitude required, and it
	// must be the largest of the three designs.
	if st.Gates < 4000 || st.Gates > 60000 {
		t.Errorf("bm32 gate count %d implausible (%s)", st.Gates, st)
	}
	if st.Sequential < 1024 {
		t.Errorf("32x32 register file missing? only %d DFFs", st.Sequential)
	}
	t.Logf("bm32: %s", st)
}
