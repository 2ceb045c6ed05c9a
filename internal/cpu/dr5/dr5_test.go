package dr5

import (
	"testing"

	"symsim/internal/cpu/cputest"
	"symsim/internal/isa/rv32"
	"symsim/internal/vvp"
)

// run assembles the program, builds the core and runs it concretely to the
// terminating condition.
func run(t *testing.T, build func(a *rv32.Asm)) *vvp.Simulator {
	t.Helper()
	a := rv32.NewAsm()
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

// memWord asserts data-memory word index holds want.
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
	sim := run(t, func(a *rv32.Asm) { a.Halt() })
	if sim.Cycles() > 20 {
		t.Errorf("halt took %d cycles", sim.Cycles())
	}
}

func TestArithToMemory(t *testing.T) {
	sim := run(t, func(a *rv32.Asm) {
		a.LI(rv32.T0, 40)
		a.LI(rv32.T1, 2)
		a.ADD(rv32.T2, rv32.T0, rv32.T1) // 42
		a.SUB(rv32.A0, rv32.T0, rv32.T1) // 38
		a.AND(rv32.A1, rv32.T0, rv32.T1) // 0
		a.OR(rv32.A2, rv32.T0, rv32.T1)  // 42
		a.XOR(rv32.A3, rv32.T0, rv32.T1) // 42
		a.SW(rv32.T2, rv32.X0, 0)
		a.SW(rv32.A0, rv32.X0, 4)
		a.SW(rv32.A1, rv32.X0, 8)
		a.SW(rv32.A2, rv32.X0, 12)
		a.SW(rv32.A3, rv32.X0, 16)
		a.Halt()
	})
	memWord(t, sim, 0, 42)
	memWord(t, sim, 1, 38)
	memWord(t, sim, 2, 0)
	memWord(t, sim, 3, 42)
	memWord(t, sim, 4, 42)
}

func TestX0IsHardwiredZero(t *testing.T) {
	sim := run(t, func(a *rv32.Asm) {
		a.LI(rv32.X0, 99) // must be discarded
		a.SW(rv32.X0, rv32.X0, 0)
		a.Halt()
	})
	memWord(t, sim, 0, 0)
}

func TestImmediatesAndLUI(t *testing.T) {
	sim := run(t, func(a *rv32.Asm) {
		a.LI(rv32.T0, 0x12345678)
		a.SW(rv32.T0, rv32.X0, 0)
		a.LI(rv32.T1, -1)
		a.SW(rv32.T1, rv32.X0, 4)
		a.ADDI(rv32.T2, rv32.T1, 1) // 0
		a.SW(rv32.T2, rv32.X0, 8)
		a.ANDI(rv32.A0, rv32.T0, 0xFF) // 0x78
		a.SW(rv32.A0, rv32.X0, 12)
		a.ORI(rv32.A1, rv32.X0, 0x55)
		a.SW(rv32.A1, rv32.X0, 16)
		a.XORI(rv32.A2, rv32.A1, 0x7F) // 0x2A
		a.SW(rv32.A2, rv32.X0, 20)
		a.Halt()
	})
	memWord(t, sim, 0, 0x12345678)
	memWord(t, sim, 1, 0xFFFFFFFF)
	memWord(t, sim, 2, 0)
	memWord(t, sim, 3, 0x78)
	memWord(t, sim, 4, 0x55)
	memWord(t, sim, 5, 0x2A)
}

func TestShifts(t *testing.T) {
	sim := run(t, func(a *rv32.Asm) {
		a.LI(rv32.T0, 1)
		a.SLLI(rv32.T1, rv32.T0, 5) // 32
		a.SW(rv32.T1, rv32.X0, 0)
		a.LI(rv32.T2, -64)
		a.SRAI(rv32.A0, rv32.T2, 3) // -8
		a.SW(rv32.A0, rv32.X0, 4)
		a.SRLI(rv32.A1, rv32.T2, 28) // 0xF
		a.SW(rv32.A1, rv32.X0, 8)
		a.LI(rv32.A2, 2)
		a.SLL(rv32.A3, rv32.T1, rv32.A2) // 128
		a.SW(rv32.A3, rv32.X0, 12)
		a.SRL(rv32.A4, rv32.T1, rv32.A2) // 8
		a.SW(rv32.A4, rv32.X0, 16)
		a.SRA(rv32.A5, rv32.T2, rv32.A2) // -16
		a.SW(rv32.A5, rv32.X0, 20)
		a.Halt()
	})
	memWord(t, sim, 0, 32)
	memWord(t, sim, 1, 0xFFFFFFF8)
	memWord(t, sim, 2, 0xF)
	memWord(t, sim, 3, 128)
	memWord(t, sim, 4, 8)
	memWord(t, sim, 5, 0xFFFFFFF0)
}

func TestComparisons(t *testing.T) {
	sim := run(t, func(a *rv32.Asm) {
		a.LI(rv32.T0, -5)
		a.LI(rv32.T1, 3)
		a.SLT(rv32.A0, rv32.T0, rv32.T1)  // 1 (signed)
		a.SLTU(rv32.A1, rv32.T0, rv32.T1) // 0 (unsigned: big)
		a.SLTI(rv32.A2, rv32.T1, 10)      // 1
		a.SLTIU(rv32.A3, rv32.T1, 2)      // 0
		a.SW(rv32.A0, rv32.X0, 0)
		a.SW(rv32.A1, rv32.X0, 4)
		a.SW(rv32.A2, rv32.X0, 8)
		a.SW(rv32.A3, rv32.X0, 12)
		a.Halt()
	})
	memWord(t, sim, 0, 1)
	memWord(t, sim, 1, 0)
	memWord(t, sim, 2, 1)
	memWord(t, sim, 3, 0)
}

func TestLoadStoreRoundTrip(t *testing.T) {
	sim := run(t, func(a *rv32.Asm) {
		a.LI(rv32.T0, 0xDEAD)
		a.LI(rv32.T1, 32) // base byte address
		a.SW(rv32.T0, rv32.T1, 4)
		a.LW(rv32.T2, rv32.T1, 4)
		a.ADDI(rv32.T2, rv32.T2, 1)
		a.SW(rv32.T2, rv32.X0, 0)
		a.Halt()
	})
	memWord(t, sim, 0, 0xDEAE)
	memWord(t, sim, 9, 0xDEAD)
}

func TestBranchLoop(t *testing.T) {
	// Sum 1..10 with a countdown loop.
	sim := run(t, func(a *rv32.Asm) {
		a.LI(rv32.T0, 10)
		a.LI(rv32.T1, 0)
		a.Label("loop")
		a.ADD(rv32.T1, rv32.T1, rv32.T0)
		a.ADDI(rv32.T0, rv32.T0, -1)
		a.BNE(rv32.T0, rv32.X0, "loop")
		a.SW(rv32.T1, rv32.X0, 0)
		a.Halt()
	})
	memWord(t, sim, 0, 55)
}

func TestBranchVariants(t *testing.T) {
	sim := run(t, func(a *rv32.Asm) {
		a.LI(rv32.T0, -1)
		a.LI(rv32.T1, 1)
		a.LI(rv32.A0, 0)

		a.BLT(rv32.T0, rv32.T1, "blt_ok") // taken (signed)
		a.Halt()
		a.Label("blt_ok")
		a.ORI(rv32.A0, rv32.A0, 1)

		a.BLTU(rv32.T1, rv32.T0, "bltu_ok") // taken (unsigned: 1 < 0xFFFF_FFFF)
		a.Halt()
		a.Label("bltu_ok")
		a.ORI(rv32.A0, rv32.A0, 2)

		a.BGE(rv32.T1, rv32.T0, "bge_ok") // taken
		a.Halt()
		a.Label("bge_ok")
		a.ORI(rv32.A0, rv32.A0, 4)

		a.BGEU(rv32.T0, rv32.T1, "bgeu_ok") // taken
		a.Halt()
		a.Label("bgeu_ok")
		a.ORI(rv32.A0, rv32.A0, 8)

		a.BEQ(rv32.T0, rv32.T1, "wrong") // not taken
		a.ORI(rv32.A0, rv32.A0, 16)
		a.Label("wrong")
		a.SW(rv32.A0, rv32.X0, 0)
		a.Halt()
	})
	memWord(t, sim, 0, 31)
}

func TestJALAndJALR(t *testing.T) {
	sim := run(t, func(a *rv32.Asm) {
		a.LI(rv32.A0, 5)
		a.JAL(rv32.RA, "double") // call
		a.SW(rv32.A0, rv32.X0, 0)
		a.Halt()
		a.Label("double")
		a.ADD(rv32.A0, rv32.A0, rv32.A0)
		a.JALR(rv32.X0, rv32.RA, 0) // return
	})
	memWord(t, sim, 0, 10)
}

func TestGateCountPlausible(t *testing.T) {
	a := rv32.NewAsm()
	a.Halt()
	p, err := Build(a.MustAssemble())
	if err != nil {
		t.Fatal(err)
	}
	st := p.Design.Stats()
	// The paper's dr5 netlist has 7578 gates; ours must be the same order
	// of magnitude for the Table 2/3 comparisons to be meaningful.
	if st.Gates < 2000 || st.Gates > 30000 {
		t.Errorf("dr5 gate count %d implausible (%s)", st.Gates, st)
	}
	if st.Sequential < 512 {
		t.Errorf("register file missing? only %d DFFs", st.Sequential)
	}
	t.Logf("dr5: %s", st)
}

func TestMonitorSpecNets(t *testing.T) {
	a := rv32.NewAsm()
	a.Halt()
	p, err := Build(a.MustAssemble())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Monitor.Watch) != WatchBits {
		t.Errorf("watch width %d, want %d", len(p.Monitor.Watch), WatchBits)
	}
	if len(p.Spec.PC) != PCBits {
		t.Errorf("PC width %d, want %d", len(p.Spec.PC), PCBits)
	}
}
