package iss_test

import (
	"fmt"
	"math/rand"
	"testing"

	"symsim/internal/core"
	"symsim/internal/cpu/bm32"
	"symsim/internal/cpu/cputest"
	"symsim/internal/cpu/dr5"
	"symsim/internal/cpu/omsp430"
	"symsim/internal/isa"
	"symsim/internal/isa/mips"
	"symsim/internal/isa/msp430"
	"symsim/internal/isa/rv32"
	"symsim/internal/iss"
	"symsim/internal/vvp"
)

// Co-simulation: random but always-terminating programs run on both the
// instruction-set simulator (golden model) and the gate-level core; the
// final architectural state must match exactly. This is the reference-
// model verification of the three processors underlying every result in
// the repository.

const (
	cosimSeeds  = 12
	cosimOps    = 60
	cosimCycles = 100000
)

// --- RV32E ---

func genRV32(r *rand.Rand) *isa.Image {
	a := rv32.NewAsm()
	regs := []int{rv32.T0, rv32.T1, rv32.T2, rv32.S0, rv32.S1, rv32.A0, rv32.A1, rv32.A2, rv32.A3}
	pick := func() int { return regs[r.Intn(len(regs))] }
	// Seed registers with known values.
	for _, reg := range regs {
		a.LI(reg, int32(r.Uint32()))
	}
	label := 0
	for i := 0; i < cosimOps; i++ {
		switch r.Intn(12) {
		case 0:
			a.ADD(pick(), pick(), pick())
		case 1:
			a.SUB(pick(), pick(), pick())
		case 2:
			a.XOR(pick(), pick(), pick())
		case 3:
			a.AND(pick(), pick(), pick())
		case 4:
			a.OR(pick(), pick(), pick())
		case 5:
			a.SLT(pick(), pick(), pick())
		case 6:
			a.SLTU(pick(), pick(), pick())
		case 7:
			a.SLLI(pick(), pick(), r.Intn(32))
		case 8:
			a.SRAI(pick(), pick(), r.Intn(32))
		case 9:
			a.ADDI(pick(), pick(), int32(r.Intn(4096)-2048))
		case 10:
			// Store then load through a random slot.
			slot := int32(r.Intn(32)) * 4
			a.SW(pick(), rv32.X0, slot)
			a.LW(pick(), rv32.X0, slot)
		case 11:
			// Forward branch over one instruction.
			lbl := fmt.Sprintf("L%d", label)
			label++
			if r.Intn(2) == 0 {
				a.BEQ(pick(), pick(), lbl)
			} else {
				a.BLTU(pick(), pick(), lbl)
			}
			a.ADDI(pick(), pick(), 1)
			a.Label(lbl)
		}
	}
	// Bounded loop to exercise backward branches.
	a.LI(rv32.A4, int32(2+r.Intn(5)))
	a.Label("loop")
	a.ADD(rv32.A5, rv32.A5, rv32.A4)
	a.ADDI(rv32.A4, rv32.A4, -1)
	a.BNE(rv32.A4, rv32.X0, "loop")
	// Dump every register to memory for comparison.
	for i, reg := range regs {
		a.SW(reg, rv32.X0, int32(64+i*4))
	}
	a.SW(rv32.A5, rv32.X0, 60)
	a.Halt()
	return a.MustAssemble()
}

func TestCosimRV32(t *testing.T) {
	for seed := int64(0); seed < cosimSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			img := genRV32(rand.New(rand.NewSource(seed)))
			model := iss.NewRV32(img)
			if err := iss.Run(model, 100000); err != nil {
				t.Fatalf("iss: %v", err)
			}
			p, err := dr5.Build(img)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := p.RunConcrete(vvp.Options{}, nil, cosimCycles, nil)
			if err != nil {
				t.Fatal(err)
			}
			compareMem(t, sim, model.State(), 0xFFFFFFFF)
			comparePC(t, p, sim, model.State())
		})
	}
}

// --- MIPS32 ---

func genMIPS(r *rand.Rand) *isa.Image {
	a := mips.NewAsm()
	regs := []int{mips.T0, mips.T1, mips.T2, mips.T3, mips.S0, mips.S1, mips.A0, mips.A1}
	pick := func() int { return regs[r.Intn(len(regs))] }
	for _, reg := range regs {
		a.LI(reg, int32(r.Uint32()))
	}
	label := 0
	for i := 0; i < cosimOps; i++ {
		switch r.Intn(13) {
		case 0:
			a.ADDU(pick(), pick(), pick())
		case 1:
			a.SUBU(pick(), pick(), pick())
		case 2:
			a.XOR(pick(), pick(), pick())
		case 3:
			a.NOR(pick(), pick(), pick())
		case 4:
			a.SLT(pick(), pick(), pick())
		case 5:
			a.SLTU(pick(), pick(), pick())
		case 6:
			a.SLL(pick(), pick(), r.Intn(32))
		case 7:
			a.SRAV(pick(), pick(), pick())
		case 8:
			a.ADDIU(pick(), pick(), int32(r.Intn(65536)-32768))
		case 9:
			a.ANDI(pick(), pick(), int32(r.Intn(65536)))
		case 10:
			slot := int32(r.Intn(32)) * 4
			a.SW(pick(), mips.ZERO, slot)
			a.LW(pick(), mips.ZERO, slot)
		case 11:
			lbl := fmt.Sprintf("L%d", label)
			label++
			if r.Intn(2) == 0 {
				a.BEQ(pick(), pick(), lbl)
			} else {
				a.BNE(pick(), pick(), lbl)
			}
			a.ADDIU(pick(), pick(), 1)
			a.Label(lbl)
		case 12:
			a.MULTU(pick(), pick())
			a.MFLO(pick())
			a.MFHI(pick())
		}
	}
	a.LI(mips.S2, int32(2+r.Intn(5)))
	a.Label("loop")
	a.ADDU(mips.S3, mips.S3, mips.S2)
	a.ADDIU(mips.S2, mips.S2, -1)
	a.BNE(mips.S2, mips.ZERO, "loop")
	for i, reg := range regs {
		a.SW(reg, mips.ZERO, int32(64+i*4))
	}
	a.SW(mips.S3, mips.ZERO, 60)
	a.Halt()
	return a.MustAssemble()
}

func TestCosimMIPS(t *testing.T) {
	for seed := int64(0); seed < cosimSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			img := genMIPS(rand.New(rand.NewSource(seed)))
			model := iss.NewMIPS(img)
			if err := iss.Run(model, 100000); err != nil {
				t.Fatalf("iss: %v", err)
			}
			p, err := bm32.Build(img)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := p.RunConcrete(vvp.Options{}, nil, cosimCycles, nil)
			if err != nil {
				t.Fatal(err)
			}
			compareMem(t, sim, model.State(), 0xFFFFFFFF)
			comparePC(t, p, sim, model.State())
		})
	}
}

// --- MSP430 ---

func genMSP430(r *rand.Rand) *isa.Image {
	a := msp430.NewAsm()
	regs := []int{msp430.R4, msp430.R5, msp430.R6, msp430.R7, msp430.R8, msp430.R9, msp430.R10}
	pick := func() int { return regs[r.Intn(len(regs))] }
	for _, reg := range regs {
		a.MOVI(int32(r.Intn(1<<16)), reg)
	}
	label := 0
	for i := 0; i < cosimOps; i++ {
		switch r.Intn(13) {
		case 0:
			a.ADD(pick(), pick())
		case 1:
			a.SUB(pick(), pick())
		case 2:
			a.XOR(pick(), pick())
		case 3:
			a.AND(pick(), pick())
		case 4:
			a.BIS(pick(), pick())
		case 5:
			a.BIC(pick(), pick())
		case 6:
			a.ADDC(pick(), pick())
		case 7:
			a.RRA(pick())
		case 8:
			a.RRC(pick())
		case 9:
			a.SWPB(pick())
		case 10:
			slot := msp430.DataAddr(r.Intn(32))
			a.StoreAbs(pick(), slot)
			a.LoadAbs(slot, pick())
		case 11:
			lbl := fmt.Sprintf("L%d", label)
			label++
			a.CMP(pick(), pick())
			switch r.Intn(4) {
			case 0:
				a.JEQ(lbl)
			case 1:
				a.JNE(lbl)
			case 2:
				a.JC(lbl)
			case 3:
				a.JGE(lbl)
			}
			a.ADDI(1, pick())
			a.Label(lbl)
		case 12:
			a.StoreAbs(pick(), msp430.AddrMPY)
			a.StoreAbs(pick(), msp430.AddrOP2)
			a.LoadAbs(msp430.AddrRESLO, pick())
			a.LoadAbs(msp430.AddrRESHI, pick())
		}
	}
	a.MOVI(int32(2+r.Intn(5)), msp430.R11)
	a.Label("loop")
	a.ADD(msp430.R11, msp430.R12)
	a.SUBI(1, msp430.R11)
	a.JNE("loop")
	for i, reg := range regs {
		a.StoreAbs(reg, msp430.DataAddr(32+i))
	}
	a.StoreAbs(msp430.R12, msp430.DataAddr(30))
	a.Halt()
	return a.MustAssemble()
}

func TestCosimMSP430(t *testing.T) {
	for seed := int64(0); seed < cosimSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			img := genMSP430(rand.New(rand.NewSource(seed)))
			model := iss.NewMSP430(img)
			if err := iss.Run(model, 100000); err != nil {
				t.Fatalf("iss: %v", err)
			}
			p, err := omsp430.Build(img)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := p.RunConcrete(vvp.Options{}, nil, cosimCycles, nil)
			if err != nil {
				t.Fatal(err)
			}
			compareMem(t, sim, model.State(), 0xFFFF)
			comparePC(t, p, sim, model.State())
		})
	}
}

// compareMem checks every known gate-level data-memory word against the
// golden model, plus every architectural register via the register-file
// flip-flop outputs. Gate-level words that were never written remain X and
// are skipped (the golden model defaults them to zero).
func compareMem(t *testing.T, sim *vvp.Simulator, st *iss.State, mask uint64) {
	t.Helper()
	mid, ok := sim.Design().MemByName("dmem")
	if !ok {
		t.Fatal("no dmem")
	}
	for w := 0; w < len(st.Mem); w++ {
		v := sim.MemWord(mid, w)
		u, known := v.Uint64()
		if !known {
			continue
		}
		if u != uint64(st.Mem[w])&mask {
			t.Errorf("dmem[%d]: gate %#x, iss %#x", w, u, uint64(st.Mem[w])&mask)
		}
	}
	for rIdx := range st.Regs {
		bus, err := cputest.BusValue(sim, fmt.Sprintf("rf_r%d", rIdx))
		if err != nil {
			t.Fatalf("register %d: %v", rIdx, err)
		}
		u, known := bus.Uint64()
		if !known {
			continue
		}
		if u != uint64(st.Regs[rIdx])&mask {
			t.Errorf("r%d: gate %#x, iss %#x", rIdx, u, uint64(st.Regs[rIdx])&mask)
		}
	}
}

// comparePC checks the final program counter.
func comparePC(t *testing.T, p *core.Platform, sim *vvp.Simulator, st *iss.State) {
	t.Helper()
	pc, ok := sim.VecValue(p.Spec.PC).Uint64()
	if !ok {
		t.Fatal("gate-level PC unknown at halt")
	}
	if pc != uint64(st.PC) {
		t.Errorf("pc: gate %#x, iss %#x", pc, st.PC)
	}
}
