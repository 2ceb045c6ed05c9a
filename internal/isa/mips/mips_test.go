package mips

import (
	"strings"
	"testing"
)

func word(t *testing.T, build func(a *Asm)) uint32 {
	t.Helper()
	a := NewAsm()
	build(a)
	img, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := img.ROM[0].Uint64()
	return uint32(v)
}

func TestGoldenEncodings(t *testing.T) {
	// Cross-checked against the MIPS32 reference encodings.
	cases := []struct {
		build func(a *Asm)
		want  uint32
	}{
		{func(a *Asm) { a.ADDU(T2, T0, T1) }, 0x01095021}, // addu $10,$8,$9
		{func(a *Asm) { a.SUBU(T2, T0, T1) }, 0x01095023},
		{func(a *Asm) { a.AND(T2, T0, T1) }, 0x01095024},
		{func(a *Asm) { a.OR(T2, T0, T1) }, 0x01095025},
		{func(a *Asm) { a.SLT(T2, T0, T1) }, 0x0109502A},
		{func(a *Asm) { a.SLL(T2, T1, 4) }, 0x00095100}, // sll $10,$9,4
		{func(a *Asm) { a.JR(RA) }, 0x03E00008},
		{func(a *Asm) { a.MULTU(T0, T1) }, 0x01090019},
		{func(a *Asm) { a.MFLO(T2) }, 0x00005012},
		{func(a *Asm) { a.MFHI(T2) }, 0x00005010},
		{func(a *Asm) { a.ADDIU(T0, ZERO, 100) }, 0x24080064},
		{func(a *Asm) { a.ORI(T0, ZERO, 0xFFFF) }, 0x3408FFFF},
		{func(a *Asm) { a.LUI(T0, 0x1234) }, 0x3C081234},
		{func(a *Asm) { a.LW(T0, SP, 16) }, 0x8FA80010},
		{func(a *Asm) { a.SW(T0, SP, 16) }, 0xAFA80010},
		{func(a *Asm) { a.ADD(T2, T0, T1) }, 0x01095020},
		{func(a *Asm) { a.SUB(T2, T0, T1) }, 0x01095022},
		{func(a *Asm) { a.XOR(T2, T0, T1) }, 0x01095026},
		{func(a *Asm) { a.NOR(T2, T0, T1) }, 0x01095027},
		{func(a *Asm) { a.SLTU(T2, T0, T1) }, 0x0109502B},
		{func(a *Asm) { a.SRL(T2, T1, 4) }, 0x00095102},
		{func(a *Asm) { a.SRA(T2, T1, 4) }, 0x00095103},
		{func(a *Asm) { a.SLLV(T2, T1, T0) }, 0x01095004}, // sllv $10,$9,$8
		{func(a *Asm) { a.SRLV(T2, T1, T0) }, 0x01095006},
		{func(a *Asm) { a.SRAV(T2, T1, T0) }, 0x01095007},
		{func(a *Asm) { a.MULT(T0, T1) }, 0x01090018},
		{func(a *Asm) { a.ADDI(T0, ZERO, -5) }, 0x2008FFFB},
		{func(a *Asm) { a.SLTI(T0, T1, -5) }, 0x2928FFFB},
		{func(a *Asm) { a.SLTIU(T0, T1, 100) }, 0x2D280064},
		{func(a *Asm) { a.XORI(T0, T1, 0xFFFF) }, 0x3928FFFF},
		// Control transfers to a label two words on: branch offset +1,
		// jump target word 2.
		{func(a *Asm) { a.BEQ(T0, T1, "l"); a.NOP(); a.Label("l") }, 0x11090001},
		{func(a *Asm) { a.BNE(T0, T1, "l"); a.NOP(); a.Label("l") }, 0x15090001},
		{func(a *Asm) { a.J("l"); a.NOP(); a.Label("l") }, 0x08000002},
		{func(a *Asm) { a.JAL("l"); a.NOP(); a.Label("l") }, 0x0C000002},
	}
	for i, c := range cases {
		if got := word(t, c.build); got != c.want {
			t.Errorf("case %d: %#08x, want %#08x", i, got, c.want)
		}
	}
}

func TestBranchOffsets(t *testing.T) {
	// Backward branch: offset counted from the delay-slot-free PC+4.
	a := NewAsm()
	a.Label("top")
	a.NOP()
	a.BNE(T0, ZERO, "top")
	img := a.MustAssemble()
	w, _ := img.ROM[1].Uint64()
	if off := int16(w & 0xFFFF); off != -2 {
		t.Errorf("backward offset = %d, want -2", off)
	}
	// Forward branch.
	b := NewAsm()
	b.BEQ(T0, T1, "fwd")
	b.NOP()
	b.NOP()
	b.Label("fwd")
	img = b.MustAssemble()
	w, _ = img.ROM[0].Uint64()
	if off := int16(w & 0xFFFF); off != 2 {
		t.Errorf("forward offset = %d, want 2", off)
	}
}

func TestJumpTargetEncoding(t *testing.T) {
	a := NewAsm()
	a.NOP()
	a.J("dst")
	a.NOP()
	a.Label("dst")
	img := a.MustAssemble()
	w, _ := img.ROM[1].Uint64()
	if tgt := uint32(w) & 0x03FFFFFF; tgt != 12/4 {
		t.Errorf("jump target field = %d, want 3", tgt)
	}
	if op := uint32(w) >> 26; op != 0x02 {
		t.Errorf("opcode = %#x", op)
	}
}

func TestLIStrategies(t *testing.T) {
	// Small positive: one ADDIU.
	a := NewAsm()
	a.LI(T0, 42)
	if len(a.MustAssemble().ROM) != 1 {
		t.Error("small LI should be one instruction")
	}
	// Upper-only: one LUI.
	b := NewAsm()
	b.LI(T0, 0x12340000)
	if len(b.MustAssemble().ROM) != 1 {
		t.Error("upper LI should be one instruction")
	}
	// Full 32-bit: LUI+ORI.
	c := NewAsm()
	c.LI(T0, 0x12345678)
	if len(c.MustAssemble().ROM) != 2 {
		t.Error("full LI should be two instructions")
	}
}

func TestAssemblerErrors(t *testing.T) {
	a := NewAsm()
	a.J("nowhere")
	if _, err := a.Assemble(); err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Errorf("undefined label: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("register 32 accepted")
		}
	}()
	b := NewAsm()
	b.ADDU(32, 0, 0)
}

func TestDataSegmentHelpers(t *testing.T) {
	a := NewAsm()
	a.Word(3, 0xDEADBEEF)
	a.XWord(7)
	a.NOP()
	img := a.MustAssemble()
	v, ok := img.Data[3].Uint64()
	if !ok || v != 0xDEADBEEF {
		t.Errorf("data word = %#x", v)
	}
	if len(img.XWords) != 1 || img.XWords[0] != 7 {
		t.Errorf("xwords = %v", img.XWords)
	}
}
