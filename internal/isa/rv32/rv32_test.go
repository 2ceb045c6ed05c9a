package rv32

import (
	"strings"
	"testing"
)

func TestEncodings(t *testing.T) {
	// Golden encodings cross-checked against the RISC-V spec examples.
	cases := []struct {
		emit func(a *Asm)
		want uint32
	}{
		{func(a *Asm) { a.ADDI(A0, X0, 42) }, 0x02A00513},
		{func(a *Asm) { a.ADD(A0, A1, A2) }, 0x00C58533},
		{func(a *Asm) { a.SUB(A0, A1, A2) }, 0x40C58533},
		{func(a *Asm) { a.LUI(T0, 0xDEAD000) }, 0x0DEAD2B7},
		{func(a *Asm) { a.LW(A0, SP, 8) }, 0x00812503},
		{func(a *Asm) { a.SW(A0, SP, 8) }, 0x00A12423},
		{func(a *Asm) { a.SLLI(T1, T1, 3) }, 0x00331313},
		{func(a *Asm) { a.SRAI(T1, T1, 3) }, 0x40335313},
		{func(a *Asm) { a.JALR(X0, RA, 0) }, 0x00008067},
		{func(a *Asm) { a.SLTI(A0, A1, -3) }, 0xFFD5A513},
		{func(a *Asm) { a.SLTIU(A0, A1, 7) }, 0x0075B513},
		{func(a *Asm) { a.XORI(A0, A1, -1) }, 0xFFF5C513},
		{func(a *Asm) { a.ORI(A0, A1, 0x0F0) }, 0x0F05E513},
		{func(a *Asm) { a.ANDI(A0, A1, 0xFF) }, 0x0FF5F513},
		{func(a *Asm) { a.SRLI(T1, T1, 3) }, 0x00335313},
		{func(a *Asm) { a.SLL(A0, A1, A2) }, 0x00C59533},
		{func(a *Asm) { a.SLT(A0, A1, A2) }, 0x00C5A533},
		{func(a *Asm) { a.SLTU(A0, A1, A2) }, 0x00C5B533},
		{func(a *Asm) { a.XOR(A0, A1, A2) }, 0x00C5C533},
		{func(a *Asm) { a.SRL(A0, A1, A2) }, 0x00C5D533},
		{func(a *Asm) { a.SRA(A0, A1, A2) }, 0x40C5D533},
		{func(a *Asm) { a.OR(A0, A1, A2) }, 0x00C5E533},
		{func(a *Asm) { a.AND(A0, A1, A2) }, 0x00C5F533},
		// Branches to a label two words on: offset +8.
		{func(a *Asm) { a.BLT(T0, T1, "x"); a.NOP(); a.Label("x") }, 0x0062C463},
		{func(a *Asm) { a.BGE(T0, T1, "x"); a.NOP(); a.Label("x") }, 0x0062D463},
		{func(a *Asm) { a.BLTU(T0, T1, "x"); a.NOP(); a.Label("x") }, 0x0062E463},
		{func(a *Asm) { a.BGEU(T0, T1, "x"); a.NOP(); a.Label("x") }, 0x0062F463},
	}
	for i, c := range cases {
		a := NewAsm()
		c.emit(a)
		img := a.MustAssemble()
		got, _ := img.ROM[0].Uint64()
		if uint32(got) != c.want {
			t.Errorf("case %d: encoded %#08x, want %#08x", i, got, c.want)
		}
	}
}

func TestBranchOffsetEncoding(t *testing.T) {
	a := NewAsm()
	a.Label("top")
	a.NOP()
	a.BNE(T0, X0, "top") // offset -4
	img := a.MustAssemble()
	w, _ := img.ROM[1].Uint64()
	if w != 0xFE029EE3 { // bne x5, x0, -4
		t.Errorf("backward bne = %#08x, want 0xfe029ee3", w)
	}
	// Forward branch.
	b := NewAsm()
	b.BEQ(T0, T1, "fwd")
	b.NOP()
	b.Label("fwd")
	img = b.MustAssemble()
	w, _ = img.ROM[0].Uint64()
	if w != 0x00628463 { // beq x5, x6, 8
		t.Errorf("forward beq = %#08x, want 0x00628463", w)
	}
}

func TestJALOffsetEncoding(t *testing.T) {
	a := NewAsm()
	a.NOP()
	a.NOP()
	a.Label("fn")
	a.NOP()
	b := NewAsm()
	b.JAL(RA, "fn")
	b.NOP()
	b.Label("fn")
	img := b.MustAssemble()
	w, _ := img.ROM[0].Uint64()
	if w != 0x008000EF { // jal x1, 8
		t.Errorf("jal = %#08x, want 0x008000ef", w)
	}
}

func TestLICoversFullRange(t *testing.T) {
	for _, v := range []int32{0, 1, -1, 2047, -2048, 2048, -2049, 0x12345678, -0x12345678, 0x7FFFFFFF, -0x80000000} {
		a := NewAsm()
		a.LI(T0, v)
		if _, err := a.Assemble(); err != nil {
			t.Errorf("LI(%d): %v", v, err)
		}
	}
}

func TestAssemblerErrors(t *testing.T) {
	a := NewAsm()
	a.BNE(T0, X0, "nowhere")
	if _, err := a.Assemble(); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Errorf("undefined label: %v", err)
	}
	b := NewAsm()
	b.Label("dup")
	b.Label("dup")
	b.NOP()
	if _, err := b.Assemble(); err == nil {
		t.Error("duplicate label accepted")
	}
	c := NewAsm()
	c.ADDI(T0, X0, 5000) // out of 12-bit range
	if _, err := c.Assemble(); err == nil {
		t.Error("oversized immediate accepted")
	}
}

func TestRegisterRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("x16 accepted in RV32E")
		}
	}()
	a := NewAsm()
	a.ADD(16, 0, 0)
}

func TestHaltIsSelfJump(t *testing.T) {
	a := NewAsm()
	a.NOP()
	a.Halt()
	img := a.MustAssemble()
	w, _ := img.ROM[1].Uint64()
	if w != 0x0000006F { // jal x0, 0
		t.Errorf("halt = %#08x, want 0x0000006f", w)
	}
}
