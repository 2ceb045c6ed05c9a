package msp430

import (
	"strings"
	"testing"
)

func words(t *testing.T, build func(a *Asm)) []uint16 {
	t.Helper()
	a := NewAsm()
	build(a)
	img, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint16, len(img.ROM))
	for i, w := range img.ROM {
		v, _ := w.Uint64()
		out[i] = uint16(v)
	}
	return out
}

func TestGoldenFormatIEncodings(t *testing.T) {
	// Cross-checked against the MSP430 instruction encoding tables.
	cases := []struct {
		build func(a *Asm)
		want  uint16
	}{
		{func(a *Asm) { a.MOV(R4, R5) }, 0x4405}, // MOV R4, R5
		{func(a *Asm) { a.ADD(R4, R5) }, 0x5405}, // ADD R4, R5
		{func(a *Asm) { a.SUB(R4, R5) }, 0x8405}, // SUB R4, R5
		{func(a *Asm) { a.CMP(R4, R5) }, 0x9405}, // CMP R4, R5
		{func(a *Asm) { a.XOR(R4, R5) }, 0xE405}, // XOR R4, R5
		{func(a *Asm) { a.AND(R4, R5) }, 0xF405}, // AND R4, R5
		{func(a *Asm) { a.BIS(R4, R5) }, 0xD405}, // BIS R4, R5
		{func(a *Asm) { a.BIC(R4, R5) }, 0xC405}, // BIC R4, R5
	}
	for i, c := range cases {
		got := words(t, c.build)
		if got[0] != c.want {
			t.Errorf("case %d: %#04x, want %#04x", i, got[0], c.want)
		}
	}
}

func TestImmediateModeUsesPCAutoincrement(t *testing.T) {
	got := words(t, func(a *Asm) { a.MOVI(0x1234, R5) })
	// MOV #imm, R5: opcode 4, src=R0, As=11 -> 0x4035; extension word.
	if got[0] != 0x4035 {
		t.Errorf("MOVI word 0 = %#04x, want 0x4035", got[0])
	}
	if got[1] != 0x1234 {
		t.Errorf("extension word = %#04x", got[1])
	}
	got = words(t, func(a *Asm) { a.ADDI(-3, R6) })
	// ADD #-3, R6: opcode 5 -> 0x5036; the extension word is two's complement.
	if got[0] != 0x5036 || got[1] != 0xFFFD {
		t.Errorf("ADDI = %#04x %#04x, want 0x5036 0xfffd", got[0], got[1])
	}
}

func TestIndexedModes(t *testing.T) {
	got := words(t, func(a *Asm) { a.MOVM(6, R4, R5) })
	// MOV 6(R4), R5: As=01 -> 0x4415 + ext 6.
	if got[0] != 0x4415 || got[1] != 6 {
		t.Errorf("MOVM = %#04x %#04x", got[0], got[1])
	}
	got = words(t, func(a *Asm) { a.MOVRM(R5, 6, R4) })
	// MOV R5, 6(R4): Ad=1 -> 0x4584 + ext 6.
	if got[0] != 0x4584 || got[1] != 6 {
		t.Errorf("MOVRM = %#04x %#04x", got[0], got[1])
	}
}

func TestFormatIIEncodings(t *testing.T) {
	cases := []struct {
		build func(a *Asm)
		want  uint16
	}{
		{func(a *Asm) { a.RRC(R4) }, 0x1004},
		{func(a *Asm) { a.SWPB(R4) }, 0x1084},
		{func(a *Asm) { a.RRA(R4) }, 0x1104},
		{func(a *Asm) { a.SXT(R4) }, 0x1184},
	}
	for i, c := range cases {
		if got := words(t, c.build); got[0] != c.want {
			t.Errorf("case %d: %#04x, want %#04x", i, got[0], c.want)
		}
	}
}

func TestJumpEncodings(t *testing.T) {
	// JMP $ (self) has offset -1: 0x3FFF.
	got := words(t, func(a *Asm) { a.Halt() })
	if got[0] != 0x3FFF {
		t.Errorf("halt = %#04x, want 0x3FFF", got[0])
	}
	// Backward JNE over one word: offset -2.
	got = words(t, func(a *Asm) {
		a.Label("top")
		a.MOV(R4, R5)
		a.JNE("top")
	})
	if got[1] != 0x23FE {
		t.Errorf("jne top = %#04x, want 0x23FE", got[1])
	}
	// Forward JMP over one word: offset +1.
	got = words(t, func(a *Asm) {
		a.JMP("end")
		a.MOV(R4, R5)
		a.Label("end")
	})
	if got[0] != 0x3C01 {
		t.Errorf("jmp end = %#04x, want 0x3C01", got[0])
	}
	// JEQ to the next word: condition 1, offset 0.
	got = words(t, func(a *Asm) {
		a.JEQ("next")
		a.Label("next")
	})
	if got[0] != 0x2400 {
		t.Errorf("jeq next = %#04x, want 0x2400", got[0])
	}
}

func TestJumpOutOfRange(t *testing.T) {
	a := NewAsm()
	a.JMP("far")
	for i := 0; i < 600; i++ {
		a.MOV(R4, R4)
	}
	a.Label("far")
	if _, err := a.Assemble(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("expected range error, got %v", err)
	}
}

func TestDataAddrHelper(t *testing.T) {
	if DataAddr(0) != 0x0200 || DataAddr(3) != 0x0206 {
		t.Errorf("DataAddr: %#x %#x", DataAddr(0), DataAddr(3))
	}
}

func TestDisableWatchdogSequence(t *testing.T) {
	got := words(t, func(a *Asm) { a.DisableWatchdog() })
	// MOVI #0x80, R15 then MOV R15, WDTCTL(R3).
	if len(got) != 4 {
		t.Fatalf("prologue is %d words", len(got))
	}
	if got[1] != WDTHold {
		t.Errorf("hold immediate = %#04x", got[1])
	}
	if got[3] != AddrWDTCTL {
		t.Errorf("store offset = %#04x", got[3])
	}
}

func TestRegisterRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("r16 accepted")
		}
	}()
	a := NewAsm()
	a.MOV(16, 0)
}
