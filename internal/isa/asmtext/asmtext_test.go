package asmtext_test

import (
	"os"
	"strings"
	"testing"

	"symsim/internal/cpu/bm32"
	"symsim/internal/cpu/cputest"
	"symsim/internal/cpu/dr5"
	"symsim/internal/cpu/omsp430"
	"symsim/internal/isa/asmtext"
	"symsim/internal/vvp"
)

// The acid test: source-level programs assembled by the text front end run
// correctly on the gate-level cores.

func TestRV32SourceProgram(t *testing.T) {
	src := `
; sum 1..10, store at word 0
        li   t0, 10
        li   t1, 0
loop:   add  t1, t1, t0
        addi t0, t0, -1
        bne  t0, zero, loop
        sw   t1, 0(zero)
        # memory round trip with an offset
        li   a0, 0x1234
        sw   a0, 8(zero)
        lw   a1, 8(zero)
        addi a1, a1, 1
        sw   a1, 4(zero)
        halt
`
	img, err := asmtext.Assemble("rv32e", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := dr5.Build(img)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := p.RunConcrete(vvp.Options{}, nil, 100000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := cputest.MemUint(sim, "dmem", 0); v != 55 {
		t.Errorf("sum = %d", v)
	}
	if v, _ := cputest.MemUint(sim, "dmem", 1); v != 0x1235 {
		t.Errorf("round trip = %#x", v)
	}
}

func TestMIPSSourceProgram(t *testing.T) {
	src := `
        li    $t0, 6
        li    $t1, 7
        multu $t0, $t1
        mflo  $t2
        sw    $t2, 0($zero)
        slt   $t3, $t0, $t1
        sw    $t3, 4($zero)
        halt
`
	img, err := asmtext.Assemble("mips32", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := bm32.Build(img)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := p.RunConcrete(vvp.Options{}, nil, 100000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := cputest.MemUint(sim, "dmem", 0); v != 42 {
		t.Errorf("product = %d", v)
	}
	if v, _ := cputest.MemUint(sim, "dmem", 1); v != 1 {
		t.Errorf("slt = %d", v)
	}
}

func TestMSP430SourceProgram(t *testing.T) {
	src := `
        wdtoff
        mov  #21, r4
        add  r4, r4             ; 42
        mov  r4, &0x0200
        mov  #0x0200, r5
        mov  0(r5), r6          ; load back
        add  #1, r6
        mov  r6, &0x0202
        halt
`
	img, err := asmtext.Assemble("msp430", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := omsp430.Build(img)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := p.RunConcrete(vvp.Options{}, nil, 100000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := cputest.MemUint(sim, "dmem", 0); v != 42 {
		t.Errorf("word0 = %d", v)
	}
	if v, _ := cputest.MemUint(sim, "dmem", 1); v != 43 {
		t.Errorf("word1 = %d", v)
	}
}

func TestDirectivesAndSymbolicInput(t *testing.T) {
	src := `
.xword 0
.word  1 0x55
        lw  t0, 0(zero)
        halt
`
	img, err := asmtext.Assemble("rv32e", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.XWords) != 1 || img.XWords[0] != 0 {
		t.Errorf("xwords = %v", img.XWords)
	}
	if v, ok := img.Data[1].Uint64(); !ok || v != 0x55 {
		t.Errorf("data[1] = %v", img.Data[1])
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		isa, src, wantErr string
	}{
		{"rv32e", "frobnicate t0", "unknown mnemonic"},
		{"rv32e", "add t0, t1", "expects 3 operands"},
		{"rv32e", "add q9, t1, t2", "bad register"},
		{"rv32e", "addi t0, t1, banana", "bad immediate"},
		{"rv32e", "lw t0, t1", "bad memory operand"},
		{"mips32", "addu $t0, $t1", "expects 3 operands"},
		{"mips32", "addu $z9, $t1, $t2", "bad register"},
		{"msp430", "mov 2(r4), 4(r5)", "at most one"},
		{"msp430", "bic r4, 2(r5)", "unsupported"},
		{"msp430", "mov rr4, r5", "bad register"},
		{"vax", "nop", "unknown ISA"},
		{"rv32e", ".word 1", "expects 2 operands"},
		{"rv32e", ".frob 1", "unknown directive"},
		{"rv32e", "slli t0, t1, 99", "bad shift amount"},
		{"rv32e", "lui t0, banana", "bad immediate"},
		{"rv32e", "jalr t0, t1", "bad jalr operand"},
		{"rv32e", "sw t0, 4(q7)", "bad register"},
		{"rv32e", "beq t0, q9, lbl", "bad register"},
		{"mips32", "sll $t0, $t1, 44", "bad shift amount"},
		{"mips32", "lw $t0, 4[$sp]", "bad memory operand"},
		{"mips32", "li $t0, nope", "bad immediate"},
		{"mips32", "frob $t0", "unknown mnemonic"},
		{"msp430", "frob r4", "unknown mnemonic"},
		{"msp430", "rra 4(r5), r6", "expects 1 operands"},
		{"msp430", "mov #zzz, r4", "bad immediate"},
		{"msp430", "mov &zzz, r4", "bad absolute"},
		{"msp430", "add 2(rx), r4", "bad register"},
		{"msp430", "subc #1, r4", "immediate source unsupported"},
		{"rv32e", ".word q 1", "bad index"},
		{"rv32e", ".word 1 q", "bad value"},
		{"rv32e", ".xword q", "bad index"},
	}
	for i, c := range cases {
		_, err := asmtext.Assemble(c.isa, c.src)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("case %d (%s): err = %v, want %q", i, c.src, err, c.wantErr)
		}
	}
}

func TestLabelsOnOwnLine(t *testing.T) {
	src := `
top:
        li t0, 1
        beq t0, t0, top2
        halt
top2:   halt
`
	if _, err := asmtext.Assemble("rv32e", src); err != nil {
		t.Fatal(err)
	}
}

// The shipped sample programs in testdata must assemble and compute their
// documented results on the gate-level cores.
func TestSamplePrograms(t *testing.T) {
	run := func(isaName, file string, want uint64) {
		t.Helper()
		src, err := os.ReadFile("testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		img, err := asmtext.Assemble(isaName, string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		var sim *vvp.Simulator
		switch isaName {
		case "rv32e":
			p, err := dr5.Build(img)
			if err != nil {
				t.Fatal(err)
			}
			sim, err = p.RunConcrete(vvp.Options{}, nil, 100000, nil)
			if err != nil {
				t.Fatal(err)
			}
		case "mips32":
			p, err := bm32.Build(img)
			if err != nil {
				t.Fatal(err)
			}
			sim, err = p.RunConcrete(vvp.Options{}, nil, 100000, nil)
			if err != nil {
				t.Fatal(err)
			}
		case "msp430":
			p, err := omsp430.Build(img)
			if err != nil {
				t.Fatal(err)
			}
			sim, err = p.RunConcrete(vvp.Options{}, nil, 100000, nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		got, err := cputest.MemUint(sim, "dmem", 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: result = %d, want %d", file, got, want)
		}
	}
	run("rv32e", "fib.rv32.s", 55)        // fib(10)
	run("mips32", "gcd.mips.s", 12)       // gcd(48, 36)
	run("msp430", "popcount.msp430.s", 6) // popcount(0xB7)
}
