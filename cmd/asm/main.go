// Command asm assembles textual assembly for any of the three evaluation
// ISAs, prints a disassembly listing, and can execute the program on the
// matching gate-level core.
//
// Usage:
//
//	asm -isa rv32e prog.s                 # listing to stdout
//	asm -isa msp430 -run prog.s           # assemble + run on openMSP430
//	asm -isa mips32 -run -dump 8 prog.s   # ... and print dmem[0..7]
package main

import (
	"flag"
	"fmt"
	"os"

	"symsim/internal/core"
	"symsim/internal/cpu/bm32"
	"symsim/internal/cpu/cputest"
	"symsim/internal/cpu/dr5"
	"symsim/internal/cpu/omsp430"
	"symsim/internal/isa"
	"symsim/internal/isa/asmtext"
	"symsim/internal/isa/mips"
	"symsim/internal/isa/msp430"
	"symsim/internal/isa/rv32"
	"symsim/internal/vvp"
)

func main() {
	var (
		isaName = flag.String("isa", "rv32e", "target ISA: rv32e | mips32 | msp430")
		run     = flag.Bool("run", false, "execute on the matching gate-level core")
		dump    = flag.Int("dump", 4, "data-memory words to print after -run")
		cycles  = flag.Uint64("cycles", 1<<20, "cycle budget for -run")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: asm -isa <isa> [-run] file.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	img, err := asmtext.Assemble(*isaName, string(src))
	if err != nil {
		fatal(err)
	}
	listing(*isaName, img)

	if !*run {
		return
	}
	var p *core.Platform
	switch *isaName {
	case "rv32e", "rv32", "riscv":
		p, err = dr5.Build(img)
	case "mips32", "mips":
		p, err = bm32.Build(img)
	case "msp430":
		p, err = omsp430.Build(img)
	}
	if err != nil {
		fatal(err)
	}
	var ran uint64
	sim, err := p.RunConcrete(vvp.Options{}, nil, *cycles, func(*vvp.Simulator) { ran++ })
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nhalted after %d cycles from reset release on %s\n", ran, p.Name)
	for i := 0; i < *dump; i++ {
		v, err := cputest.MemWord(sim, "dmem", i)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("dmem[%2d] = %s\n", i, v)
	}
}

// listing prints address, encoding and disassembly for each program word.
func listing(isaName string, img *isa.Image) {
	switch isaName {
	case "msp430":
		for i := 0; i < len(img.ROM); {
			w, _ := img.ROM[i].Uint64()
			var ext uint64
			if i+1 < len(img.ROM) {
				ext, _ = img.ROM[i+1].Uint64()
			}
			text, width := msp430.Disasm(uint16(w), uint16(ext))
			if width == 2 {
				fmt.Printf("%04x: %04x %04x  %s\n", i*2, w, ext, text)
			} else {
				fmt.Printf("%04x: %04x       %s\n", i*2, w, text)
			}
			i += width
		}
	case "mips32", "mips":
		for i, wv := range img.ROM {
			w, _ := wv.Uint64()
			fmt.Printf("%04x: %08x  %s\n", i*4, w, mips.Disasm(uint32(w)))
		}
	default:
		for i, wv := range img.ROM {
			w, _ := wv.Uint64()
			fmt.Printf("%04x: %08x  %s\n", i*4, w, rv32.Disasm(uint32(w)))
		}
	}
	if len(img.XWords) > 0 {
		fmt.Printf("input words (X): %v\n", img.XWords)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asm:", err)
	os.Exit(1)
}
