// Command bespoke runs the full bespoke-processor flow for one
// benchmark/design pair: symbolic co-analysis, pruning and re-synthesis,
// and — optionally — the paper's §5.0.1 validation against a concrete
// input vector.
//
// Usage:
//
//	bespoke -design omsp430 -bench tHold
//	bespoke -design bm32 -bench Div -validate -inputs 1000,7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"symsim/internal/bespoke"
	"symsim/internal/core"
	"symsim/internal/logic"
	"symsim/internal/power"
	"symsim/internal/prog"
	"symsim/internal/report"
	"symsim/internal/vvp"
)

func main() {
	var (
		design   = flag.String("design", "omsp430", "processor: bm32 | omsp430 | dr5")
		bench    = flag.String("bench", "tHold", "benchmark name")
		validate = flag.Bool("validate", false, "run the fixed-input equivalence validation")
		inputs   = flag.String("inputs", "", "comma-separated input words for -validate/-power/-vcd, one per X word of the benchmark, in order")
		outJSON  = flag.String("o", "", "write the bespoke netlist as interchange JSON to this file")
		outVlog  = flag.String("verilog", "", "write the bespoke netlist as structural Verilog to this file")
		powerRep = flag.Bool("power", false, "measure switching activity of the concrete run (needs -inputs)")
		vcdOut   = flag.String("vcd", "", "dump the concrete run's waveform (needs -inputs)")
	)
	flag.Parse()
	if (*powerRep || *vcdOut != "") && *inputs == "" {
		fmt.Fprintln(os.Stderr, "bespoke: -power and -vcd need -inputs")
		flag.Usage()
		os.Exit(2)
	}

	p, err := report.BuildPlatform(report.Design(*design), *bench)
	if err != nil {
		fatal(err)
	}
	// Pin the benchmark's input words before the analysis, so a malformed
	// -inputs fails at once: rebuild the image to learn its X word indices.
	var mi []core.MemInit
	if *validate || *powerRep || *vcdOut != "" {
		target, err := report.ISAOf(report.Design(*design))
		if err != nil {
			fatal(err)
		}
		img, err := prog.Build(*bench, target)
		if err != nil {
			fatal(err)
		}
		dmem, ok := p.Design.MemByName("dmem")
		if !ok {
			fatal(fmt.Errorf("design %s has no dmem", p.Name))
		}
		if mi, err = parseInputs(*inputs, img.XWords, p.Design.Mems[dmem].DataBits); err != nil {
			fatal(err)
		}
	}
	res, err := core.Analyze(p, core.Config{})
	if err != nil {
		fatal(err)
	}
	bsp, err := bespoke.Generate(res)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("design            %s\n", p.Name)
	fmt.Printf("benchmark         %s\n", *bench)
	fmt.Printf("original gates    %d\n", bsp.OriginalGates)
	fmt.Printf("exercisable gates %d  (%.2f%% reduction)\n", bsp.ExercisableGates, bsp.ReductionPct())
	fmt.Printf("bespoke netlist   %d physical gates after re-synthesis\n", bsp.BespokeGates)
	fmt.Printf("re-synthesis      %d tied, %d folded, %d swept, %d X-ties\n",
		bsp.Resynth.Tied, bsp.Resynth.Folded, bsp.Resynth.Swept, bsp.Resynth.XTies)

	if *outJSON != "" {
		if err := writeFile(*outJSON, bsp.Bespoke.Write); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote             %s (interchange JSON)\n", *outJSON)
	}
	if *outVlog != "" {
		if err := writeFile(*outVlog, bsp.Bespoke.WriteVerilog); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote             %s (structural Verilog)\n", *outVlog)
	}

	if *validate {
		rep, err := bespoke.Validate(res, bsp, p, mi, 1<<22)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("validation        PASS: %d cycles, %d output samples equal, %d memory words equal,\n",
			rep.Cycles, rep.OutputsCompared, rep.MemWordsCompared)
		exercisable := 0
		for _, t := range res.ToggledNets {
			if t {
				exercisable++
			}
		}
		fmt.Printf("                  exercised(%d) ⊆ exercisable(%d) nets, 0 violations\n",
			rep.ExercisedConcrete, exercisable)
	}
	if *powerRep {
		pf, err := power.Measure(p, mi, 1<<22)
		if err != nil {
			fatal(err)
		}
		fmt.Print(pf.Report(res))
	}
	if *vcdOut != "" {
		tr := &vvp.Trace{}
		if _, err := p.RunConcrete(vvp.Options{Trace: tr}, mi, 1<<22, nil); err != nil {
			fatal(err)
		}
		if err := writeFile(*vcdOut, func(w io.Writer) error { return vvp.WriteVCD(w, p.Design, tr, "1ns") }); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote             %s (waveform)\n", *vcdOut)
	}
}

// parseInputs pins the benchmark's X data words, in order, to the
// comma-separated values of list. It wants exactly one value per X word,
// each fitting the data memory's width bits.
func parseInputs(list string, xwords []int, width int) ([]core.MemInit, error) {
	var vals []string
	if list != "" {
		vals = strings.Split(list, ",")
	}
	if len(vals) != len(xwords) {
		return nil, fmt.Errorf("-inputs has %d values, want %d (one per X word of the benchmark)", len(vals), len(xwords))
	}
	mi := make([]core.MemInit, len(xwords))
	for i, w := range xwords {
		v, err := strconv.ParseUint(strings.TrimSpace(vals[i]), 0, width)
		if err != nil {
			return nil, fmt.Errorf("bad input %q: %w", vals[i], err)
		}
		mi[i] = core.MemInit{Mem: "dmem", Word: w, Val: logic.NewVecUint64(width, v)}
	}
	return mi, nil
}

// writeFile creates path and streams gen into it.
func writeFile(path string, gen func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gen(f); err != nil {
		_ = f.Close() // the generator's error takes precedence
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bespoke:", err)
	os.Exit(1)
}
