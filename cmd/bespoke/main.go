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
		workers  = flag.Int("workers", 1, "parallel path workers")
		validate = flag.Bool("validate", false, "run the fixed-input equivalence validation")
		inputs   = flag.String("inputs", "", "comma-separated input words for -validate/-power (fills the benchmark's X words in order)")
		outJSON  = flag.String("o", "", "write the bespoke netlist as interchange JSON to this file")
		outVlog  = flag.String("verilog", "", "write the bespoke netlist as structural Verilog to this file")
		powerRep = flag.Bool("power", false, "measure switching activity of the concrete run (needs -inputs)")
		vcdOut   = flag.String("vcd", "", "dump the concrete run's waveform (needs -inputs)")
	)
	flag.Parse()

	p, err := report.BuildPlatform(report.Design(*design), *bench)
	if err != nil {
		fatal(err)
	}
	res, err := core.Analyze(p, core.Config{Workers: *workers})
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

	if !*validate && !*powerRep && *vcdOut == "" {
		return
	}
	var mi []core.MemInit
	if *inputs != "" {
		// Re-derive the benchmark's input words: rebuild the image to
		// learn the X word indices, then pin them in order.
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
		width := p.Design.Mems[dmem].DataBits
		vals := strings.Split(*inputs, ",")
		for i, w := range img.XWords {
			if i >= len(vals) {
				break
			}
			v, err := strconv.ParseUint(strings.TrimSpace(vals[i]), 0, 64)
			if err != nil {
				fatal(fmt.Errorf("bad input %q: %w", vals[i], err))
			}
			mi = append(mi, core.MemInit{Mem: "dmem", Word: w, Val: logic.NewVecUint64(width, v)})
		}
	}
	if *validate {
		rep, err := bespoke.Validate(res, bsp, p, mi, 1<<22)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("validation        PASS: %d cycles, %d output samples equal, %d memory words equal,\n",
			rep.Cycles, rep.OutputsCompared, rep.MemWordsCompared)
		fmt.Printf("                  exercised(%d) ⊆ exercisable(%d), 0 violations\n",
			rep.ExercisedConcrete, res.ExercisableCount)
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
