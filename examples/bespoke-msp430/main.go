// Bespoke-msp430: the full application-specific processor flow for a
// wearable-style threshold detector on the openMSP430 platform — symbolic
// co-analysis, bespoke generation, and the paper's §5.0.1 validation that
// the pruned processor still computes exactly what the original does for
// concrete sensor inputs.
package main

import (
	"fmt"
	"log"

	"symsim"
)

func main() {
	p, err := symsim.BuildPlatform(symsim.OMSP430, "tHold")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== symbolic co-analysis (all sensor samples unknown) ==")
	res, err := symsim.Analyze(p, symsim.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exercisable gates: %d of %d (%.1f%% reduction)\n",
		res.ExercisableCount, res.TotalGates, res.ReductionPct())

	fmt.Println("\n== bespoke generation ==")
	bsp, err := symsim.Bespoke(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pruned %d gates, folded %d, swept %d -> %d physical gates\n",
		bsp.Resynth.Tied, bsp.Resynth.Folded, bsp.Resynth.Swept, bsp.BespokeGates)

	fmt.Println("\n== validation with fixed known inputs (paper §5.0.1) ==")
	// Eight concrete sensor samples; four exceed the threshold of 100.
	samples := []uint64{150, 3, 100, 101, 250, 99, 0, 777}
	var inputs []symsim.MemInit
	for i, s := range samples {
		inputs = append(inputs, symsim.MemInit{Mem: "dmem", Word: i, Val: symsim.NewVecUint64(16, s)})
	}
	rep, err := symsim.ValidateBespoke(res, bsp, p, inputs, 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original and bespoke outputs agree over %d samples across %d cycles\n",
		rep.OutputsCompared, rep.Cycles)
	fmt.Printf("final data memory equal over %d words\n", rep.MemWordsCompared)
	exercisable := 0
	for _, t := range res.ToggledNets {
		if t {
			exercisable++
		}
	}
	fmt.Printf("exercised(%d) ⊆ exercisable(%d) nets: %d violations\n",
		rep.ExercisedConcrete, exercisable, rep.SubsetViolations)
}
