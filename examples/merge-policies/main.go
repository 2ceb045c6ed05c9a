// Merge-policies: the conservative-state trade-off of paper Figure 3.
// The same workload (software multiply on dr5, whose input-dependent
// branches fork every loop iteration) is analyzed under the configurable
// CSM policies: merge-all (prior work's single uber-state), clustered
// (up to k states per PC), and exact with a safety-valve budget. More
// states per PC means more simulation effort but less over-approximation
// of the exercisable gate set.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"symsim"
)

func main() {
	type row struct {
		name   string
		policy func() symsim.Policy
	}
	rows := []row{
		{"merge-all (prior work [4])", symsim.MergeAllPolicy},
		{"clustered k=2", func() symsim.Policy { return symsim.ClusteredPolicy(2) }},
		{"clustered k=4", func() symsim.Policy { return symsim.ClusteredPolicy(4) }},
		{"exact (budget 64)", func() symsim.Policy { return symsim.ExactPolicy(64) }},
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\tpaths\tskipped\tcycles\tCSM states\texercisable\treduction")
	for _, r := range rows {
		p, err := symsim.BuildPlatform(symsim.DR5, "mult")
		if err != nil {
			log.Fatal(err)
		}
		res, err := symsim.Analyze(p, symsim.Config{Policy: r.policy()})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%.1f%%\n",
			r.name, res.PathsCreated, res.PathsSkipped, res.SimulatedCycles,
			res.CSMStates, res.ExercisableCount, res.ReductionPct())
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nFewer, more conservative states converge fastest; keeping more states")
	fmt.Println("per PC costs paths and cycles but can prove more gates unexercisable")
	fmt.Println("(paper Figure 3).")
}
