// Command paper regenerates the tables and figures of the paper's
// evaluation section (DAC 2022, "A scalable symbolic simulation tool for
// low power embedded systems"): Tables 1-4 and Figures 5-6.
//
// Usage:
//
//	paper -all                 # everything
//	paper -table 3             # one table (1..4)
//	paper -fig 6               # one figure (5 or 6)
//	paper -csv                 # raw sweep data as CSV
//	paper -bench Div,tea8      # restrict the sweep
//
// Every cell runs the paper's analysis: merge-all on one explorer, so the
// path and cycle counts of Table 4 are the same on every run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"symsim/internal/report"
)

func main() {
	var (
		all   = flag.Bool("all", false, "regenerate every table and figure")
		table = flag.Int("table", 0, "regenerate one table (1..4)")
		fig   = flag.Int("fig", 0, "regenerate one figure (5 or 6)")
		csv   = flag.Bool("csv", false, "print the sweep as CSV")
		bench = flag.String("bench", "", "comma-separated benchmark subset (default: all six)")
		quiet = flag.Bool("q", false, "suppress per-cell progress")
	)
	flag.Parse()
	if !*all && *table == 0 && *fig == 0 && !*csv {
		*all = true
	}

	// Tables 1 and 2 need no sweep.
	if *all || *table == 1 {
		fmt.Println(report.Table1())
	}
	if *all || *table == 2 {
		t2, err := report.Table2()
		if err != nil {
			fatal(err)
		}
		fmt.Println(t2)
	}
	needSweep := *all || *table == 3 || *table == 4 || *fig != 0 || *csv
	if !needSweep {
		return
	}

	var opt report.Options
	if *bench != "" {
		opt.Benchmarks = strings.Split(*bench, ",")
	}
	if !*quiet {
		opt.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	sweep, err := report.Run(opt)
	if err != nil {
		fatal(err)
	}
	if *all || *table == 3 {
		fmt.Println(sweep.Table3())
	}
	if *all || *table == 4 {
		fmt.Println(sweep.Table4())
	}
	if *all || *fig == 5 {
		fmt.Println(sweep.Figure5())
	}
	if *all || *fig == 6 {
		fmt.Println(sweep.Figure6())
	}
	if *csv {
		fmt.Print(sweep.CSV())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paper:", err)
	os.Exit(1)
}
