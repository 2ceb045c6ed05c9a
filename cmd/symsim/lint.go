package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"symsim/internal/diag"
	"symsim/internal/lint"
	"symsim/internal/netlist"
	"symsim/internal/report"
)

// lintMain implements the "symsim lint" subcommand: the structural
// static-analysis pass over shipped processor netlists (-design) and/or
// serialized netlist JSON files given as positional arguments. It returns
// the process exit code: 0 when every target stays below the -fail-on
// severity threshold, 1 otherwise, 2 on usage or I/O errors.
func lintMain(args []string) int {
	fs := flag.NewFlagSet("symsim lint", flag.ExitOnError)
	var (
		design   = fs.String("design", "", "shipped processor to lint: bm32 | omsp430 | dr5 | all")
		jsonOut  = fs.Bool("json", false, "emit machine-readable JSON instead of text")
		failOn   = fs.String("fail-on", "error", "lowest severity that fails the run: error | warn | info")
		maxDiags = fs.Int("max-per-code", lint.DefaultMaxPerCode, "diagnostics reported per code (-1 = unlimited)")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: symsim lint [-design bm32|omsp430|dr5|all] [-json] [-fail-on error|warn|info] [netlist.json ...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *design == "" && fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	// The threshold semantics are shared with symsimvet via internal/diag
	// so the two gates cannot drift.
	minSev, err := diag.ParseFailOn(*failOn)
	if err != nil {
		fmt.Fprintf(os.Stderr, "symsim lint: %v\n", err)
		return 2
	}

	// Assemble the targets: shipped designs first, then files.
	type target struct {
		n    *netlist.Netlist
		opts lint.Options
	}
	var targets []target
	if *design != "" {
		designs := report.Designs
		if *design != "all" {
			designs = []report.Design{report.Design(*design)}
		}
		for _, d := range designs {
			// Program choice does not affect structure; use the
			// smallest benchmark.
			p, err := report.BuildPlatform(d, "tea8")
			if err != nil {
				fmt.Fprintln(os.Stderr, "symsim lint:", err)
				return 2
			}
			targets = append(targets, target{n: p.Design, opts: p.LintOptions()})
		}
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "symsim lint:", err)
			return 2
		}
		// ReadRaw, not Read: the point of linting a file is diagnosing
		// broken designs Read would reject outright.
		n, err := netlist.ReadRaw(f)
		_ = f.Close() // opened read-only; Close cannot lose data
		if err != nil {
			fmt.Fprintf(os.Stderr, "symsim lint: %s: %v\n", path, err)
			return 2
		}
		if n.Name == "" {
			n.Name = path
		}
		targets = append(targets, target{n: n})
	}

	exit := 0
	var jsonResults []any
	for _, t := range targets {
		t.opts.MaxPerCode = *maxDiags
		r := lint.Run(t.n, t.opts)
		// The canonical content hash identifies the design independent of
		// net, gate and memory names — the same digest keys the symsimd
		// result cache, so lint output and cached analyses can be
		// correlated.
		hash := t.n.Hash()
		if *jsonOut {
			jsonResults = append(jsonResults, struct {
				Hash   string `json:"designHash"`
				Result any    `json:"lint"`
			}{hash.String(), r.JSON(t.n)})
		} else if _, err := fmt.Fprintf(os.Stdout, "design hash %s\n", hash); err != nil {
			fmt.Fprintln(os.Stderr, "symsim lint:", err)
			return 2
		} else if err := r.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "symsim lint:", err)
			return 2
		}
		if r.Fails(minSev) {
			exit = 1
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(jsonResults); err != nil {
			fmt.Fprintln(os.Stderr, "symsim lint:", err)
			return 2
		}
	}
	return exit
}
