// Command symsimvet runs symsim's self-hosted static-analysis suite
// (internal/analysis: SA000 directives, SA001 hotpath, SA004 wireformat,
// SA005 diagcodes, SA006 errdrop; SA002 and SA003 are retired and have
// no analyzer) over the repository's own source tree — the same
// contract `symsim lint` applies to netlists, pointed at the tool
// itself: stable diagnostic codes, text or JSON output, and a -fail-on
// severity threshold that decides the exit code.
//
//	symsimvet ./...            # analyze the whole module (the default)
//	symsimvet -json ./...      # machine-readable report
//	symsimvet -codes SA001     # restrict to one analyzer's findings
//	symsimvet -hot             # list the //symsim:hotpath-reachable set
//
// Exit status: 0 when no finding reaches the -fail-on threshold, 1 when
// one does, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"symsim/internal/analysis"
	"symsim/internal/diag"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("symsimvet", flag.ExitOnError)
	var (
		jsonOut = fs.Bool("json", false, "emit machine-readable JSON instead of text")
		failOn  = fs.String("fail-on", "error", "lowest severity that fails the run: error | warn | info")
		codes   = fs.String("codes", "", "comma-separated SA codes to report: SA000, SA001, SA004, SA005, SA006 (default: all)")
		listHot = fs.Bool("hot", false, "list the hotpath-reachable functions instead of analyzing")
		rootDir = fs.String("C", "", "module root to analyze (default: walk up from the working directory)")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: symsimvet [-json] [-fail-on error|warn|info] [-codes SA001,SA006] [-hot] [./...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// The analyzers are whole-program (call graphs and registries span
	// packages), so the only supported pattern is the module itself;
	// "./..." is accepted for familiarity.
	for _, pat := range fs.Args() {
		if pat != "./..." && pat != "..." {
			fmt.Fprintf(os.Stderr, "symsimvet: unsupported pattern %q (the suite always analyzes the whole module; use ./...)\n", pat)
			return 2
		}
	}

	minSev, err := diag.ParseFailOn(*failOn)
	if err != nil {
		fmt.Fprintf(os.Stderr, "symsimvet: %v\n", err)
		return 2
	}
	only := map[diag.Code]bool{}
	if *codes != "" {
		for _, c := range strings.Split(*codes, ",") {
			c = strings.TrimSpace(c)
			if analysis.AnalyzerFor(diag.Code(c)) == nil {
				fmt.Fprintf(os.Stderr, "symsimvet: unknown code %q\n", c)
				return 2
			}
			only[diag.Code(c)] = true
		}
	}

	root := *rootDir
	if root == "" {
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "symsimvet:", err)
			return 2
		}
	}
	prog, err := analysis.Load(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "symsimvet:", err)
		return 2
	}

	if *listHot {
		for _, fn := range analysis.HotFunctions(prog) {
			fmt.Println(fn)
		}
		return 0
	}

	rep := analysis.Vet(prog)
	if len(only) > 0 {
		filtered := diag.NewReport(rep.Name)
		for _, d := range rep.Diags {
			if only[d.Code] {
				filtered.Add(d)
			}
		}
		rep = filtered
	}

	if *jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "symsimvet:", err)
			return 2
		}
	} else if err := rep.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "symsimvet:", err)
		return 2
	}
	if rep.Fails(minSev) {
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
