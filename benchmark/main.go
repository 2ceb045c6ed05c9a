// Command benchmark is symsim's end-to-end benchmark: the paper's Table-4
// co-analysis matrix run to its tie-off lists six ways, every operation
// checked against golden.json, with the layers timed from outside — by
// calling their exported functions, reading Result fields and the run's
// own metrics registry. README.md describes the workloads and metrics.
//
//	go run -C benchmark .                      every workload, untraced then traced
//	go run -C benchmark . -workload NAME -trace 0|1
//	go run -C benchmark . -compare A.jsonl B.jsonl
//	go run -C benchmark . -selfcheck
//	go run -C benchmark . -update-golden
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runSeconds is how long a run measures unless -seconds says otherwise,
// and BENCHMARK.json's run_seconds: as long as the PR driver's time limit
// for all its runs of the three gated workloads allows, with a margin.
const runSeconds = 36

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload and print its result line; empty runs them all")
		seed      = flag.Int64("seed", 1, "seed of the order operations are issued in")
		seconds   = flag.Float64("seconds", runSeconds, "how long each run measures")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out       = flag.String("out", "", "append each run's record to this file (default out/results.jsonl when running every workload)")
		doCompare = flag.Bool("compare", false, "compare two result files: -compare A.jsonl B.jsonl")
		selfcheck = flag.Bool("selfcheck", false, "run the gated workloads untraced twice and require every pairing of the two within bound")
		golden    = flag.Bool("update-golden", false, "regenerate golden.json from the reference interpreter")
	)
	flag.Parse()
	dir := benchDir()
	var err error
	switch {
	case *golden:
		err = updateGolden(dir)
	case *doCompare:
		err = compareMain(flag.Args())
	case *selfcheck:
		err = selfcheckMain(dir, *seconds)
	case *name == "":
		err = suite(dir, *seed, *seconds, *out)
	default:
		w := findWorkload(*name)
		if w == nil {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		var r *record
		r, err = runWorkload(w, runOpts{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Dir: dir, Log: os.Stdout})
		if err == nil {
			err = emit(r, *out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// benchDir finds the benchmark's own directory from the repository root
// or from inside it (where `go run -C benchmark .` and `go test` run).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "golden.json")); err == nil {
		return "benchmark"
	}
	return "."
}

// child runs one workload in its own process, so peak RSS and allocation
// figures are per workload, and waits for it.
func child(w *workload, seed int64, seconds float64, trace int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe,
		"-workload", w.Name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-out", out)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return nil
}

// suite runs every workload untraced, then traced, and prints the
// end-to-end matrix.
func suite(dir string, seed int64, seconds float64, out string) error {
	if out == "" {
		out = filepath.Join(dir, "out", "results.jsonl")
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		if err := os.Remove(out); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	for i := range workloads {
		for trace := 0; trace <= 1; trace++ {
			if err := child(&workloads[i], seed, seconds, trace, out); err != nil {
				return err
			}
		}
	}
	recs, err := readRecords(out)
	if err != nil {
		return err
	}
	s := sides(recs)
	fmt.Printf("\nend-to-end metrics, tracing off (records in %s)\n%-20s %-12s %6s", out, "metric", "unit", "bound")
	for _, w := range workloads {
		fmt.Printf(" %19s", w.Name)
	}
	fmt.Println()
	for _, d := range endToEnd {
		fmt.Printf("%-20s %-12s %5.1f%%", d.Name, d.Unit, d.Bound*100)
		for _, w := range workloads {
			v := 0.0
			if sd := s[w.Name]; sd != nil {
				v = median(sd.values[d.Name])
			}
			fmt.Printf(" %19.4f", v)
		}
		fmt.Println()
	}
	failed := 0
	for _, r := range recs {
		failed += r.Failed
		if !r.Correct {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d failed operations or incorrect runs", failed)
	}
	return nil
}

func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two result files")
	}
	counts, failedMore, err := compare(os.Stdout, args[0], args[1])
	if err != nil {
		return err
	}
	fmt.Printf("%d worse, %d better, %d within-bound, %d unresolved\n",
		counts[verdictWorse], counts[verdictBetter], counts[verdictWithin], counts[verdictUnresolved])
	switch {
	case counts[verdictWorse] > 0:
		return fmt.Errorf("%d pairings worse than their bound", counts[verdictWorse])
	case failedMore:
		return fmt.Errorf("failed_ops_frac rose")
	}
	return nil
}

// selfcheckMain runs the gated workloads untraced twice on the same binary,
// the two sets taking turns workload by workload, and requires them to
// agree within the benchmark's own bounds. On failure the remedy is more measured
// rounds (-seconds), not wider bounds.
func selfcheckMain(dir string, seconds float64) error {
	outDir := filepath.Join(dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	files := [2]string{filepath.Join(outDir, "selfcheck-A.jsonl"), filepath.Join(outDir, "selfcheck-B.jsonl")}
	for _, f := range files {
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	for i := range workloads {
		if !workloads[i].Gate {
			continue // not held to the bounds: see workload.Gate
		}
		for s := 0; s < 2; s++ {
			side := (i + s) % 2 // alternate which side runs first
			if err := child(&workloads[i], int64(side+1), seconds, 0, files[side]); err != nil {
				return err
			}
		}
	}
	counts, failedMore, err := compare(os.Stdout, files[0], files[1])
	if err != nil {
		return err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	fmt.Printf("%d of %d pairings within-bound\n", counts[verdictWithin], total)
	if counts[verdictWithin] != total || failedMore {
		return fmt.Errorf("two sets of runs of the same code disagree: raise -seconds, not the bounds")
	}
	return nil
}
