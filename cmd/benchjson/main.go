// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so benchmark runs can be recorded in the repository
// (BENCH_kernel.json) and compared across commits without scraping ad-hoc
// text. It reads the benchmark output from stdin (or a file argument) and
// writes JSON to stdout or -o.
//
// Only the standard library is used. Unparseable lines are ignored, so the
// tool can consume raw `go test` output including test framework noise.
//
// Derived metrics: when a benchmark reports both a "cycles" metric and
// ns/op or allocs/op, per-cycle figures (ns/cycle is already reported by
// the harness; allocs/cycle is computed here) are added — the quantities
// the perf trajectory tracks per CPU x benchmark.
//
// Repeated runs: with `go test -count N` a benchmark prints N lines. They
// are folded into one entry whose metrics are the medians over the runs,
// with the minima beside them — on a shared machine the minimum is the
// run least disturbed and the median says how typical it was.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark: a single result line, or the fold of the
// lines `-count N` printed for it.
type Benchmark struct {
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Runs is the number of lines folded; omitted for a single run, where
	// Metrics is that run's and Min is omitted too.
	Runs int `json:"runs,omitempty"`
	// Metrics is the median of each metric over the runs.
	Metrics map[string]float64 `json:"metrics"`
	// Min is the minimum of each metric over the runs.
	Min map[string]float64 `json:"min,omitempty"`
}

// Report is the whole converted run.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// procSuffix strips the trailing -<GOMAXPROCS> go test appends to
// benchmark names.
var procSuffix = regexp.MustCompile(`-\d+$`)

func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{
			Name:       procSuffix.ReplaceAllString(f[0], ""),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		// The remainder is value/unit pairs: "85241517 ns/op 893.0 cycles".
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			b.Metrics[f[i+1]] = v
		}
		if cycles := b.Metrics["cycles"]; cycles > 0 {
			if allocs, ok := b.Metrics["allocs/op"]; ok {
				b.Metrics["allocs/cycle"] = allocs / cycles
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rep.Benchmarks = fold(rep.Benchmarks)
	return rep, nil
}

// fold merges result lines of the same name, in order of first appearance:
// each metric becomes its median over the lines (the mean of the middle two
// for an even count) with its minimum in Min. A metric some lines lack is
// folded over the lines that have it.
func fold(lines []Benchmark) []Benchmark {
	var out []Benchmark
	var samples []map[string][]float64 // per entry of out, per unit
	index := map[string]int{}
	for _, b := range lines {
		i, seen := index[b.Name]
		if !seen {
			i = len(out)
			index[b.Name] = i
			out = append(out, b)
			samples = append(samples, map[string][]float64{})
		}
		out[i].Runs++
		for unit, v := range b.Metrics {
			samples[i][unit] = append(samples[i][unit], v)
		}
	}
	for i := range out {
		b := &out[i]
		if b.Runs == 1 {
			b.Runs = 0
			continue
		}
		b.Min = map[string]float64{}
		for unit, xs := range samples[i] {
			sort.Float64s(xs)
			b.Min[unit] = xs[0]
			b.Metrics[unit] = (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
		}
	}
	return out
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: benchjson [-o out.json] [bench-output.txt]\n\nReads `go test -bench` output (stdin or a file) and writes JSON.\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		fh, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer fh.Close()
		in = fh
	}
	rep, err := parse(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found in input")
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(enc); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
