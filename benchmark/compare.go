package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords reads a result file: one record per line, as -out appends
// them, so files from several runs concatenate.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// side is one file's untraced records of one workload.
type side struct {
	values            map[string][]float64
	attempted, failed int
}

func sides(recs []record) map[string]*side {
	out := make(map[string]*side)
	for _, r := range recs {
		if r.Trace {
			continue
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{values: make(map[string][]float64)}
			out[r.Workload] = s
		}
		s.attempted += r.Attempted
		s.failed += r.Failed
		for name, v := range r.Metrics {
			s.values[name] = append(s.values[name], v.Value)
		}
	}
	return out
}

const (
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved"
)

// judge compares one metric of one workload, a being the base. The spread
// is the wider of the two sides' quartile spreads, known only from eight
// records a side; wider than the bound, the pairing cannot be resolved
// either way. exact pins the bound to 0.
func judge(d metricDef, exact bool, a, b []float64) (verdict string, spread, bound float64) {
	ma, mb := median(a), median(b)
	worseBy := ratio(mb-ma, ma) // share of a's median by which b is worse
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	bound = d.Bound
	if exact {
		bound = 0
	}
	for _, xs := range [][]float64{a, b} {
		if s, ok := iqrSpread(xs); ok && s > spread {
			spread = s
		}
	}
	switch {
	case spread > bound && !exact:
		return verdictUnresolved, spread, bound
	case worseBy > bound:
		return verdictWorse, spread, bound
	case worseBy < -bound:
		return verdictBetter, spread, bound
	}
	return verdictWithin, spread, bound
}

// compare prints, per workload and end-to-end metric, both medians, the
// ratio with its base, the bound and the verdict. counts tallies verdicts;
// failedMore reports a workload whose share of failed operations rose.
func compare(w io.Writer, pathA, pathB string) (counts map[string]int, failedMore bool, err error) {
	ra, err := readRecords(pathA)
	if err != nil {
		return nil, false, err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return nil, false, err
	}
	sa, sb := sides(ra), sides(rb)
	counts = make(map[string]int)
	fmt.Fprintf(w, "base A = %s, B = %s; ratio is B/A\n", pathA, pathB)
	for _, wl := range workloads {
		a, b := sa[wl.Name], sb[wl.Name]
		if a == nil || b == nil {
			continue
		}
		fmt.Fprintf(w, "%s (A: %d runs, B: %d runs)\n", wl.Name, len(a.values["setup_s"]), len(b.values["setup_s"]))
		fmt.Fprintf(w, "  %-20s %14s %14s %9s %7s %7s  %s\n", "metric", "median A", "median B", "B/A", "bound", "spread", "verdict")
		for _, d := range endToEnd {
			exact := exactWorkloads[wl.Name] && countMetrics[d.Name]
			verdict, spread, bound := judge(d, exact, a.values[d.Name], b.values[d.Name])
			counts[verdict]++
			ma, mb := median(a.values[d.Name]), median(b.values[d.Name])
			fmt.Fprintf(w, "  %-20s %14.4f %14.4f %9.4f %6.1f%% %6.1f%%  %s\n",
				d.Name, ma, mb, ratio(mb, ma), bound*100, spread*100, verdict)
		}
		fa, fb := ratio(float64(a.failed), float64(a.attempted)), ratio(float64(b.failed), float64(b.attempted))
		fmt.Fprintf(w, "  %-20s %14.6f %14.6f\n", "failed_ops_frac", fa, fb)
		if fb > fa {
			failedMore = true
		}
	}
	return counts, failedMore, nil
}
