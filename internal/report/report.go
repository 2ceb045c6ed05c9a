// Package report regenerates the tables and figures of the paper's
// evaluation section: Table 1 (benchmarks), Table 2 (target platforms),
// Table 3 (gate-count analysis), Table 4 (simulation path and runtime
// analysis), Figure 5 (per-benchmark exercisable-gate reduction) and
// Figure 6 (per-benchmark simulation paths). The same sweep backs the
// benchmark harness in bench_test.go and the cmd/paper tool.
package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"symsim/internal/core"
	"symsim/internal/cpu/bm32"
	"symsim/internal/cpu/dr5"
	"symsim/internal/cpu/omsp430"
	"symsim/internal/csm"
	"symsim/internal/prog"
)

// Design identifies one of the three evaluation processors.
type Design string

// The three processors of paper Table 2.
const (
	BM32    Design = "bm32"
	OMSP430 Design = "omsp430"
	DR5     Design = "dr5"
)

// Designs lists the evaluation processors in the paper's column order.
var Designs = []Design{BM32, OMSP430, DR5}

// isaOf maps a design to its benchmark ISA.
func isaOf(d Design) (prog.ISA, error) {
	switch d {
	case BM32:
		return prog.ISAMips, nil
	case OMSP430:
		return prog.ISAMsp430, nil
	case DR5:
		return prog.ISARV32, nil
	}
	return "", fmt.Errorf("report: unknown design %q", d)
}

// BuildPlatform assembles the benchmark for the design's ISA and binds it
// to the processor, which is elaborated on the first call of the process
// for that design and shared by every later one.
func BuildPlatform(d Design, benchmark string) (*core.Platform, error) {
	isa, err := isaOf(d)
	if err != nil {
		return nil, err
	}
	img, err := prog.Build(benchmark, isa)
	if err != nil {
		return nil, err
	}
	var p *core.Platform
	switch d {
	case BM32:
		p, err = bm32.Build(img)
	case OMSP430:
		p, err = omsp430.Build(img)
	case DR5:
		p, err = dr5.Build(img)
	default:
		return nil, fmt.Errorf("report: unknown design %q", d)
	}
	if err != nil {
		return nil, err
	}
	p.Bench = benchmark
	// Run the structural lint now: it validates the elaborated design, is
	// kept with it, and every subsequent Analyze — of this benchmark or of
	// another with the same lint.ImageFacts — reads that result instead of
	// re-linting an immutable netlist.
	p.Lint()
	return p, nil
}

// Cell is one benchmark x design measurement.
type Cell struct {
	Benchmark string
	Design    Design

	TotalGates   int
	Exercisable  int
	ReductionPct float64

	PathsCreated    int
	PathsSkipped    int
	PathsSuperseded int
	SimCycles       uint64

	Wall time.Duration
}

// Sweep holds the full evaluation matrix.
type Sweep struct {
	Cells  []Cell
	Policy string
}

// Options configure a sweep.
type Options struct {
	// Benchmarks defaults to the six of Table 1.
	Benchmarks []string
	// Designs defaults to the three of Table 2.
	Designs []Design
	// Config is passed to every analysis (Policy nil = merge-all).
	Config core.Config
	// Progress, when non-nil, receives one line per finished cell.
	Progress func(string)
}

// Run executes the sweep: one symbolic co-analysis per benchmark x design.
func Run(opt Options) (*Sweep, error) {
	if opt.Benchmarks == nil {
		for _, b := range prog.Benchmarks {
			opt.Benchmarks = append(opt.Benchmarks, b.Name)
		}
	}
	if opt.Designs == nil {
		opt.Designs = Designs
	}
	policy := opt.Config.Policy
	sweep := &Sweep{}
	for _, b := range opt.Benchmarks {
		for _, d := range opt.Designs {
			p, err := BuildPlatform(d, b)
			if err != nil {
				return nil, fmt.Errorf("report: %s/%s: %w", b, d, err)
			}
			cfg := opt.Config
			if policy == nil {
				cfg.Policy = csm.NewMergeAll()
			}
			start := time.Now()
			res, err := core.Analyze(p, cfg)
			if err != nil {
				return nil, fmt.Errorf("report: %s/%s: %w", b, d, err)
			}
			cell := Cell{
				Benchmark:       b,
				Design:          d,
				TotalGates:      res.TotalGates,
				Exercisable:     res.ExercisableCount,
				ReductionPct:    res.ReductionPct(),
				PathsCreated:    res.PathsCreated,
				PathsSkipped:    res.PathsSkipped,
				PathsSuperseded: res.PathsSuperseded,
				SimCycles:       res.SimulatedCycles,
				Wall:            time.Since(start),
			}
			sweep.Cells = append(sweep.Cells, cell)
			sweep.Policy = res.Policy
			if opt.Progress != nil {
				opt.Progress(fmt.Sprintf("%-9s %-8s %6d/%6d gates (%.1f%%)  %5d paths  %7d cycles  %s",
					b, d, cell.Exercisable, cell.TotalGates, cell.ReductionPct,
					cell.PathsCreated, cell.SimCycles, cell.Wall.Round(time.Millisecond)))
			}
		}
	}
	return sweep, nil
}

// cell finds the sweep entry for (benchmark, design).
func (s *Sweep) cell(b string, d Design) (Cell, bool) {
	for _, c := range s.Cells {
		if c.Benchmark == b && c.Design == d {
			return c, true
		}
	}
	return Cell{}, false
}

// benchmarks returns the benchmark names in first-appearance order.
func (s *Sweep) benchmarks() []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range s.Cells {
		if !seen[c.Benchmark] {
			seen[c.Benchmark] = true
			out = append(out, c.Benchmark)
		}
	}
	return out
}

// Table1 renders the benchmark list (paper Table 1).
func Table1() string {
	var sb strings.Builder
	sb.WriteString("Table 1. Benchmark Applications\n")
	fmt.Fprintf(&sb, "%-10s %s\n", "Benchmark", "Description")
	for _, b := range prog.Benchmarks {
		fmt.Fprintf(&sb, "%-10s %s\n", b.Name, b.Desc)
	}
	return sb.String()
}

// Table2 renders the target platform characterization (paper Table 2),
// including the synthesized gate counts of this reproduction.
func Table2() (string, error) {
	var sb strings.Builder
	sb.WriteString("Table 2. Target Platform Characterization\n")
	fmt.Fprintf(&sb, "%-10s %-8s %7s  %s\n", "Design", "ISA", "Gates", "Features")
	rows := []struct {
		d        Design
		isa      string
		features string
	}{
		{BM32, "MIPS32", "32-bit MIPS implementation with 32x32 hardware multiplier"},
		{OMSP430, "MSP430", "16-bit microcontroller with 16x16 hardware multiplier, watchdog, GPIO, TimerA"},
		{DR5, "RV32E", "32-bit RISC-V embedded ISA with 16 integer registers, no multiplier"},
	}
	for _, r := range rows {
		p, err := BuildPlatform(r.d, "tea8") // program choice does not affect gate count
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%-10s %-8s %7d  %s\n", r.d, r.isa, len(p.Design.Gates), r.features)
	}
	return sb.String(), nil
}

// Table3 renders the gate count analysis (paper Table 3).
func (s *Sweep) Table3() string {
	var sb strings.Builder
	sb.WriteString("Table 3. Gate count analysis\n")
	fmt.Fprintf(&sb, "%-10s", "Benchmark")
	for _, d := range Designs {
		if c, ok := s.cell(s.benchmarks()[0], d); ok {
			fmt.Fprintf(&sb, " | %s tgc: %-6d       ", d, c.TotalGates)
		}
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-10s", "")
	for range Designs {
		fmt.Fprintf(&sb, " | %9s %11s", "GateCount", "%reduction")
	}
	sb.WriteString("\n")
	for _, b := range s.benchmarks() {
		fmt.Fprintf(&sb, "%-10s", b)
		for _, d := range Designs {
			c, ok := s.cell(b, d)
			if !ok {
				fmt.Fprintf(&sb, " | %9s %11s", "-", "-")
				continue
			}
			fmt.Fprintf(&sb, " | %9d %11.2f", c.Exercisable, c.ReductionPct)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Table4 renders the simulation path and runtime analysis (paper Table 4).
func (s *Sweep) Table4() string {
	var sb strings.Builder
	sb.WriteString("Table 4. Simulation path and runtime analysis\n")
	fmt.Fprintf(&sb, "%-10s", "Benchmark")
	for _, d := range Designs {
		fmt.Fprintf(&sb, " | %-34s", d)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-10s", "")
	for range Designs {
		fmt.Fprintf(&sb, " | %7s %7s %6s %11s", "created", "skipped", "supers", "sim cycles")
	}
	sb.WriteString("\n")
	for _, b := range s.benchmarks() {
		fmt.Fprintf(&sb, "%-10s", b)
		for _, d := range Designs {
			c, ok := s.cell(b, d)
			if !ok {
				fmt.Fprintf(&sb, " | %7s %7s %6s %11s", "-", "-", "-", "-")
				continue
			}
			fmt.Fprintf(&sb, " | %7d %7d %6d %11d", c.PathsCreated, c.PathsSkipped, c.PathsSuperseded, c.SimCycles)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Figure5 renders the exercisable-gate-count reduction per benchmark as an
// ASCII bar chart (paper Figure 5).
func (s *Sweep) Figure5() string {
	return s.figure("Figure 5. Reduction in exercisable gate count (%)",
		func(c Cell) float64 { return c.ReductionPct }, 100, "%5.1f%%")
}

// Figure6 renders the number of simulated paths per benchmark (paper
// Figure 6). Bars are scaled to the sweep's maximum.
func (s *Sweep) Figure6() string {
	max := 1.0
	for _, c := range s.Cells {
		if v := float64(c.PathsCreated); v > max {
			max = v
		}
	}
	return s.figure("Figure 6. Simulation paths per benchmark",
		func(c Cell) float64 { return float64(c.PathsCreated) }, max, "%6.0f")
}

func (s *Sweep) figure(title string, value func(Cell) float64, scale float64, valFmt string) string {
	const barWidth = 40
	var sb strings.Builder
	sb.WriteString(title + "\n")
	for _, b := range s.benchmarks() {
		fmt.Fprintf(&sb, "%s\n", b)
		for _, d := range Designs {
			c, ok := s.cell(b, d)
			if !ok {
				continue
			}
			v := value(c)
			n := int(v / scale * barWidth)
			if n > barWidth {
				n = barWidth
			}
			fmt.Fprintf(&sb, "  %-8s "+valFmt+" |%s\n", d, v, strings.Repeat("#", n))
		}
	}
	return sb.String()
}

// CSV renders the sweep as comma-separated values for external plotting.
func (s *Sweep) CSV() string {
	var sb strings.Builder
	sb.WriteString("benchmark,design,total_gates,exercisable,reduction_pct,paths_created,paths_skipped,paths_superseded,sim_cycles,wall_ms\n")
	cells := append([]Cell(nil), s.Cells...)
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Benchmark != cells[j].Benchmark {
			return cells[i].Benchmark < cells[j].Benchmark
		}
		return cells[i].Design < cells[j].Design
	})
	for _, c := range cells {
		fmt.Fprintf(&sb, "%s,%s,%d,%d,%.2f,%d,%d,%d,%d,%d\n",
			c.Benchmark, c.Design, c.TotalGates, c.Exercisable, c.ReductionPct,
			c.PathsCreated, c.PathsSkipped, c.PathsSuperseded, c.SimCycles, c.Wall.Milliseconds())
	}
	return sb.String()
}
