// Command symsim runs one symbolic hardware/software co-analysis: a
// benchmark application on one of the three evaluation processors, under a
// selectable conservative-state policy, on the compiled kernel. It prints
// the exercisable-gate dichotomy and the path/cycle statistics of the run.
// (The bit-parallel batch engine is a library option, core.Config.Engine,
// with no flag: it gives the same dichotomy more slowly.)
//
// Usage:
//
//	symsim -design omsp430 -bench tHold
//	symsim -design dr5 -bench mult -policy clustered -k 4
//	symsim -design bm32 -bench Div -v
//
// Long co-analyses are governed: -deadline bounds wall-clock time (the
// run degrades soundly instead of erroring), -checkpoint periodically
// saves the exploration state to a file, and -resume continues from it
// after a kill or crash. SIGINT/SIGTERM trigger the same clean shutdown
// as an expired deadline:
//
//	symsim -design omsp430 -bench tHold -deadline 2m -checkpoint run.ckpt
//	symsim -design omsp430 -bench tHold -checkpoint run.ckpt -resume
//
// The constrained policy refines merged states with application facts
// from a -constraints file: one fact per line, each a pinned state bit
// (pc=0x14 bit=dff:pc[0] val=0), a register value range (pc=* reg=r6
// min=0x0 max=0x3f) or a bit relation (pc=0x1e rel=dff:a[0]!=dff:b[0]);
// pc=* applies the fact at every PC. Facts also prove forked children
// infeasible before they are scheduled, pruning the path explosion at
// its source:
//
//	symsim -design omsp430 -bench tHold -policy constrained -constraints facts.txt
//
// Every run publishes exploration metrics; -trace additionally records a
// JSONL trace of the exploration (per-path spans plus the CSM decision
// log) that the explain subcommand renders as a fork tree with per-PC
// merge hot spots. The stats subcommand is a normal run that ends with
// the full metrics registry in Prometheus text form:
//
//	symsim -design dr5 -bench mult -trace run.trace
//	symsim explain run.trace
//	symsim stats -design dr5 -bench mult
//
// The lint subcommand runs the structural static-analysis pass alone,
// over the shipped processors and/or serialized netlist files:
//
//	symsim lint -design all
//	symsim lint -json design.json
//	symsim lint -fail-on warn -design omsp430
//
// The submit/status/result/cancel/jobs subcommands are the client of the
// symsimd analysis daemon (see cmd/symsimd): analyses become queued jobs
// with streamed progress and content-addressed result caching:
//
//	symsim submit -server http://localhost:8466 -design dr5 -bench tea8 -follow
//	symsim jobs -server http://localhost:8466
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"symsim/internal/cliflags"
	"symsim/internal/core"
	"symsim/internal/lint"
	"symsim/internal/obs"
	"symsim/internal/report"
	"symsim/internal/vvp"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "lint":
			os.Exit(lintMain(os.Args[2:]))
		case "explain":
			os.Exit(explainMain(os.Args[2:]))
		case "stats":
			analyzeMain(os.Args[2:], true)
			return
		case "submit", "status", "result", "cancel", "jobs":
			os.Exit(clientMain(os.Args[1], os.Args[2:]))
		}
	}
	analyzeMain(os.Args[1:], false)
}

// analyzeMain is both the default command and the stats subcommand;
// printStats appends the run's metrics registry in Prometheus text form.
func analyzeMain(args []string, printStats bool) {
	fs := flag.NewFlagSet("symsim", flag.ExitOnError)
	var (
		design  = fs.String("design", "omsp430", "processor: bm32 | omsp430 | dr5")
		bench   = fs.String("bench", "tHold", "benchmark: Div | inSort | binSearch | tHold | mult | tea8")
		verbose = fs.Bool("v", false, "print per-path details")
		dumpDir = fs.String("dump-states", "", "write every saved halt state to this directory (sim_state.log files in the vvp.State binary encoding checkpoints embed; vvp.DecodeState reads them)")
		vcdOut  = fs.String("vcd", "", "dump the initial symbolic path's waveform (X values visible) to this file")

		// The analysis-tuning flags (policy and the budget family) are
		// shared with symsim submit via cliflags, which is also the body
		// of POST /jobs, so the one-shot CLI and the daemon cannot drift.
		tuning = cliflags.Register(fs)

		ckptPath  = fs.String("checkpoint", "", "periodically checkpoint the exploration state to this file (atomic writes)")
		ckptEvery = fs.Duration("checkpoint-every", 30*time.Second, "minimum interval between periodic checkpoints")
		resume    = fs.Bool("resume", false, "resume from the -checkpoint file instead of starting fresh")
		progress  = fs.Duration("progress", 0, "print a progress heartbeat at this interval (0 = off)")
		traceOut  = fs.String("trace", "", "write a JSONL exploration trace (spans + CSM decision log) to this file; render with `symsim explain`")

		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the analysis to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}

	p, err := report.BuildPlatform(report.Design(*design), *bench)
	if err != nil {
		fatal(err)
	}

	tuning.Design, tuning.Bench = *design, *bench
	cfg, err := tuning.Config(p.Spec)
	if err != nil {
		fatal(err)
	}
	if *verbose {
		// The structural pre-check in Analyze reads this same cached
		// result: errors refuse the analysis, and -v surfaces the
		// warnings of one it runs.
		if lr := p.Lint(); !lr.HasErrors() {
			for _, d := range lr.Diags {
				if d.Sev == lint.SevWarn {
					fmt.Fprintln(os.Stderr, "symsim: lint:", d)
				}
			}
		}
	}

	if *dumpDir != "" {
		if err := os.MkdirAll(*dumpDir, 0o755); err != nil {
			fatal(err)
		}
		var mu sync.Mutex
		cfg.OnHalt = func(pathID int, st vvp.State) {
			data, err := st.MarshalBinary()
			if err != nil {
				fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			name := filepath.Join(*dumpDir, fmt.Sprintf("sim_state_%04d_pc%04x.log", pathID, st.PC))
			if err := os.WriteFile(name, data, 0o644); err != nil {
				fatal(err)
			}
		}
	}

	var tr *vvp.Trace
	if *vcdOut != "" {
		tr = &vvp.Trace{}
		cfg.Trace = tr
	}

	if *ckptPath != "" {
		cfg.Checkpoint = &core.CheckpointConfig{Path: *ckptPath, Interval: *ckptEvery}
	}
	if *resume {
		if *ckptPath == "" {
			fatal(fmt.Errorf("-resume needs -checkpoint <file>"))
		}
		ckpt, err := core.LoadCheckpoint(*ckptPath)
		if err != nil {
			fatal(err)
		}
		cfg.Resume = ckpt
		fmt.Fprintf(os.Stderr, "symsim: resuming from %s (%d pending paths, %d conservative states)\n",
			*ckptPath, len(ckpt.Pending), len(ckpt.CSM))
	}
	if *progress > 0 {
		cfg.ProgressEvery = *progress
		cfg.Progress = func(pr core.Progress) {
			fmt.Fprintf(os.Stderr, "symsim: %8.1fs  %d done / %d pending / %d in flight  %d cycles  %d csm states\n",
				pr.Elapsed.Seconds(), pr.PathsDone, pr.PathsPending, pr.PathsInFlight, pr.SimulatedCycles, pr.CSMStates)
		}
	}

	// stats gets its own registry so the exposition below holds exactly
	// this run, not whatever else the process may have counted.
	var reg *obs.Registry
	if printStats {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		traceFile = f
		cfg.Tracer = obs.NewTracer(f)
	}

	// SIGINT/SIGTERM drain the run cleanly: the explorer stops, the pending
	// frontier is checkpointed (when -checkpoint is set) and force-merged,
	// and the partial — still sound — dichotomy is printed.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	res, err := core.AnalyzeContext(ctx, p, cfg)
	if err != nil {
		fatal(err)
	}
	if traceFile != nil {
		// The analysis flushed the tracer; surface any retained write
		// error before declaring the trace usable.
		if err := cfg.Tracer.Err(); err != nil {
			fatal(fmt.Errorf("writing trace %s: %w", *traceOut, err))
		}
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace       %s (render with: symsim explain %s)\n", *traceOut, *traceOut)
	}
	if tr != nil {
		f, err := os.Create(*vcdOut)
		if err != nil {
			fatal(err)
		}
		if err := vvp.WriteVCD(f, p.Design, tr, "1ns"); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("waveform    %s (initial symbolic path)\n", *vcdOut)
	}
	if *dumpDir != "" {
		fmt.Printf("states      dumped to %s\n", *dumpDir)
	}

	fmt.Printf("design      %s (%d gates, %d state bits)\n", p.Name, res.TotalGates, p.Spec.Bits())
	fmt.Printf("benchmark   %s\n", *bench)
	fmt.Printf("policy      %s (%d conservative states)\n", res.Policy, res.CSMStates)
	fmt.Printf("exercisable %d / %d gates  (%.2f%% reduction)\n",
		res.ExercisableCount, res.TotalGates, res.ReductionPct())
	fmt.Printf("paths       %d created, %d skipped, %d superseded, %d pruned pre-fork\n",
		res.PathsCreated, res.PathsSkipped, res.PathsSuperseded, res.PathsPruned)
	fmt.Printf("cycles      %d simulated\n", res.SimulatedCycles)

	if deg := res.Degradation; deg != nil {
		fmt.Printf("INCOMPLETE  stopped by %s; result is sound but over-approximate\n", deg.Trip)
		fmt.Printf("            %d pending paths (%d force-merged), %d nets conservatively marked (%d gates)\n",
			deg.PendingPaths, deg.ForcedMerges, deg.ConeNets, deg.ConeGates)
		for _, q := range deg.Quarantined {
			fmt.Printf("            quarantined path %d (pc=%#x): %s\n", q.PathID, q.PC, q.Panic)
		}
		if *ckptPath != "" {
			fmt.Printf("            resume with: -checkpoint %s -resume\n", *ckptPath)
		}
	}

	if *verbose {
		fmt.Println("\npath segments:")
		for _, ps := range res.Paths {
			fmt.Printf("  #%-4d %8d cycles  %-9s", ps.ID, ps.Cycles, ps.End)
			if ps.End != core.EndFinished {
				fmt.Printf("  pc=%#06x", ps.HaltPC)
			}
			fmt.Println()
		}
		fmt.Println("\nuntoggled constant sample (first 20):")
		n := 0
		for gi, ex := range res.ExercisableGates {
			if ex || n >= 20 {
				continue
			}
			out := res.Design.Gates[gi].Out
			fmt.Printf("  %-28s = %v\n", res.Design.NetName(out), res.ConstNets[out])
			n++
		}
	}
	if printStats {
		fmt.Println()
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// explainMain renders a -trace JSONL file as a fork tree with per-PC
// merge hot spots.
func explainMain(args []string) int {
	fs := flag.NewFlagSet("symsim explain", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: symsim explain <trace-file>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "symsim:", err)
		return 1
	}
	defer f.Close()
	log, err := obs.ReadTrace(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "symsim: reading trace %s: %v\n", fs.Arg(0), err)
		return 1
	}
	if err := obs.Explain(os.Stdout, log); err != nil {
		fmt.Fprintln(os.Stderr, "symsim:", err)
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "symsim:", err)
	os.Exit(1)
}
