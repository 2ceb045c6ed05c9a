// Package symsim is a scalable, design-agnostic symbolic simulation
// library for hardware/software co-analysis of low-power embedded systems,
// reproducing "A scalable symbolic simulation tool for low power embedded
// systems" (DAC 2022).
//
// The library simulates an application binary on the gate-level netlist of
// its processor with every application input replaced by an unknown symbol
// (X). When an X reaches a monitored control-flow signal at a PC-changing
// instruction, the simulation halts, saves its state, and forks over the
// possible branch outcomes; a Conservative State Manager merges states
// observed at the same PC so the exploration converges. The result is a
// dichotomy of the design's gates into exercisable and never-exercisable
// sets, which drives application-specific optimizations such as bespoke
// processor generation.
//
// # Quick start
//
//	p, _ := symsim.BuildPlatform(symsim.OMSP430, "tHold")
//	res, _ := symsim.Analyze(p, symsim.Config{})
//	fmt.Printf("%d of %d gates exercisable (%.1f%% reduction)\n",
//		res.ExercisableCount, res.TotalGates, res.ReductionPct())
//	bsp, _ := symsim.Bespoke(res)
//
// # Bringing your own design
//
// The co-analysis is design-agnostic: any gate-level netlist built with
// the NewNetlist/NewModule construction APIs can be analyzed by filling in
// a Platform (the design, a state specification locating its flip-flops
// and PC, the $monitor_x control-flow signals, and clocking). The three
// built-in evaluation processors (bm32, openMSP430, dr5) show the pattern.
package symsim

import (
	"context"
	"io"

	"symsim/internal/bespoke"
	"symsim/internal/core"
	"symsim/internal/csm"
	"symsim/internal/lint"
	"symsim/internal/logic"
	"symsim/internal/netlist"
	"symsim/internal/power"
	"symsim/internal/prog"
	"symsim/internal/report"
	"symsim/internal/rtl"
	"symsim/internal/symeval"
	"symsim/internal/vvp"
)

// Design identifies a built-in evaluation processor.
type Design = report.Design

// The three processors of the paper's evaluation (Table 2).
const (
	// BM32 is the 32-bit MIPS implementation with a hardware multiplier.
	BM32 = report.BM32
	// OMSP430 is the 16-bit openMSP430 with multiplier, watchdog, GPIO
	// and TimerA peripherals.
	OMSP430 = report.OMSP430
	// DR5 is the RV32E darkRiscV-style core without a multiplier.
	DR5 = report.DR5
)

// Benchmarks lists the six applications of the paper's Table 1.
func Benchmarks() []string {
	var out []string
	for _, b := range prog.Benchmarks {
		out = append(out, b.Name)
	}
	return out
}

// BuildPlatform assembles the named benchmark for the design's ISA and
// binds it to the processor's gate-level netlist — elaborated once per
// process and shared by every platform of that design — with the program
// loaded and its input words initialized to X.
func BuildPlatform(d Design, benchmark string) (*Platform, error) {
	return report.BuildPlatform(d, benchmark)
}

// Platform packages a design under test: netlist, machine-state
// specification, monitored control-flow signals and clocking.
type Platform = core.Platform

// Config tunes a co-analysis run; the zero value is the paper's, and every
// command's and the job API's, one explorer under merge-all. Workers > 1
// keeps the dichotomy and the tie-offs, not the path and cycle counts.
type Config = core.Config

// Result is the outcome of a co-analysis: the exercisable/unexercisable
// gate dichotomy plus path and cycle accounting.
type Result = core.Result

// Analyze performs symbolic hardware/software co-analysis (paper
// Algorithm 1).
func Analyze(p *Platform, cfg Config) (*Result, error) { return core.Analyze(p, cfg) }

// AnalyzeContext is Analyze under a caller-supplied context: cancellation
// or an expired deadline stops the exploration cleanly and returns a
// partial but sound Result with Complete=false.
func AnalyzeContext(ctx context.Context, p *Platform, cfg Config) (*Result, error) {
	return core.AnalyzeContext(ctx, p, cfg)
}

// --- Run governance: budgets, degradation, checkpoint/resume ---

// Budget bounds a run (wall clock, simulated cycles, CSM states, forks)
// with graceful, sound degradation on exhaustion.
type Budget = core.Budget

// Trip identifies what ended an exploration early.
type Trip = core.Trip

// Trip causes.
const (
	TripNone      = core.TripNone
	TripCanceled  = core.TripCanceled
	TripWallClock = core.TripWallClock
	TripCycles    = core.TripCycles
	TripCSMStates = core.TripCSMStates
	TripForks     = core.TripForks
)

// Degradation reports how an incomplete run was kept sound.
type Degradation = core.Degradation

// Quarantine records a path worker that panicked and was contained.
type Quarantine = core.Quarantine

// Progress is one heartbeat snapshot of a running analysis.
type Progress = core.Progress

// ValidationError reports an invalid Platform or Config field.
type ValidationError = core.ValidationError

// CheckpointConfig enables periodic atomic checkpointing of a run.
type CheckpointConfig = core.CheckpointConfig

// Checkpoint is a consistent snapshot of a running co-analysis, usable as
// Config.Resume to continue an interrupted run.
type Checkpoint = core.Checkpoint

// SavedState is one exported conservative state inside a checkpoint.
type SavedState = csm.SavedState

// LoadCheckpoint reads and validates a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) { return core.LoadCheckpoint(path) }

// ErrCheckpointCorrupt is wrapped by every error a damaged checkpoint
// produces (truncation, bit rot, wrong magic, trailing bytes), so callers
// can distinguish corruption — restart fresh — from I/O failures with
// errors.Is.
var ErrCheckpointCorrupt = core.ErrCheckpointCorrupt

// --- Conservative state management (paper §3.3) ---

// Policy decides how conservative states are formed from the states
// observed at each PC.
type Policy = csm.Manager

// MergeAllPolicy keeps a single uber-conservative state per PC (the
// default, used by prior work [4]).
func MergeAllPolicy() Policy { return csm.NewMergeAll() }

// ClusteredPolicy keeps up to k conservative states per PC, trading
// simulation effort for less over-approximation (paper Figure 3).
func ClusteredPolicy(k int) Policy { return csm.NewClustered(k) }

// ExactPolicy never merges; exhaustive path enumeration with a state
// budget after which it degrades to merging.
func ExactPolicy(maxStates int) Policy { return csm.NewExact(maxStates) }

// Constraint states an application fact about state bits at a PC — a
// pinned bit, a register value range, or a bit relation — refining merged
// conservative states with application knowledge ([15]).
type Constraint = csm.Constraint

// ConstraintError identifies which constraint in a set was rejected and
// why; recover it from a ConstrainedPolicy error with errors.As.
type ConstraintError = csm.ConstraintError

// ConstrainedPolicy is merge-all refined by application constraints. It
// rejects malformed facts (out-of-range bits, inverted ranges) up front
// with a *ConstraintError rather than silently skipping them at observe
// time. The returned policy also proves forked children infeasible before
// the engine schedules them; pruning is sound, so it is always on.
func ConstrainedPolicy(bits int, cons []Constraint) (Policy, error) {
	return csm.NewConstrained(bits, cons)
}

// --- Bespoke processor generation (paper §3, [4]) ---

// BespokeResult describes a pruned, re-synthesized bespoke design.
type BespokeResult = bespoke.Result

// Bespoke prunes the unexercisable gates of a co-analysis result, ties
// their fanout to the observed constants and re-synthesizes the netlist.
func Bespoke(res *Result) (*BespokeResult, error) { return bespoke.Generate(res) }

// MemInit pins a memory word for a concrete run (ValidateBespoke,
// MeasurePower).
type MemInit = core.MemInit

// ValidationReport is the outcome of the paper's §5.0.1 validation.
type ValidationReport = bespoke.ValidationReport

// ValidateBespoke reruns the application with fixed known inputs on both
// netlists and checks output equivalence and the exercised-subset
// property.
func ValidateBespoke(sym *Result, bsp *BespokeResult, p *Platform, inputs []MemInit, maxCycles uint64) (*ValidationReport, error) {
	return bespoke.Validate(sym, bsp, p, inputs, maxCycles)
}

// --- Evaluation harness (paper §5) ---

// Sweep holds a full benchmark x design evaluation matrix.
type Sweep = report.Sweep

// SweepOptions configure RunSweep: benchmarks, designs and a progress
// callback, but no analysis config: every cell is the paper's analysis.
type SweepOptions = report.Options

// RunSweep reruns the paper's evaluation: one co-analysis per benchmark
// per design, each merge-all on one explorer, so Table 4 never varies.
func RunSweep(opt SweepOptions) (*Sweep, error) { return report.Run(opt) }

// Table1 renders the paper's benchmark table.
func Table1() string { return report.Table1() }

// Table2 renders the paper's platform characterization table.
func Table2() (string, error) { return report.Table2() }

// --- Design construction (bring your own netlist) ---

// Netlist is a flat gate-level design.
type Netlist = netlist.Netlist

// NewNetlist returns an empty netlist.
func NewNetlist(name string) *Netlist { return netlist.New(name) }

// Module is the word-level hardware construction DSL that elaborates to
// primitive gates (the "synthesis" front end).
type Module = rtl.Module

// NewModule creates a module with clock/reset infrastructure.
func NewModule(name string) *Module { return rtl.NewModule(name) }

// Bus is an ordered set of nets forming a word.
type Bus = rtl.Bus

// Simulator is the event-driven four-valued gate-level engine underlying
// the co-analysis (the vvp analogue of paper Figure 2).
type Simulator = vvp.Simulator

// SimOptions configure a raw simulator.
type SimOptions = vvp.Options

// SimStatus is the outcome of one simulation step.
type SimStatus = vvp.Status

// Simulation step outcomes.
const (
	// Running: the step completed without a symbolic event.
	Running = vvp.Running
	// HaltX: a monitored control-flow signal was X at a PC-changing
	// instruction.
	HaltX = vvp.HaltX
	// Finished: the design raised its terminating condition.
	Finished = vvp.Finished
)

// SimEngine selects the simulation machinery: the compiled kernel
// (default), the reference interpreter, or the bit-parallel batch engine.
// All produce the same dichotomy.
type SimEngine = vvp.Engine

// Simulation engines.
const (
	// EngineKernel is the compiled kernel: flattened netlist tables,
	// branch-free four-valued evaluation, adaptive level sweeps.
	EngineKernel = vvp.EngineKernel
	// EngineInterp is the reference interpreter the kernel is
	// differentially tested against.
	EngineInterp = vvp.EngineInterp
	// EngineBatch is the bit-parallel batched kernel: up to 64 pending
	// paths packed into two bitplanes per net and swept together in one
	// pass over the levelized design. Only Config.Engine selects it; no
	// command-line flag or job spec does.
	EngineBatch = vvp.EngineBatch
)

// NewSimulator creates a simulator for a frozen netlist.
func NewSimulator(d *Netlist, opts SimOptions) *Simulator { return vvp.New(d, opts) }

// Stimulus is a testbench schedule (clock, reset, input events).
type Stimulus = vvp.Stimulus

// MonitorXSpec is the $monitor_x argument: the control-flow signals whose
// X-ness halts the simulation at a PC-changing instruction.
type MonitorXSpec = vvp.MonitorXSpec

// StateSpec locates the machine state (flip-flops, memories, PC) for
// save/restore and conservative state management.
type StateSpec = vvp.StateSpec

// StateSpecFor builds the state specification for a design given the name
// of its PC register nets.
func StateSpecFor(d *Netlist, pcName string) (*StateSpec, error) { return vvp.SpecFor(d, pcName) }

// Value is a four-valued logic scalar (0, 1, X, Z).
type Value = logic.Value

// Four-valued logic constants.
const (
	Lo = logic.Lo
	Hi = logic.Hi
	X  = logic.X
	Z  = logic.Z
)

// Vec is a packed ternary vector.
type Vec = logic.Vec

// NewVec returns an all-X ternary vector of the given width.
func NewVec(width int) Vec { return logic.NewVec(width) }

// NewVecUint64 returns a fully known vector holding v.
func NewVecUint64(width int, v uint64) Vec { return logic.NewVecUint64(width, v) }

// --- Symbol propagation customization (paper §3.4, Figure 4) ---

// Sym is a four-valued logic value extended with symbol identity and
// taint labels: propagating each unknown input as a distinct symbol lets
// reconverging paths simplify, and taint implements gate-level
// information-flow tracking.
type Sym = logic.Sym

// SymInput returns a fresh identified input symbol.
func SymInput(id uint32, taint uint64) Sym { return logic.SymInput(id, taint) }

// SymAnon returns an anonymous unknown carrying the given taint.
func SymAnon(taint uint64) Sym { return logic.SymAnon(taint) }

// SymConst returns a constant symbolic value.
func SymConst(v Value) Sym { return logic.SymConst(v) }

// SymEvaluator propagates identified symbols through a netlist's
// combinational logic.
type SymEvaluator = symeval.Evaluator

// NewSymEvaluator creates a symbolic evaluator for a frozen netlist.
func NewSymEvaluator(d *Netlist) *SymEvaluator { return symeval.New(d) }

// GateKind enumerates the primitive cells of the netlist IR.
type GateKind = netlist.GateKind

// Primitive gate kinds (see netlist.GateKind for pin conventions).
const (
	KindConst0 = netlist.KindConst0
	KindConst1 = netlist.KindConst1
	KindBuf    = netlist.KindBuf
	KindNot    = netlist.KindNot
	KindAnd    = netlist.KindAnd
	KindOr     = netlist.KindOr
	KindNand   = netlist.KindNand
	KindNor    = netlist.KindNor
	KindXor    = netlist.KindXor
	KindXnor   = netlist.KindXnor
	KindMux2   = netlist.KindMux2
	KindDFF    = netlist.KindDFF
)

// NetID identifies a net within one netlist.
type NetID = netlist.NetID

// Digest is the canonical content hash of a netlist, returned by
// (*Netlist).Hash: a positional digest of the structure in declaration
// order, rename-stable, and sensitive to any logic, parameter or
// memory-initialization change (the program image lives in ROM init, so
// it is covered). It is the identity under which symsimd caches analysis
// results, a checkpoint names its platform and `symsim lint` reports
// designs; elaboration is deterministic, so a built-in design hashes alike
// in every process.
type Digest = netlist.Digest

// TieOff is one never-exercisable gate with the constant its output
// settles to, as reported by Result.TieOffs.
type TieOff = netlist.TieOff

// --- Waveforms, interchange, and power analysis ---

// Trace records the event list of a simulation run.
type Trace = vvp.Trace

// WriteVCD renders a recorded trace as a Value Change Dump for waveform
// viewers.
func WriteVCD(w io.Writer, d *Netlist, tr *Trace, timescale string) error {
	return vvp.WriteVCD(w, d, tr, timescale)
}

// ReadNetlist parses the JSON netlist interchange format (the validated,
// frozen result is ready for simulation). Netlist values expose Write
// (JSON) and WriteVerilog for the reverse direction.
func ReadNetlist(r io.Reader) (*Netlist, error) { return netlist.Read(r) }

// --- Structural static analysis ---

// LintResult is the outcome of a structural lint run: typed diagnostics
// with stable codes (NL001…), severities and element locations.
type LintResult = lint.Result

// LintOptions tune a lint run; the zero value runs every check.
type LintOptions = lint.Options

// LintDiag is one structural finding.
type LintDiag = lint.Diag

// Lint runs structural static analysis over a netlist: combinational
// loops, multi-driven and undriven nets, dead and constant cones,
// flip-flop/memory control sanity and X reachability. It never panics,
// even on netlists Freeze would reject. For a Platform's design, prefer
// p.LintOptions() so the testbench semantics (concrete clocking,
// monitored nets) inform the analysis.
func Lint(n *Netlist, opts LintOptions) *LintResult { return lint.Run(n, opts) }

// PowerProfile is the switching-activity measurement of one concrete run.
type PowerProfile = power.Profile

// MeasurePower runs the platform's application with concrete inputs and
// collects per-net switching activity, total toggles and the per-cycle
// peak — the data behind the peak-power [5] and power-gating [6] analyses
// the co-analysis enables.
func MeasurePower(p *Platform, inputs []MemInit, maxCycles uint64) (*PowerProfile, error) {
	return power.Measure(p, inputs, maxCycles)
}

// SymbolicPeakBound is the static per-cycle switching bound the symbolic
// analysis licenses: only exercisable gates can ever toggle.
func SymbolicPeakBound(res *Result) uint64 { return power.SymbolicPeakBound(res) }

// SeqSymEvaluator steps identified symbols through a clocked design,
// cycle by cycle — taint tracking across registers ([7]).
type SeqSymEvaluator = symeval.Sequential

// NewSeqSymEvaluator creates a cycle-stepping symbolic evaluator for a
// frozen, memory-free netlist.
func NewSeqSymEvaluator(d *Netlist) (*SeqSymEvaluator, error) { return symeval.NewSequential(d) }
