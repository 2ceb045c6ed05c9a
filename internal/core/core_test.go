package core_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"symsim/internal/bespoke"
	"symsim/internal/core"
	"symsim/internal/cpu/dr5"
	"symsim/internal/csm"
	"symsim/internal/isa/rv32"
	"symsim/internal/lint"
	"symsim/internal/logic"
	"symsim/internal/netlist"
	"symsim/internal/vvp"
)

// analyze assembles prog, builds dr5 and runs the co-analysis.
func analyze(t *testing.T, cfg core.Config, prog func(a *rv32.Asm)) *core.Result {
	t.Helper()
	a := rv32.NewAsm()
	prog(a)
	img, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	p, err := dr5.Build(img)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// straightLine is input-independent: a single simulation path, like the
// tea8 benchmark of the paper (Table 4: 1 path, 0 skipped).
func TestStraightLineSinglePath(t *testing.T) {
	res := analyze(t, core.Config{}, func(a *rv32.Asm) {
		a.LI(rv32.T0, 7)
		a.ADDI(rv32.T0, rv32.T0, 35)
		a.SW(rv32.T0, rv32.X0, 0)
		a.Halt()
	})
	if res.PathsCreated != 1 || res.PathsSkipped != 0 {
		t.Errorf("paths = %d created / %d skipped, want 1/0", res.PathsCreated, res.PathsSkipped)
	}
	if len(res.Paths) != 1 || res.Paths[0].End != core.EndFinished {
		t.Errorf("paths: %+v", res.Paths)
	}
	if res.SimulatedCycles == 0 {
		t.Error("no cycles recorded")
	}
	if res.ExercisableCount == 0 || res.ExercisableCount >= res.TotalGates {
		t.Errorf("exercisable = %d of %d", res.ExercisableCount, res.TotalGates)
	}
}

// xBranch loads an application input (X) and branches on it: the canonical
// fork. Both sides of the branch must be explored and their gates
// exercised.
func TestXBranchForksAndExploresBothSides(t *testing.T) {
	res := analyze(t, core.Config{}, func(a *rv32.Asm) {
		a.XWord(0) // input word
		a.LW(rv32.T0, rv32.X0, 0)
		a.SLTI(rv32.T1, rv32.T0, 5)
		a.BNE(rv32.T1, rv32.X0, "less")
		a.LI(rv32.A0, 111)
		a.SW(rv32.A0, rv32.X0, 4)
		a.Halt()
		a.Label("less")
		a.LI(rv32.A1, 222)
		a.SW(rv32.A1, rv32.X0, 8)
		a.Halt()
	})
	// Initial path + one fork (2 children) = 3 created; children may
	// themselves halt at no further branch, so no skips are required but
	// both must finish.
	if res.PathsCreated < 3 {
		t.Errorf("paths created = %d, want >= 3", res.PathsCreated)
	}
	finished := 0
	for _, p := range res.Paths {
		if p.End == core.EndFinished {
			finished++
		}
	}
	if finished < 2 {
		t.Errorf("finished paths = %d, want >= 2 (both branch sides)", finished)
	}
}

// xLoop: a loop whose trip count is an input. The CSM must converge via
// conservative-state merging rather than unrolling forever.
func TestXLoopConvergesViaMerging(t *testing.T) {
	res := analyze(t, core.Config{}, func(a *rv32.Asm) {
		a.XWord(0)
		a.LW(rv32.T0, rv32.X0, 0)
		a.ANDI(rv32.T0, rv32.T0, 0xF) // bound the counter to [0,15]
		a.LI(rv32.T1, 0)
		a.Label("loop")
		a.ADDI(rv32.T1, rv32.T1, 1)
		a.ADDI(rv32.T0, rv32.T0, -1)
		a.BNE(rv32.T0, rv32.X0, "loop")
		a.SW(rv32.T1, rv32.X0, 4)
		a.Halt()
	})
	if res.PathsSkipped == 0 {
		t.Error("expected CSM subsumption on a merged loop state")
	}
	if res.PathsCreated >= 5000 {
		t.Errorf("did not converge: %d paths", res.PathsCreated)
	}
	t.Logf("loop: %d created, %d skipped, %d cycles, %d csm states",
		res.PathsCreated, res.PathsSkipped, res.SimulatedCycles, res.CSMStates)
}

// Unexercised logic: a program that never uses the shifter datapath in a
// meaningful way still exercises most of the core, but a program that
// never multiplies (dr5 has no multiplier; use the comparison: a program
// with no loads keeps parts of the memory read path unexercised).
func TestDichotomyDetectsUnexercisedGates(t *testing.T) {
	res := analyze(t, core.Config{}, func(a *rv32.Asm) {
		a.LI(rv32.T0, 1)
		a.SW(rv32.T0, rv32.X0, 0)
		a.Halt()
	})
	if got := res.TotalGates - res.ExercisableCount; got == 0 {
		t.Error("no unexercisable gates found in a trivial program")
	}
	ties := res.TieOffs()
	if len(ties) != res.TotalGates-res.ExercisableCount {
		t.Errorf("ties = %d, want %d", len(ties), res.TotalGates-res.ExercisableCount)
	}
	if res.ReductionPct() <= 0 || res.ReductionPct() >= 100 {
		t.Errorf("reduction = %.1f%%", res.ReductionPct())
	}
}

// The exercised set of a concrete run must be a subset of the exercisable
// set reported by the symbolic analysis (paper §5.0.1 validation), under
// absorb's rule: a net the run toggled, or left X, is exercised.
// bespoke.Validate holds the one copy of that check, and the bespoke
// processor must reproduce the original's outputs on every input.
func TestConcreteExercisedSubsetOfSymbolic(t *testing.T) {
	for _, tc := range []struct {
		name   string
		prog   func(a *rv32.Asm)
		inputs []uint64 // the value of the X word, one concrete run each
	}{
		{"branch", func(a *rv32.Asm) {
			a.XWord(0)
			a.LW(rv32.T0, rv32.X0, 0)
			a.SLTI(rv32.T1, rv32.T0, 100)
			a.BNE(rv32.T1, rv32.X0, "small")
			a.LI(rv32.A0, 1)
			a.SW(rv32.A0, rv32.X0, 4)
			a.Halt()
			a.Label("small")
			a.LI(rv32.A0, 2)
			a.SW(rv32.A0, rv32.X0, 4)
			a.Halt()
		}, []uint64{7}},
		// A store through an X address: word 1 or word 2 gets the 7. A rule
		// that dropped the write would leave word 1 known 0, so the branch
		// on it would always skip to done, and input 0, which stores to
		// word 1, would run code the symbolic run marked unexercisable.
		{"X-address store", func(a *rv32.Asm) {
			a.XWord(0)
			a.Word(1, 0)
			a.Word(2, 0)
			a.LW(rv32.T0, rv32.X0, 0)
			a.ANDI(rv32.T0, rv32.T0, 1)
			a.SLLI(rv32.T0, rv32.T0, 2)
			a.LI(rv32.A0, 7)
			a.SW(rv32.A0, rv32.T0, 4)
			a.LW(rv32.T1, rv32.X0, 4)
			a.BEQ(rv32.T1, rv32.X0, "done")
			a.SRA(rv32.A1, rv32.A0, rv32.T0)
			a.SW(rv32.A1, rv32.X0, 12)
			a.Label("done")
			a.Halt()
		}, []uint64{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := rv32.NewAsm()
			tc.prog(a)
			p, err := dr5.Build(a.MustAssemble())
			if err != nil {
				t.Fatal(err)
			}
			symbolic, err := core.Analyze(p, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			bsp, err := bespoke.Generate(symbolic)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range tc.inputs {
				rep, err := bespoke.Validate(symbolic, bsp, p, []core.MemInit{{Mem: "dmem", Word: 0, Val: logic.NewVecUint64(32, in)}}, 1<<20)
				if err != nil {
					t.Fatalf("input %d: %v", in, err)
				}
				if rep.ExercisedConcrete == 0 || rep.SubsetViolations != 0 {
					t.Fatalf("input %d: exercised %d nets concretely, %d outside the symbolic set", in, rep.ExercisedConcrete, rep.SubsetViolations)
				}
			}
		})
	}
}

// The exact policy explores loop-free X branches without merging. (On
// input-bound loops exact enumeration is intractable — which is precisely
// the paper's motivation for conservative states; see the safety-valve test
// below.)
func TestExactPolicyEnumerates(t *testing.T) {
	res := analyze(t, core.Config{Policy: csm.NewExact(0)}, func(a *rv32.Asm) {
		a.XWord(0)
		a.LW(rv32.T0, rv32.X0, 0)
		a.SLTI(rv32.T1, rv32.T0, 5)
		a.BNE(rv32.T1, rv32.X0, "less")
		a.SW(rv32.T0, rv32.X0, 4)
		a.Halt()
		a.Label("less")
		a.SW(rv32.T0, rv32.X0, 8)
		a.Halt()
	})
	if res.Policy != "exact" {
		t.Errorf("policy = %q", res.Policy)
	}
	if res.PathsCreated < 3 {
		t.Errorf("paths created = %d, want >= 3", res.PathsCreated)
	}
	t.Logf("exact: %d created, %d skipped", res.PathsCreated, res.PathsSkipped)
}

// With a tiny state budget the exact policy degrades to merging and an
// input-bound loop still converges instead of enumerating forever.
func TestExactPolicySafetyValveConverges(t *testing.T) {
	res := analyze(t, core.Config{Policy: csm.NewExact(8)}, func(a *rv32.Asm) {
		a.XWord(0)
		a.LW(rv32.T0, rv32.X0, 0)
		a.ANDI(rv32.T0, rv32.T0, 0x3)
		a.LI(rv32.T1, 0)
		a.Label("loop")
		a.ADDI(rv32.T1, rv32.T1, 1)
		a.ADDI(rv32.T0, rv32.T0, -1)
		a.BNE(rv32.T0, rv32.X0, "loop")
		a.SW(rv32.T1, rv32.X0, 4)
		a.Halt()
	})
	if res.PathsCreated >= 3000 {
		t.Errorf("safety valve did not converge: %d paths", res.PathsCreated)
	}
	t.Logf("exact+valve: %d created, %d skipped", res.PathsCreated, res.PathsSkipped)
}

func TestParallelWorkersMatchSequentialDichotomy(t *testing.T) {
	prog := func(a *rv32.Asm) {
		a.XWord(0)
		a.LW(rv32.T0, rv32.X0, 0)
		a.ANDI(rv32.T0, rv32.T0, 0x7)
		a.LI(rv32.T1, 0)
		a.Label("loop")
		a.ADDI(rv32.T1, rv32.T1, 1)
		a.ADDI(rv32.T0, rv32.T0, -1)
		a.BNE(rv32.T0, rv32.X0, "loop")
		a.SW(rv32.T1, rv32.X0, 4)
		a.Halt()
	}
	seq := analyze(t, core.Config{Workers: 1}, prog)
	par := analyze(t, core.Config{Workers: 4}, prog)
	// Path counts may differ with merge order, but the final gate
	// dichotomy must be identical for a deterministic design: both are
	// sound over-approximations reaching the same fixpoint with the
	// merge-all policy.
	if seq.ExercisableCount != par.ExercisableCount {
		t.Errorf("exercisable: seq=%d par=%d", seq.ExercisableCount, par.ExercisableCount)
	}
}

// The constrained policy ([15]) must never report more exercisable gates
// than plain merge-all: constraints only remove over-approximation. Here
// the loop counter's high bits are pinned at the loop-branch PC (the
// designer knows the masked counter fits in 4 bits).
func TestConstrainedPolicyReducesOverApproximation(t *testing.T) {
	prog := func(a *rv32.Asm) {
		a.XWord(0)
		a.LW(rv32.T0, rv32.X0, 0)
		a.ANDI(rv32.T0, rv32.T0, 0xF)
		a.LI(rv32.T1, 0)
		a.Label("loop")
		a.ADDI(rv32.T1, rv32.T1, 1)
		a.ADDI(rv32.T0, rv32.T0, -1)
		a.BNE(rv32.T0, rv32.X0, "loop")
		a.SW(rv32.T1, rv32.X0, 4)
		a.Halt()
	}
	base := analyze(t, core.Config{}, prog)

	// Build the same platform again to derive the constraint bit indices.
	a := rv32.NewAsm()
	prog(a)
	p, err := dr5.Build(a.MustAssemble())
	if err != nil {
		t.Fatal(err)
	}
	var cons []csm.Constraint
	for bit := 5; bit < 32; bit++ {
		idx := p.Spec.BitOfNet(fmt.Sprintf("rf_r6[%d]", bit)) // T1 = x6
		if idx < 0 {
			t.Fatalf("no state bit for rf_r6[%d]", bit)
		}
		cons = append(cons, csm.Constraint{AnyPC: true, Bit: idx, Val: logic.Lo})
	}
	pol, err := csm.NewConstrained(p.Spec.Bits(), cons)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(p, core.Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExercisableCount > base.ExercisableCount {
		t.Errorf("constrained exercisable %d > merge-all %d", res.ExercisableCount, base.ExercisableCount)
	}
	t.Logf("merge-all %d exercisable, constrained %d", base.ExercisableCount, res.ExercisableCount)
}

// A path budget that cannot hold the exploration must surface as an error
// rather than a silent truncation (no silent caps).
func TestPathBudgetExhaustionErrors(t *testing.T) {
	a := rv32.NewAsm()
	a.XWord(0)
	a.LW(rv32.T0, rv32.X0, 0)
	a.ANDI(rv32.T0, rv32.T0, 0xF)
	a.LI(rv32.T1, 0)
	a.Label("loop")
	a.ADDI(rv32.T1, rv32.T1, 1)
	a.ADDI(rv32.T0, rv32.T0, -1)
	a.BNE(rv32.T0, rv32.X0, "loop")
	a.Halt()
	p, err := dr5.Build(a.MustAssemble())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Analyze(p, core.MaxPaths(core.Config{}, 2)); err == nil {
		t.Fatal("exhausted path budget did not error")
	}
}

// A per-path cycle budget too small for the reset-to-halt run must error.
// Past the cold boot it must too, on every engine, naming the forked
// segment that ran into it.
func TestCycleBudgetExhaustionErrors(t *testing.T) {
	a := rv32.NewAsm()
	a.LI(rv32.T0, 100)
	a.Label("spin")
	a.ADDI(rv32.T0, rv32.T0, -1)
	a.BNE(rv32.T0, rv32.X0, "spin")
	a.Halt()
	p, err := dr5.Build(a.MustAssemble())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Analyze(p, core.MaxCyclesPerPath(core.Config{}, 8)); err == nil {
		t.Fatal("exhausted cycle budget did not error")
	}

	// The cold boot (path 0) halts at a branch on an X input. The not-taken
	// side, popped first and so path 1, finishes at once; the taken side,
	// path 2, spins on a concrete condition.
	a = rv32.NewAsm()
	a.XWord(0)
	a.LW(rv32.T0, rv32.X0, 0)
	a.BNE(rv32.T0, rv32.X0, "spin")
	a.Halt()
	a.Label("spin")
	a.ADDI(rv32.T1, rv32.T1, 1)
	a.BEQ(rv32.X0, rv32.X0, "spin")
	if p, err = dr5.Build(a.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	for _, eng := range []vvp.Engine{vvp.EngineKernel, vvp.EngineBatch} {
		_, err := core.Analyze(p, core.MaxCyclesPerPath(core.Config{Engine: eng}, 64))
		if want := "core: path 2: vvp: cycle limit 64 reached"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: error %v, want one containing %q", eng, err, want)
		}
	}
}

// A structurally broken design must abort Analyze before any simulator is
// built, with the lint pass's full diagnostics (not Freeze's terse
// first-failure error).
func TestAnalyzeRejectsCombLoopViaLint(t *testing.T) {
	n := netlist.New("loopy")
	n.AddInput("clk")
	n.AddInput("rst_n")
	x := n.AddNet("x")
	y := n.AddNet("y")
	n.AddGate(netlist.KindNot, x, y)
	n.AddGate(netlist.KindNot, y, x)
	n.MarkOutput(x)
	spec, err := vvp.SpecFor(n, "")
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Platform{Name: "loopy", Design: n, Spec: spec, HalfPeriod: 5, ResetCycles: 2}
	p.Monitor = vvp.MonitorXSpec{BranchActive: netlist.NoNet, Cond: netlist.NoNet, Finish: netlist.NoNet}

	_, err = core.Analyze(p, core.Config{})
	if err == nil {
		t.Fatal("comb loop passed the structural pre-check")
	}
	if !strings.Contains(err.Error(), "NL001") {
		t.Fatalf("error should carry the lint code NL001: %v", err)
	}

	// Without the pre-check Freeze still rejects the design — but with its
	// own error, not a coded diagnostic.
	_, err = core.Analyze(p, core.SkipLint(core.Config{}))
	if err == nil {
		t.Fatal("comb loop passed Freeze")
	}
	if strings.Contains(err.Error(), "NL001") {
		t.Fatalf("with lint skipped the error should come from Freeze, got: %v", err)
	}
}

// The pre-check tolerates warnings: an analysis completes on a design
// whose Platform.Lint() has warning-severity findings (dr5's elaboration
// is known to leave dead gates).
func TestAnalyzeForwardsLintWarnings(t *testing.T) {
	a := rv32.NewAsm()
	a.LI(rv32.T0, 1)
	a.SW(rv32.T0, rv32.X0, 0)
	a.Halt()
	img, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	p, err := dr5.Build(img)
	if err != nil {
		t.Fatal(err)
	}
	lr := p.Lint()
	if lr.HasErrors() || !slices.ContainsFunc(lr.Diags, func(d lint.Diag) bool { return d.Sev == lint.SevWarn }) {
		t.Fatalf("want a design with lint warnings and no errors, got %d diagnostics, %d errors", len(lr.Diags), lr.ErrorCount())
	}
	res, err := core.Analyze(p, core.Config{})
	if err != nil {
		t.Fatalf("analysis refused on lint warnings: %v", err)
	}
	if !res.Complete || res.ExercisableCount == 0 {
		t.Fatalf("analysis did not complete: complete=%v, %d exercisable gates", res.Complete, res.ExercisableCount)
	}
}

// The batch engine packs up to 64 path segments into one bit-parallel
// sweep. Path counts and merge order may differ from the scalar kernel
// (lanes retire in bulk), but the gate dichotomy is a fixpoint of sound
// over-approximations and must be identical.
func TestBatchEngineMatchesKernelDichotomy(t *testing.T) {
	prog := func(a *rv32.Asm) {
		a.XWord(0)
		a.LW(rv32.T0, rv32.X0, 0)
		a.ANDI(rv32.T0, rv32.T0, 0x7)
		a.LI(rv32.T1, 0)
		a.Label("loop")
		a.ADDI(rv32.T1, rv32.T1, 1)
		a.ADDI(rv32.T0, rv32.T0, -1)
		a.BNE(rv32.T0, rv32.X0, "loop")
		a.SW(rv32.T1, rv32.X0, 4)
		a.Halt()
	}
	ref := analyze(t, core.Config{Engine: vvp.EngineKernel}, prog)
	for _, lanes := range []int{0, 3} { // full-width and a tight lane cap
		res := analyze(t, core.Lanes(core.Config{Engine: vvp.EngineBatch}, lanes), prog)
		if res.ExercisableCount != ref.ExercisableCount {
			t.Errorf("lanes=%d: exercisable %d, kernel %d", lanes, res.ExercisableCount, ref.ExercisableCount)
		}
		for g := range ref.ExercisableGates {
			if res.ExercisableGates[g] != ref.ExercisableGates[g] {
				t.Errorf("lanes=%d: gate %d dichotomy differs", lanes, g)
			}
		}
		if !res.Complete {
			t.Errorf("lanes=%d: batch run degraded: %+v", lanes, res.Degradation)
		}
		if res.PathsSkipped == 0 {
			t.Errorf("lanes=%d: expected CSM subsumption under batch engine", lanes)
		}
	}
}

// TestUnknownEndValueIsExercisable: a net that is X from the moment a path
// starts recording to its last step never changes, so no engine marks it in
// the path's profile, and it is exercisable all the same — an unknown means
// some input could toggle it. absorb applies that rule to the end values,
// before it looks for a tie-off constant: an X was never one. The design
// counts to three on two flip-flops, branches on an input nobody drives when
// the count is one — so the run is the cold path and two forked ones, and
// abuf is X in all three — and finishes at three.
func TestUnknownEndValueIsExercisable(t *testing.T) {
	n := netlist.New("xnet")
	clk, rstn, a := n.AddInput("clk"), n.AddInput("rst_n"), n.AddInput("a")
	net := func(name string, kind netlist.GateKind, in ...netlist.NetID) netlist.NetID {
		out := n.AddNet(name)
		n.AddGate(kind, out, in...)
		return out
	}
	one := net("one", netlist.KindConst1)
	c0, c1 := n.AddNet("c0"), n.AddNet("c1")
	n.AddDFF(c0, net("d0", netlist.KindNot, c0), clk, one, rstn, logic.Lo)
	n.AddDFF(c1, net("d1", netlist.KindXor, c1, c0), clk, one, rstn, logic.Lo)
	abuf := net("abuf", netlist.KindBuf, a)
	cond := net("cond", netlist.KindAnd, abuf, one)
	taken := n.AddNet("taken")
	n.AddDFF(taken, cond, clk, one, rstn, logic.Lo)
	br := net("br", netlist.KindAnd, c0, net("nc1", netlist.KindNot, c1))
	fin := net("fin", netlist.KindAnd, c0, c1)
	n.MarkOutput(taken)
	n.MarkOutput(fin)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	spec, err := vvp.SpecFor(n, "")
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Platform{Name: "xnet", Design: n, Spec: spec, HalfPeriod: 5, ResetCycles: 2,
		Monitor: vvp.MonitorXSpec{BranchActive: br, Cond: cond, Finish: fin}}
	for _, eng := range []vvp.Engine{vvp.EngineKernel, vvp.EngineBatch} {
		res, err := core.Analyze(p, core.SkipLint(core.Config{Engine: eng}))
		if err != nil {
			t.Fatal(err)
		}
		if res.PathsCreated != 3 || !res.Complete {
			t.Fatalf("%v: %d paths, complete = %v; want the cold path and both sides of one fork", eng, res.PathsCreated, res.Complete)
		}
		if !res.ToggledNets[abuf] || !res.ExercisableGates[n.Nets[abuf].Driver] {
			t.Errorf("%v: abuf is X from restore to finish on every path and is not exercisable", eng)
		}
		if res.ConstNets[abuf] == logic.X {
			t.Errorf("%v: X recorded as the tie-off constant of abuf", eng)
		}
		// The rule marks nothing that holds a value: one is 1 on every path.
		if res.ToggledNets[one] || res.ConstNets[one] != logic.Hi {
			t.Errorf("%v: the constant net is exercisable = %v with constant %v", eng, res.ToggledNets[one], res.ConstNets[one])
		}
	}
}
