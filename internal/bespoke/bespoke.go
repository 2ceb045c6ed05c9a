// Package bespoke implements automatic generation of application-specific
// bespoke processors from symbolic co-analysis results (paper §3, following
// [4]): gates the analysis proves unexercisable are pruned away, their
// fanout is tied to the constant value observed during symbolic simulation,
// and the netlist is re-synthesized (constant propagation + dead-logic
// sweep). The package also implements the paper's §5.0.1 validation:
// simulating fixed known inputs on both the original and the bespoke
// netlist and checking that outputs agree, and that the concretely
// exercised gate set is a subset of the symbolically exercisable set.
package bespoke

import (
	"fmt"

	"symsim/internal/core"
	"symsim/internal/lint"
	"symsim/internal/logic"
	"symsim/internal/netlist"
	"symsim/internal/vvp"
)

// Result describes one bespoke generation.
type Result struct {
	// Original is the input design, Bespoke the pruned re-synthesized one.
	Original, Bespoke *netlist.Netlist
	// ExercisableGates is the paper's Table 3 "GateCount" metric: the
	// number of gates the analysis could not prove unexercisable.
	ExercisableGates int
	// OriginalGates and BespokeGates are primitive-cell counts.
	OriginalGates, BespokeGates int
	// Resynth carries the tie/fold/sweep accounting.
	Resynth *netlist.ResynthResult
}

// ReductionPct is the paper's "% reduction" metric, computed — as in the
// paper — from the exercisable-gate dichotomy.
func (r *Result) ReductionPct() float64 {
	if r.OriginalGates == 0 {
		return 0
	}
	return 100 * float64(r.OriginalGates-r.ExercisableGates) / float64(r.OriginalGates)
}

// lintOpts configures the before/after structural comparison around
// Resynthesize. The X-cone summary is skipped: it is a whole-design
// fixpoint that says nothing about transformation soundness.
var lintOpts = lint.Options{Disable: []lint.Code{lint.CodeXCone}}

// Generate prunes the unexercisable gates of the analysis result and
// re-synthesizes the design into a bespoke netlist. The pruned netlist is
// then re-linted against the original: re-synthesis must not introduce
// any new structural diagnostic. Constant-tied flip-flop and memory
// controls (NL007/NL008) are exempt — tying controls to the constants the
// symbolic analysis observed is exactly what pruning does.
func Generate(res *core.Result) (*Result, error) {
	before := lint.Run(res.Design, lintOpts)
	rr, err := netlist.Resynthesize(res.Design, res.TieOffs())
	if err != nil {
		return nil, err
	}
	after := lint.Run(rr.Netlist, lintOpts)
	if regress := lint.NewDiags(before, after, lint.CodeDFFControl, lint.CodeMemControl); len(regress) > 0 {
		return nil, fmt.Errorf("bespoke: re-synthesis introduced %d new lint findings; first: %s",
			len(regress), regress[0])
	}
	return &Result{
		Original:         res.Design,
		Bespoke:          rr.Netlist,
		ExercisableGates: res.ExercisableCount,
		OriginalGates:    len(res.Design.Gates),
		BespokeGates:     len(rr.Netlist.Gates),
		Resynth:          rr,
	}, nil
}

// MemInit pins one memory word to a concrete value before a validation
// run: the "fixed known inputs" of paper §5.0.1, injected into the
// application-input words the symbolic analysis left as X.
type MemInit struct {
	Mem  string
	Word int
	Val  logic.Vec
}

// ValidationReport is the outcome of the §5.0.1 validation run.
type ValidationReport struct {
	// Cycles is the length of the concrete run on the original design.
	Cycles uint64
	// OutputsCompared counts per-cycle primary-output observations.
	OutputsCompared int
	// MemWordsCompared counts data-memory words compared at the end.
	MemWordsCompared int
	// ExercisedConcrete is the number of nets the concrete run exercised
	// on the original design.
	ExercisedConcrete int
	// SubsetViolations counts concretely exercised nets the symbolic
	// analysis missed (must be zero).
	SubsetViolations int
}

// concreteRunner drives one design to its terminating condition while
// sampling primary outputs every clock cycle.
type concreteRunner struct {
	sim     *vvp.Simulator
	outputs []netlist.NetID
	samples []logic.Value
}

func newRunner(d *netlist.Netlist, mon *vvp.MonitorXSpec, stim *vvp.Stimulus, inputs []MemInit) (*concreteRunner, error) {
	if err := d.Freeze(); err != nil {
		return nil, err
	}
	sim := vvp.New(d, vvp.Options{})
	sim.SetMonitorX(mon)
	sim.BindStimulus(stim)
	for _, in := range inputs {
		id, ok := d.MemByName(in.Mem)
		if !ok {
			return nil, fmt.Errorf("bespoke: no memory %q", in.Mem)
		}
		sim.SetMemWord(id, in.Word, in.Val)
	}
	return &concreteRunner{sim: sim, outputs: d.Outputs}, nil
}

// skipTo steps the simulation through the reset prefix so both designs
// start sampling at the same cycle.
func (cr *concreteRunner) skipTo(time uint64) error {
	for cr.sim.Now() <= time {
		if _, err := cr.sim.Step(); err != nil {
			return err
		}
	}
	return nil
}

func (cr *concreteRunner) run(maxCycles uint64) error {
	lastCycle := cr.sim.Cycles()
	for {
		status, err := cr.sim.Step()
		if err != nil {
			return err
		}
		if cr.sim.Cycles() != lastCycle {
			lastCycle = cr.sim.Cycles()
			for _, o := range cr.outputs {
				cr.samples = append(cr.samples, cr.sim.Value(o))
			}
		}
		switch status {
		case vvp.Finished:
			return nil
		case vvp.HaltX:
			return fmt.Errorf("bespoke: validation run halted on X at t=%d", cr.sim.Now())
		}
		if cr.sim.Cycles() > maxCycles {
			return fmt.Errorf("bespoke: validation run exceeded %d cycles", maxCycles)
		}
	}
}

// bespokeMonitor builds the reduced $monitor_x spec for the pruned design:
// only the terminating-condition net is required for a concrete run.
func bespokeMonitor(d *netlist.Netlist) (vvp.MonitorXSpec, error) {
	finish, ok := d.NetByName("halted")
	if !ok {
		return vvp.MonitorXSpec{}, fmt.Errorf("bespoke: pruned design lost its halted net")
	}
	return vvp.MonitorXSpec{BranchActive: netlist.NoNet, Cond: netlist.NoNet, Finish: finish}, nil
}

// Validate reruns the application with fixed known inputs on both the
// original and the bespoke netlist and compares cycle-by-cycle primary
// outputs and final data memory (paper §5.0.1). It also verifies that the
// set of gates exercised by the fixed-input run is a subset of the set of
// exercisable gates reported by the symbolic analysis.
func Validate(sym *core.Result, bsp *Result, p *core.Platform, inputs []MemInit, maxCycles uint64) (*ValidationReport, error) {
	rep := &ValidationReport{}

	orig, err := newRunner(p.Design, &p.Monitor, p.Stimulus(), inputs)
	if err != nil {
		return nil, err
	}
	resetEnd := (uint64(2*p.ResetCycles))*p.HalfPeriod + 1
	if err := orig.skipTo(resetEnd); err != nil {
		return nil, err
	}
	orig.sim.StartRecording()
	if err := orig.run(maxCycles); err != nil {
		return nil, err
	}

	mon, err := bespokeMonitor(bsp.Bespoke)
	if err != nil {
		return nil, err
	}
	stim := p.Stimulus()
	stim.Clock = bsp.Bespoke.Inputs[0]
	besp, err := newRunner(bsp.Bespoke, &mon, stim, inputs)
	if err != nil {
		return nil, err
	}
	if err := besp.skipTo(resetEnd); err != nil {
		return nil, err
	}
	if err := besp.run(maxCycles); err != nil {
		return nil, err
	}

	// Output streams must agree wherever the original produced a known
	// value (an X output admits any concrete implementation behaviour).
	if len(orig.samples) != len(besp.samples) {
		return nil, fmt.Errorf("bespoke: output sample counts differ: %d vs %d (cycle counts %d vs %d)",
			len(orig.samples), len(besp.samples), orig.sim.Cycles(), besp.sim.Cycles())
	}
	for i := range orig.samples {
		a, b := orig.samples[i], besp.samples[i]
		if a.IsKnown() && a != b {
			return nil, fmt.Errorf("bespoke: output sample %d differs: original %v, bespoke %v", i, a, b)
		}
		rep.OutputsCompared++
	}

	// Final data memory must agree on known bits.
	for mi, m := range p.Design.Mems {
		if m.IsROM() {
			continue
		}
		bmi, ok := bsp.Bespoke.MemByName(m.Name)
		if !ok {
			return nil, fmt.Errorf("bespoke: memory %q missing from bespoke design", m.Name)
		}
		for w := 0; w < m.Words; w++ {
			av := orig.sim.MemWord(netlist.MemID(mi), w)
			bv := besp.sim.MemWord(bmi, w)
			for bit := 0; bit < av.Width(); bit++ {
				if x := av.Get(bit); x.IsKnown() && x != bv.Get(bit) {
					return nil, fmt.Errorf("bespoke: %s[%d] bit %d differs: %v vs %v", m.Name, w, bit, x, bv.Get(bit))
				}
			}
			rep.MemWordsCompared++
		}
	}

	// Exercised-subset check: a net the run changed, or left unknown (the
	// profile holds only the first; core's absorb has the rule).
	for n, togg := range orig.sim.Toggled() {
		if !togg && orig.sim.Value(netlist.NetID(n)).IsKnown() {
			continue
		}
		rep.ExercisedConcrete++
		if !sym.ToggledNets[n] {
			rep.SubsetViolations++
		}
	}
	if rep.SubsetViolations > 0 {
		return rep, fmt.Errorf("bespoke: %d concretely exercised nets were not symbolically exercisable", rep.SubsetViolations)
	}
	rep.Cycles = orig.sim.Cycles()
	return rep, nil
}
