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

// ValidationReport is the outcome of the §5.0.1 validation run.
type ValidationReport struct {
	// Cycles is the length of the concrete run on the original design,
	// counted from reset release as PathStat.Cycles counts a path: the
	// reset sequence and the clock edge that ends it are not in it.
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

// bespokePlatform is p's testbench around the bespoke netlist d.
// Re-synthesis keeps the primary inputs in order but renumbers them, so the
// clock, reset and every input event drive the input at the same position
// of d; only the terminating condition is monitored.
func bespokePlatform(p *core.Platform, d *netlist.Netlist) (*core.Platform, error) {
	finish, ok := d.NetByName("halted")
	if !ok {
		return nil, fmt.Errorf("bespoke: pruned design lost its halted net")
	}
	pos := make(map[netlist.NetID]int, len(p.Design.Inputs))
	for i, id := range p.Design.Inputs {
		pos[id] = i
	}
	events := make([]vvp.InputEvent, len(p.Inputs))
	for i, e := range p.Inputs {
		k, ok := pos[e.Net]
		if !ok {
			return nil, fmt.Errorf("bespoke: input event on %q, which is not a primary input", p.Design.NetName(e.Net))
		}
		e.Net = d.Inputs[k]
		events[i] = e
	}
	return &core.Platform{
		Name:        p.Name,
		Bench:       p.Bench,
		Design:      d,
		Monitor:     vvp.MonitorXSpec{BranchActive: netlist.NoNet, Cond: netlist.NoNet, Finish: finish},
		HalfPeriod:  p.HalfPeriod,
		ResetCycles: p.ResetCycles,
		Inputs:      events,
	}, nil
}

// sampleOutputs appends the simulator's primary-output values to dst.
func sampleOutputs(dst []logic.Value, sim *vvp.Simulator) []logic.Value {
	for _, o := range sim.Design().Outputs {
		dst = append(dst, sim.Value(o))
	}
	return dst
}

// Validate reruns the application with fixed known inputs on both the
// original and the bespoke netlist and compares cycle-by-cycle primary
// outputs and final data memory (paper §5.0.1). It also verifies that the
// nets the fixed-input run exercised are a subset of the nets the symbolic
// analysis marks exercisable (sym.ToggledNets).
func Validate(sym *core.Result, bsp *Result, p *core.Platform, inputs []core.MemInit, maxCycles uint64) (*ValidationReport, error) {
	bp, err := bespokePlatform(p, bsp.Bespoke)
	if err != nil {
		return nil, err
	}
	rep := &ValidationReport{}
	var want, got []logic.Value
	orig, err := p.RunConcrete(vvp.Options{}, inputs, maxCycles, func(sim *vvp.Simulator) {
		rep.Cycles++
		want = sampleOutputs(want, sim)
	})
	if err != nil {
		return nil, err
	}
	besp, err := bp.RunConcrete(vvp.Options{}, inputs, maxCycles, func(sim *vvp.Simulator) {
		got = sampleOutputs(got, sim)
	})
	if err != nil {
		return nil, err
	}

	// Output streams must agree wherever the original produced a known
	// value (an X output admits any concrete implementation behaviour).
	if len(want) != len(got) {
		return nil, fmt.Errorf("bespoke: output sample counts differ: %d vs %d", len(want), len(got))
	}
	for i, a := range want {
		if a.IsKnown() && a != got[i] {
			return nil, fmt.Errorf("bespoke: output sample %d differs: original %v, bespoke %v", i, a, got[i])
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
			av := orig.MemWord(netlist.MemID(mi), w)
			bv := besp.MemWord(bmi, w)
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
	toggled := orig.Toggled()
	for n := range sym.ToggledNets {
		if toggled[n>>6]>>(n&63)&1 == 0 && orig.Value(netlist.NetID(n)).IsKnown() {
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
	return rep, nil
}
