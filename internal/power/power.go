// Package power derives switching-activity and peak-power figures from
// simulation runs — the downstream analyses the paper's co-analysis
// enables: application-specific peak power and energy requirements [5] and
// module-oblivious power gating [6]. Dynamic power is proportional to
// switching activity (alpha * C * V^2 * f); with a unit-capacitance gate
// model the per-net toggle counts give a technology-independent proxy that
// preserves relative comparisons between applications and designs.
package power

import (
	"fmt"
	"sort"
	"strings"

	"symsim/internal/core"
	"symsim/internal/netlist"
	"symsim/internal/vvp"
)

// Profile is the switching-activity measurement of one concrete run.
type Profile struct {
	Design *netlist.Netlist
	// Cycles is the length of the measured window, counted from reset
	// release as PathStat.Cycles is.
	Cycles uint64
	// NetToggles counts value commits per net.
	NetToggles []uint64
	// TotalToggles sums NetToggles.
	TotalToggles uint64
	// PeakCycleToggles is the largest per-cycle toggle count, at
	// PeakCycle — the dynamic-power peak proxy of [5].
	PeakCycleToggles uint64
	PeakCycle        uint64
}

// Measure runs the platform's application with the given concrete inputs
// (one Platform.RunConcrete) and collects its switching activity from reset
// release to the terminating condition.
func Measure(p *core.Platform, inputs []core.MemInit, maxCycles uint64) (*Profile, error) {
	pf := &Profile{Design: p.Design}
	sim, err := p.RunConcrete(vvp.Options{CountActivity: true}, inputs, maxCycles, func(*vvp.Simulator) { pf.Cycles++ })
	if err != nil {
		return nil, err
	}
	pf.NetToggles = sim.ActivityCounts()
	for _, c := range pf.NetToggles {
		pf.TotalToggles += c
	}
	pf.PeakCycleToggles, pf.PeakCycle = sim.PeakActivity()
	return pf, nil
}

// MeanActivity returns the average switching activity per net per cycle
// (the alpha factor of the dynamic power equation, averaged over the
// design).
func (pf *Profile) MeanActivity() float64 {
	if pf.Cycles == 0 || len(pf.NetToggles) == 0 {
		return 0
	}
	return float64(pf.TotalToggles) / float64(pf.Cycles) / float64(len(pf.NetToggles))
}

// SymbolicPeakBound returns the static upper bound on per-cycle switching
// the symbolic co-analysis licenses: only exercisable gates can toggle, so
// the exercisable-gate count bounds any cycle's activity. The measured
// concrete peak must lie at or below it — the guarantee structure behind
// application-specific peak-power provisioning [5].
func SymbolicPeakBound(res *core.Result) uint64 {
	return uint64(res.ExercisableCount)
}

// GatingCandidates lists the gates whose output toggled at most maxToggles
// times during the measured window — the idle-logic candidates that
// module-oblivious power gating [6] targets. Gates the symbolic analysis
// already proves unexercisable are excluded when sym is non-nil (they are
// pruned outright by the bespoke flow instead).
func (pf *Profile) GatingCandidates(sym *core.Result, maxToggles uint64) []netlist.GateID {
	var out []netlist.GateID
	for gi := range pf.Design.Gates {
		if sym != nil && !sym.ExercisableGates[gi] {
			continue
		}
		if pf.NetToggles[pf.Design.Gates[gi].Out] <= maxToggles {
			out = append(out, netlist.GateID(gi))
		}
	}
	return out
}

// HotNets returns the n most active nets with their toggle counts,
// most active first.
func (pf *Profile) HotNets(n int) []struct {
	Name    string
	Toggles uint64
} {
	type entry struct {
		id netlist.NetID
		c  uint64
	}
	entries := make([]entry, 0, len(pf.NetToggles))
	for id, c := range pf.NetToggles {
		if c > 0 {
			entries = append(entries, entry{netlist.NetID(id), c})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].c != entries[j].c {
			return entries[i].c > entries[j].c
		}
		return entries[i].id < entries[j].id
	})
	if n > len(entries) {
		n = len(entries)
	}
	out := make([]struct {
		Name    string
		Toggles uint64
	}, n)
	for i := 0; i < n; i++ {
		out[i].Name = pf.Design.NetName(entries[i].id)
		out[i].Toggles = entries[i].c
	}
	return out
}

// Report renders a human-readable activity summary.
func (pf *Profile) Report(sym *core.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "switching activity over %d cycles\n", pf.Cycles)
	fmt.Fprintf(&sb, "  total toggles      %d\n", pf.TotalToggles)
	fmt.Fprintf(&sb, "  mean activity      %.4f toggles/net/cycle\n", pf.MeanActivity())
	fmt.Fprintf(&sb, "  peak cycle         %d toggles at cycle %d\n", pf.PeakCycleToggles, pf.PeakCycle)
	if sym != nil {
		bound := SymbolicPeakBound(sym)
		fmt.Fprintf(&sb, "  symbolic peak bound %d exercisable gates (measured peak %.1f%% of bound)\n",
			bound, 100*float64(pf.PeakCycleToggles)/float64(bound))
	}
	for _, h := range pf.HotNets(5) {
		fmt.Fprintf(&sb, "  hot: %-24s %d\n", h.Name, h.Toggles)
	}
	return sb.String()
}
