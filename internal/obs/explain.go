package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Explain renders a parsed trace as a human-readable report: run header,
// the fork tree (one line per path span, indented by ancestry), the per-PC
// CSM hot-spot table, and governance/outcome footers. It is the engine of
// `symsim explain`.
func Explain(w io.Writer, log *TraceLog) error {
	ew := &errWriter{w: w}
	if m := log.Meta; m != nil {
		ew.printf("run: design=%s", m.Design)
		if m.Bench != "" {
			ew.printf(" bench=%s", m.Bench)
		}
		ew.printf(" policy=%s engine=%s workers=%d\n", m.Policy, m.Engine, m.Workers)
	}

	superseded := 0
	for _, s := range log.Spans {
		if s.End == EndSuperseded {
			superseded++
		}
	}
	ew.printf("\nfork tree (%d path segments", len(log.Spans)-superseded)
	if superseded > 0 {
		ew.printf(", %d superseded children", superseded)
	}
	ew.printf("):\n")
	writeForkTree(ew, log.Spans)

	if hs := hotSpots(log.Decisions); len(hs) > 0 {
		ew.printf("\ncsm decisions by PC (%d total):\n", len(log.Decisions))
		ew.printf("  %-12s %8s %8s %8s %10s\n", "pc", "subsumed", "merged", "new", "xGained")
		for _, h := range hs {
			ew.printf("  0x%08x %8d %8d %8d %10d\n", h.pc, h.subsumed, h.merged, h.new, h.xGained)
		}
	}

	for _, tr := range log.Trips {
		ew.printf("\nbudget trip: %s at %dms\n", tr.Trip, tr.ElapsedMS)
	}
	if d := log.Done; d != nil {
		status := "complete"
		if !d.Complete {
			status = "degraded"
		}
		ew.printf("\noutcome: %s  paths=%d skipped=%d superseded=%d cycles=%d csmStates=%d exercisable=%d/%d  %dms\n",
			status, d.PathsCreated, d.PathsSkipped, d.PathsSuperseded, d.Cycles, d.CSMStates,
			d.Exercisable, d.TotalGates, d.ElapsedMS)
	}
	if log.Skipped > 0 {
		ew.printf("(%d unknown trace records skipped)\n", log.Skipped)
	}
	return ew.err
}

// writeForkTree prints spans as a tree indented by fork ancestry. Spans
// whose parent is unknown (cold boot, checkpoint restores) are roots.
// Superseded children carry no path ID; each prints as a leaf under the
// path that forked it, so every created path appears exactly once.
func writeForkTree(ew *errWriter, spans []Span) {
	children := make(map[int][]Span)
	ids := make(map[int]bool, len(spans))
	for _, s := range spans {
		if s.End != EndSuperseded {
			ids[s.ID] = true
		}
	}
	var roots []Span
	for _, s := range spans {
		if s.Parent >= 0 && ids[s.Parent] && s.Parent != s.ID {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	for m := range children {
		sort.Slice(children[m], func(i, j int) bool { return children[m][i].ID < children[m][j].ID })
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ID < roots[j].ID })

	var walk func(s Span, depth int)
	walk = func(s Span, depth int) {
		if depth > 64 { // cycles cannot happen in a well-formed trace; stay safe anyway
			return
		}
		indent := strings.Repeat("  ", depth)
		forced := ""
		if s.Forced != "" {
			forced = " forced=" + s.Forced
		}
		if s.End == EndSuperseded {
			ew.printf("  %spath - [%s]%s startPc=0x%x cycles=0\n", indent, s.End, forced, s.StartPC)
			return
		}
		haltPC := ""
		if s.HaltPC != 0 || s.End == "forked" || s.End == "subsumed" {
			haltPC = fmt.Sprintf(" haltPc=0x%x", s.HaltPC)
		}
		ew.printf("  %spath %d [%s]%s startPc=0x%x%s cycles=%d wall=%s\n",
			indent, s.ID, s.End, forced, s.StartPC, haltPC, s.Cycles, fmtWall(s.WallUS))
		for _, c := range children[s.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

func fmtWall(us int64) string {
	switch {
	case us >= 1_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1_000:
		return fmt.Sprintf("%.1fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}

type pcStat struct {
	pc       uint64
	subsumed int
	merged   int
	new      int
	xGained  int
}

// hotSpots aggregates decisions per PC, ordered by total activity so the
// PCs where merging concentrates come first.
func hotSpots(decisions []Decision) []pcStat {
	agg := make(map[uint64]*pcStat)
	for _, d := range decisions {
		s := agg[d.PC]
		if s == nil {
			s = &pcStat{pc: d.PC}
			agg[d.PC] = s
		}
		switch d.Verdict {
		case "subsumed":
			s.subsumed++
		case "merged":
			s.merged++
			s.xGained += d.XGained
		case "new":
			s.new++
		}
	}
	out := make([]pcStat, 0, len(agg))
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		ti := out[i].subsumed + out[i].merged + out[i].new
		tj := out[j].subsumed + out[j].merged + out[j].new
		if ti != tj {
			return ti > tj
		}
		return out[i].pc < out[j].pc
	})
	return out
}

// errWriter makes a chain of prints short-circuit on the first error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
