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

	if hs := hotSpots(log.Decisions, log.Spans); len(hs) > 0 {
		ew.printf("\ncsm decisions by PC (%d total):\n", len(log.Decisions))
		ew.printf("  %-12s %8s %8s %8s %10s %8s %8s\n", "pc", "subsumed", "merged", "new", "xGained", "pruned", "replayed")
		for _, h := range hs {
			ew.printf("  0x%08x %8d %8d %8d %10d %8d %8d\n", h.pc, h.subsumed, h.merged, h.new, h.xGained, h.pruned, h.replayed)
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

// writeForkTree prints spans as a tree indented by fork ancestry, one line
// per span. Spans whose parent is unknown (cold boot, checkpoint restores)
// are roots. Superseded children carry no path ID; each prints as a leaf
// under the path that forked it, so every created path appears exactly
// once. A span is printed once however the parent links run: a malformed
// trace whose links form a cycle has no root, and its spans print after
// the tree, each cycle from its first span in trace order.
func writeForkTree(ew *errWriter, spans []Span) {
	ids := make(map[int]bool, len(spans))
	for _, s := range spans {
		if s.End != EndSuperseded {
			ids[s.ID] = true
		}
	}
	children := make(map[int][]int) // parent ID → span indices
	var roots []int
	for i, s := range spans {
		if s.Parent >= 0 && ids[s.Parent] && s.Parent != s.ID {
			children[s.Parent] = append(children[s.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	byID := func(list []int) {
		sort.SliceStable(list, func(i, j int) bool { return spans[list[i]].ID < spans[list[j]].ID })
	}
	for _, list := range children {
		byID(list)
	}
	byID(roots)

	printed := make([]bool, len(spans))
	var walk func(i, depth int)
	walk = func(i, depth int) {
		if printed[i] {
			return
		}
		printed[i] = true
		s := spans[i]
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
	for i := range spans {
		walk(i, 0)
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
	pruned   uint64
	replayed uint64
}

// hotSpots aggregates decisions, the children pruned at each fork, and the
// time steps replayed by the segments forked at each branch, per PC,
// ordered by total decisions so the PCs where merging concentrates come
// first.
func hotSpots(decisions []Decision, spans []Span) []pcStat {
	agg := make(map[uint64]*pcStat)
	at := func(pc uint64) *pcStat {
		s := agg[pc]
		if s == nil {
			s = &pcStat{pc: pc}
			agg[pc] = s
		}
		return s
	}
	for _, sp := range spans {
		if sp.Pruned > 0 {
			at(sp.HaltPC).pruned += sp.Pruned
		}
		if sp.Replay > 0 {
			at(sp.StartPC).replayed += sp.Replay
		}
	}
	for _, d := range decisions {
		s := at(d.PC)
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
