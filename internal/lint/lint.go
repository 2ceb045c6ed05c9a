// Package lint implements structural static analysis over the gate-level
// netlist IR. The symbolic co-analysis trusts the netlist end-to-end: a
// combinational loop, a multi-driven net or a dead fanout cone silently
// corrupts the exercisable/unexercisable dichotomy every downstream
// optimization consumes. This package turns those structural hazards into
// typed diagnostics with stable codes (NL001…), severities and locations,
// so they can be reported by the CLI, enforced before simulator
// construction, and asserted after bespoke re-synthesis.
//
// Unlike Netlist.Freeze, the analyses here never require a structurally
// sound design: lint builds its own adjacency from the raw Nets/Gates/Mems
// arrays, tolerates broken references, and reports everything it finds
// instead of stopping at the first violation. Any netlist that
// netlist.ReadRaw accepts can be linted without panicking.
package lint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"symsim/internal/diag"
	"symsim/internal/logic"
	"symsim/internal/netlist"
)

// Severity grades a diagnostic. It is the shared internal/diag severity:
// `symsim lint` and `symsimvet` grade, summarize and threshold findings
// identically (see diag.ParseFailOn for the -fail-on contract).
type Severity = diag.Severity

const (
	// SevInfo marks advisory findings (e.g. the X-reachability summary).
	SevInfo = diag.SevInfo
	// SevWarn marks suspicious structure that simulates deterministically
	// but usually indicates an elaboration or pruning mistake.
	SevWarn = diag.SevWarn
	// SevError marks structure that corrupts or aborts simulation.
	SevError = diag.SevError
)

// Code is a stable diagnostic identifier. Codes never change meaning
// between releases; new checks get new codes. NL0xx codes belong to this
// package; SA0xx codes belong to internal/analysis.
type Code = diag.Code

// The diagnostic codes.
const (
	// CodeMalformed (error): the netlist violates IR shape invariants —
	// out-of-range net references, pin-count mismatches, unknown gate
	// kinds, inconsistent memory geometry. Graph checks are skipped when
	// shape is broken.
	CodeMalformed Code = "NL000"
	// CodeCombLoop (error): a combinational cycle through gates and/or
	// memory read ports. Zero-delay settling would not terminate.
	CodeCombLoop Code = "NL001"
	// CodeMultiDriven (error): a net with more than one source (gate
	// output, memory read-data pin, or primary-input status).
	CodeMultiDriven Code = "NL002"
	// CodeUndriven (error): an undriven net consumed by a gate pin,
	// memory pin or primary output, or a required pin left unconnected.
	CodeUndriven Code = "NL003"
	// CodeDeadGate (warning): a combinational gate with no path to a
	// primary output, flip-flop or memory; it can never influence
	// anything observable.
	CodeDeadGate Code = "NL004"
	// CodeConstCone (warning): a gate whose transitive fanin contains no
	// primary input, flip-flop or memory — its output is fixed by
	// construction. Gates driving primary outputs are exempt (bespoke
	// re-synthesis intentionally ties pruned ports to constants).
	CodeConstCone Code = "NL005"
	// CodeFoldable (info): a gate that constant-folds to a known value;
	// Resynthesize would eliminate it. Gates driving primary outputs are
	// exempt for the same reason as NL005.
	CodeFoldable Code = "NL006"
	// CodeDFFControl (warning): a flip-flop whose clock is tied to a
	// constant, whose enable is tied low (never loads), or whose
	// active-low reset is tied low (held in reset).
	CodeDFFControl Code = "NL007"
	// CodeMemControl (warning): a memory whose write clock is tied to a
	// constant or whose write enable is tied low (the write port is
	// unusable; the memory behaves as a ROM).
	CodeMemControl Code = "NL008"
	// CodeXCone (info): the X-reachability summary — how many nets can
	// ever observe an unknown from the symbolic input sources. The
	// per-net mask is in Result.XReachable.
	CodeXCone Code = "NL009"
)

// Diag is one finding: a coded, severity-graded message anchored to nets,
// gates and/or memories of the analyzed design.
type Diag struct {
	Code Code
	Sev  Severity
	// Msg is the human-readable description, complete with element names.
	Msg string
	// Nets, Gates and Mems locate the finding in the design (may be
	// empty; bounded to a handful of elements for large findings).
	Nets  []netlist.NetID
	Gates []netlist.GateID
	Mems  []netlist.MemID
}

// String renders the diagnostic as "CODE severity: message" — the shared
// diag line shape, so lint and symsimvet reports grep identically.
func (d Diag) String() string { return diag.FormatLine(d.Code, d.Sev, d.Msg) }

// Options tune a lint run. The zero value runs every check with default
// bounds.
type Options struct {
	// Disable lists checks to skip, by code.
	Disable []Code
	// MaxPerCode bounds the recorded diagnostics per code (findings past
	// the bound are still counted in Result.Counts). 0 selects
	// DefaultMaxPerCode; negative means unlimited.
	MaxPerCode int
	// XSources overrides the X-injection points of the NL009 cone
	// analysis. Nil means every primary input is a potential symbol —
	// pass the non-clock, non-reset inputs to model a platform whose
	// clocking is concrete.
	XSources []netlist.NetID
	// KeepAlive lists nets observed outside the netlist proper — e.g.
	// the platform's monitored nets ($monitor_x probes) — so their
	// driver cones are not reported as dead (NL004).
	KeepAlive []netlist.NetID
}

// DefaultMaxPerCode is the per-code diagnostic bound when
// Options.MaxPerCode is zero.
const DefaultMaxPerCode = 100

// Result is the outcome of one lint run.
type Result struct {
	// DesignName echoes the analyzed netlist's name.
	DesignName string
	// Diags lists the recorded findings, grouped by code in check order.
	Diags []Diag
	// Counts is the total findings per code, including any dropped past
	// Options.MaxPerCode.
	Counts map[Code]int
	// NetCount is the design's net count (denominator for XReachable).
	NetCount int
	// XReachable marks, per net, whether an X injected at the symbolic
	// sources can ever propagate to it (nil when the NL009 check is
	// disabled or the shape is too broken to analyze).
	XReachable []bool

	errs, warns, infos int
}

// ErrorCount returns the number of error-severity findings.
func (r *Result) ErrorCount() int { return r.errs }

// WarnCount returns the number of warning-severity findings.
func (r *Result) WarnCount() int { return r.warns }

// InfoCount returns the number of info-severity findings.
func (r *Result) InfoCount() int { return r.infos }

// HasErrors reports whether any error-severity finding was made.
func (r *Result) HasErrors() bool { return r.errs > 0 }

// Errors returns the recorded error-severity findings.
func (r *Result) Errors() []Diag {
	var out []Diag
	for _, d := range r.Diags {
		if d.Sev == SevError {
			out = append(out, d)
		}
	}
	return out
}

// Summary renders a one-line count summary (shared shape with symsimvet;
// see diag.Summary).
func (r *Result) Summary() string {
	return diag.Summary(r.errs, r.warns, r.infos)
}

// Fails reports whether the result trips the -fail-on threshold min —
// the shared exit-code contract of `symsim lint` and `symsimvet`.
func (r *Result) Fails(min Severity) bool {
	return diag.Fails(r.errs, r.warns, r.infos, min)
}

// NewDiags compares two lint results and returns the findings of after
// whose per-code count exceeds before's — the regressions a
// netlist-to-netlist transformation introduced. Codes listed in ignore are
// skipped (bespoke re-synthesis legitimately ties flip-flop and memory
// controls to the constants the analysis observed, so its caller ignores
// NL007/NL008).
func NewDiags(before, after *Result, ignore ...Code) []Diag {
	skip := make(map[Code]bool, len(ignore))
	for _, c := range ignore {
		skip[c] = true
	}
	var out []Diag
	for _, d := range after.Diags {
		if skip[d.Code] {
			continue
		}
		if after.Counts[d.Code] > before.Counts[d.Code] {
			out = append(out, d)
		}
	}
	return out
}

// Run lints the netlist. The design may be frozen or not; it is never
// modified. Run is safe on structurally broken netlists (see the package
// comment) and is deterministic: the same design yields the same
// diagnostics in the same order.
func Run(n *netlist.Netlist, opts Options) *Result {
	r := &Result{Counts: make(map[Code]int)}
	if n == nil {
		return r
	}
	r.DesignName = n.Name
	r.NetCount = len(n.Nets)
	l := &linter{n: n, r: r, max: opts.MaxPerCode, disabled: make(map[Code]bool)}
	if l.max == 0 {
		l.max = DefaultMaxPerCode
	}
	for _, c := range opts.Disable {
		l.disabled[c] = true
	}

	if !l.checkShape() {
		// Broken references make every graph traversal unsafe; report
		// the shape findings alone.
		return r
	}
	l.buildGraph()
	l.checkDrivers()
	l.checkCombLoops()
	l.checkDeadGates(opts.KeepAlive)
	l.checkCones()
	l.checkControls()
	l.checkXCone(opts.XSources)
	return r
}

// linter carries the per-run state shared by the checks.
type linter struct {
	n        *netlist.Netlist
	r        *Result
	max      int
	disabled map[Code]bool

	// gateOf is the first gate driving each net (NoGate if none);
	// memOf the memory exposing each net as read data (-1 if none).
	// Both are rebuilt from the raw arrays — lint never trusts
	// Net.Driver, which hand-assembled netlists may leave stale.
	gateOf []netlist.GateID
	memOf  []int
	// fanGates lists, per net, the gates with the net on an input pin;
	// fanRead the memories with it on the read-address port; fanWrite
	// the memories with it on a write-port pin.
	fanGates [][]netlist.GateID
	fanRead  [][]int
	fanWrite [][]int
	// constOf holds the propagated constant value per net (X = not
	// constant), filled by checkCones.
	constOf []logic.Value
}

// report records one finding unless its check is disabled or the per-code
// bound is exhausted.
func (l *linter) report(d Diag) {
	if l.disabled[d.Code] {
		return
	}
	l.r.Counts[d.Code]++
	switch d.Sev {
	case SevError:
		l.r.errs++
	case SevWarn:
		l.r.warns++
	default:
		l.r.infos++
	}
	if l.max < 0 || l.r.Counts[d.Code] <= l.max {
		l.r.Diags = append(l.r.Diags, d)
	}
}

// netRef renders a net for messages.
func (l *linter) netRef(id netlist.NetID) string {
	return fmt.Sprintf("net %q", l.n.Nets[id].Name)
}

// gateRef renders a gate for messages.
func (l *linter) gateRef(id netlist.GateID) string {
	g := &l.n.Gates[id]
	if g.Name != "" {
		return fmt.Sprintf("gate %d (%s %q)", id, g.Kind, g.Name)
	}
	return fmt.Sprintf("gate %d (%s)", id, g.Kind)
}

// validNet reports whether id indexes a real net.
func (l *linter) validNet(id netlist.NetID) bool {
	return id >= 0 && int(id) < len(l.n.Nets)
}

// checkShape validates the IR shape invariants (NL000) and reports
// whether the graph checks can proceed.
func (l *linter) checkShape() bool {
	n := l.n
	ok := true
	bad := func(format string, args ...any) {
		ok = false
		l.report(Diag{Code: CodeMalformed, Sev: SevError, Msg: fmt.Sprintf(format, args...)})
	}
	for gi := range n.Gates {
		g := &n.Gates[gi]
		if g.Kind > netlist.KindDFF {
			bad("gate %d has unknown kind %s", gi, g.Kind)
			continue
		}
		if len(g.In) != g.Kind.NumInputs() {
			bad("gate %d (%s) has %d input pins, want %d", gi, g.Kind, len(g.In), g.Kind.NumInputs())
		}
		if !l.validNet(g.Out) {
			bad("gate %d (%s) output references net %d of %d", gi, g.Kind, g.Out, len(n.Nets))
		}
		for pin, in := range g.In {
			if in != netlist.NoNet && !l.validNet(in) {
				bad("gate %d (%s) pin %d references net %d of %d", gi, g.Kind, pin, in, len(n.Nets))
			}
		}
	}
	for mi, m := range n.Mems {
		if m == nil {
			bad("memory %d is nil", mi)
			continue
		}
		if m.AddrBits <= 0 || m.AddrBits > 30 || m.DataBits <= 0 {
			bad("memory %q has geometry %d addr bits x %d data bits", m.Name, m.AddrBits, m.DataBits)
			continue
		}
		if m.Words <= 0 || m.Words > 1<<m.AddrBits {
			bad("memory %q has %d words for %d address bits", m.Name, m.Words, m.AddrBits)
		}
		if len(m.RAddr) != m.AddrBits || len(m.RData) != m.DataBits {
			bad("memory %q read port is %dx%d nets, want %dx%d",
				m.Name, len(m.RAddr), len(m.RData), m.AddrBits, m.DataBits)
		}
		if !m.IsROM() && (len(m.WAddr) != m.AddrBits || len(m.WData) != m.DataBits) {
			bad("memory %q write port is %dx%d nets, want %dx%d",
				m.Name, len(m.WAddr), len(m.WData), m.AddrBits, m.DataBits)
		}
		if w := factsOf(m).badWidth; w >= 0 {
			bad("memory %q init word is %d bits, want %d", m.Name, w, m.DataBits)
		}
		for _, p := range memPins(m) {
			if p != netlist.NoNet && !l.validNet(p) {
				bad("memory %q references net %d of %d", m.Name, p, len(n.Nets))
			}
		}
	}
	for _, id := range n.Inputs {
		if !l.validNet(id) {
			bad("input list references net %d of %d", id, len(n.Nets))
		}
	}
	for _, id := range n.Outputs {
		if !l.validNet(id) {
			bad("output list references net %d of %d", id, len(n.Nets))
		}
	}
	return ok
}

// memFacts is all that Run reads from one memory's contents.
type memFacts struct {
	// badWidth is the width of the first Init word that is not DataBits
	// wide (NL000 names it), -1 when every word fits.
	badWidth int
	// initX reports a word that is unwritten (unwritten words default to
	// all-X) or holds an X: the memory then seeds the NL009 X cone.
	initX bool
}

func factsOf(m *netlist.Mem) memFacts {
	f := memFacts{badWidth: -1, initX: m.Words > len(m.Init)}
	for _, w := range m.Init {
		if w.Width() != m.DataBits {
			f.badWidth = w.Width()
			break
		}
		f.initX = f.initX || !w.IsAllKnown()
	}
	return f
}

// ImageFacts renders, as a comparable key, the facts through which a lint
// result depends on the memory contents of n (memFacts, per memory). Two
// netlists of one structure with equal ImageFacts get the same diagnostics
// from Run, whatever else their images hold — which is what lets the
// benchmarks of one processor share a single lint result.
func ImageFacts(n *netlist.Netlist) string {
	key := make([]byte, 0, 8*len(n.Mems))
	for _, m := range n.Mems {
		if m != nil {
			f := factsOf(m)
			key = strconv.AppendInt(key, int64(f.badWidth), 10)
			key = strconv.AppendBool(append(key, ','), f.initX)
		}
		key = append(key, ';')
	}
	return string(key)
}

// memPins returns every net a memory touches: read port, then write port.
func memPins(m *netlist.Mem) []netlist.NetID {
	pins := make([]netlist.NetID, 0, 2*(m.AddrBits+m.DataBits)+2)
	pins = append(pins, m.RAddr...)
	pins = append(pins, m.RData...)
	if !m.IsROM() {
		pins = append(pins, m.Clk, m.WEn)
		pins = append(pins, m.WAddr...)
		pins = append(pins, m.WData...)
	}
	return pins
}

// buildGraph derives the adjacency used by every graph check from the raw
// arrays. Only callable after checkShape passed.
func (l *linter) buildGraph() {
	n := l.n
	l.gateOf = make([]netlist.GateID, len(n.Nets))
	l.memOf = make([]int, len(n.Nets))
	for i := range l.gateOf {
		l.gateOf[i] = netlist.NoGate
		l.memOf[i] = -1
	}
	l.fanGates = make([][]netlist.GateID, len(n.Nets))
	l.fanRead = make([][]int, len(n.Nets))
	l.fanWrite = make([][]int, len(n.Nets))
	for gi := range n.Gates {
		g := &n.Gates[gi]
		if l.gateOf[g.Out] == netlist.NoGate {
			l.gateOf[g.Out] = netlist.GateID(gi)
		}
		for _, in := range g.In {
			if in != netlist.NoNet {
				l.fanGates[in] = append(l.fanGates[in], netlist.GateID(gi))
			}
		}
	}
	for mi, m := range n.Mems {
		for _, d := range m.RData {
			if l.memOf[d] < 0 {
				l.memOf[d] = mi
			}
		}
		for _, a := range m.RAddr {
			l.fanRead[a] = append(l.fanRead[a], mi)
		}
		if !m.IsROM() {
			for _, p := range m.WAddr {
				l.fanWrite[p] = append(l.fanWrite[p], mi)
			}
			for _, p := range m.WData {
				l.fanWrite[p] = append(l.fanWrite[p], mi)
			}
			if m.Clk != netlist.NoNet {
				l.fanWrite[m.Clk] = append(l.fanWrite[m.Clk], mi)
			}
			if m.WEn != netlist.NoNet {
				l.fanWrite[m.WEn] = append(l.fanWrite[m.WEn], mi)
			}
		}
	}
}

// checkDrivers reports multi-driven nets (NL002) and undriven nets that
// something consumes, plus unconnected required pins (NL003).
func (l *linter) checkDrivers() {
	n := l.n
	counts := n.DriverCounts()
	for id, c := range counts {
		net := netlist.NetID(id)
		if c > 1 {
			l.report(Diag{
				Code: CodeMultiDriven, Sev: SevError, Nets: []netlist.NetID{net},
				Msg: fmt.Sprintf("%s has %d drivers; nets must have exactly one source", l.netRef(net), c),
			})
		}
		if c == 0 {
			// Undriven is only a fault when something reads the net.
			used := len(l.fanGates[id]) > 0 || len(l.fanRead[id]) > 0 || len(l.fanWrite[id]) > 0
			for _, o := range n.Outputs {
				if o == net {
					used = true
					break
				}
			}
			if used {
				l.report(Diag{
					Code: CodeUndriven, Sev: SevError, Nets: []netlist.NetID{net},
					Msg: fmt.Sprintf("%s is undriven but feeds gates, memories or outputs", l.netRef(net)),
				})
			}
		}
	}
	for gi := range n.Gates {
		for pin, in := range n.Gates[gi].In {
			if in == netlist.NoNet {
				l.report(Diag{
					Code: CodeUndriven, Sev: SevError, Gates: []netlist.GateID{netlist.GateID(gi)},
					Msg: fmt.Sprintf("%s pin %d is unconnected", l.gateRef(netlist.GateID(gi)), pin),
				})
			}
		}
	}
	for mi, m := range n.Mems {
		for _, p := range memPins(m) {
			if p == netlist.NoNet {
				l.report(Diag{
					Code: CodeUndriven, Sev: SevError, Mems: []netlist.MemID{netlist.MemID(mi)},
					Msg: fmt.Sprintf("memory %q has an unconnected pin", m.Name),
				})
				break
			}
		}
	}
}

// combNode numbers the vertices of the combinational graph: gates first,
// then memories (their asynchronous read ports). Sequential gates are
// barriers and get no vertex.
func (l *linter) combNodes() (total int, succ func(node int, f func(int))) {
	n := l.n
	G := len(n.Gates)
	total = G + len(n.Mems)
	// outNets yields the nets a vertex drives.
	outNets := func(node int, f func(netlist.NetID)) {
		if node < G {
			f(n.Gates[node].Out)
			return
		}
		for _, d := range n.Mems[node-G].RData {
			f(d)
		}
	}
	succ = func(node int, f func(int)) {
		if node < G && n.Gates[node].Kind.IsSequential() {
			return
		}
		outNets(node, func(net netlist.NetID) {
			for _, g := range l.fanGates[net] {
				if !n.Gates[g].Kind.IsSequential() {
					f(int(g))
				}
			}
			for _, mi := range l.fanRead[net] {
				f(G + mi)
			}
		})
	}
	return total, succ
}

// checkCombLoops finds strongly connected components of the combinational
// graph — gates plus memory read ports — and reports each cycle (NL001).
// The implementation is an iterative Tarjan so pathological designs cannot
// overflow the stack.
func (l *linter) checkCombLoops() {
	total, succ := l.combNodes()
	const unvisited = -1
	index := make([]int, total)
	low := make([]int, total)
	onStack := make([]bool, total)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int
	next := 0

	type frame struct {
		node int
		succ []int // materialized successor list
		pos  int
	}
	var frames []frame
	push := func(node int) {
		index[node] = next
		low[node] = next
		next++
		stack = append(stack, node)
		onStack[node] = true
		var ss []int
		succ(node, func(s int) { ss = append(ss, s) })
		frames = append(frames, frame{node: node, succ: ss})
	}

	for root := 0; root < total; root++ {
		if index[root] != unvisited {
			continue
		}
		push(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.pos < len(f.succ) {
				s := f.succ[f.pos]
				f.pos++
				if index[s] == unvisited {
					push(s)
				} else if onStack[s] {
					if index[s] < low[f.node] {
						low[f.node] = index[s]
					}
				}
				continue
			}
			// Frame complete: pop an SCC if this is its root.
			node := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[node] < low[p.node] {
					low[p.node] = low[node]
				}
			}
			if low[node] != index[node] {
				continue
			}
			var scc []int
			for {
				s := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[s] = false
				scc = append(scc, s)
				if s == node {
					break
				}
			}
			l.reportSCC(scc)
		}
	}
}

// reportSCC emits NL001 for an SCC that actually contains a cycle: more
// than one vertex, or a single vertex with a self-edge.
func (l *linter) reportSCC(scc []int) {
	G := len(l.n.Gates)
	if len(scc) == 1 {
		self := false
		_, succ := l.combNodes()
		succ(scc[0], func(s int) {
			if s == scc[0] {
				self = true
			}
		})
		if !self {
			return
		}
	}
	sort.Ints(scc)
	d := Diag{Code: CodeCombLoop, Sev: SevError}
	var parts []string
	for i, node := range scc {
		if node < G {
			d.Gates = append(d.Gates, netlist.GateID(node))
			if i < 8 {
				parts = append(parts, l.gateRef(netlist.GateID(node)))
			}
		} else {
			d.Mems = append(d.Mems, netlist.MemID(node-G))
			if i < 8 {
				parts = append(parts, fmt.Sprintf("memory %q read port", l.n.Mems[node-G].Name))
			}
		}
	}
	if len(scc) > 8 {
		parts = append(parts, fmt.Sprintf("… %d more", len(scc)-8))
	}
	d.Msg = fmt.Sprintf("combinational loop through %d elements: %s", len(scc), strings.Join(parts, " -> "))
	l.report(d)
}

// checkDeadGates reports combinational gates with no path to a primary
// output, flip-flop, memory or externally observed (keep-alive) net
// (NL004): nothing observable can ever depend on them, so they are
// elaboration leftovers the sweep should have removed. Flip-flops and
// memories are sinks themselves and exempt.
func (l *linter) checkDeadGates(keepAlive []netlist.NetID) {
	n := l.n
	live := make([]bool, len(n.Gates))
	var stack []netlist.GateID
	// markNet walks from a consumed net back into its combinational
	// driver cone.
	markNet := func(id netlist.NetID) {
		if g := l.gateOf[id]; g != netlist.NoGate && !live[g] && !n.Gates[g].Kind.IsSequential() {
			live[g] = true
			stack = append(stack, g)
		}
	}
	for _, o := range n.Outputs {
		markNet(o)
	}
	for _, k := range keepAlive {
		if l.validNet(k) {
			markNet(k)
		}
	}
	for gi := range n.Gates {
		if n.Gates[gi].Kind.IsSequential() {
			for _, in := range n.Gates[gi].In {
				if in != netlist.NoNet {
					markNet(in)
				}
			}
		}
	}
	for _, m := range n.Mems {
		for _, p := range memPins(m) {
			if p != netlist.NoNet {
				markNet(p)
			}
		}
	}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, in := range n.Gates[g].In {
			if in != netlist.NoNet {
				markNet(in)
			}
		}
	}
	for gi := range n.Gates {
		if n.Gates[gi].Kind.IsSequential() || live[gi] {
			continue
		}
		l.report(Diag{
			Code: CodeDeadGate, Sev: SevWarn,
			Gates: []netlist.GateID{netlist.GateID(gi)}, Nets: []netlist.NetID{n.Gates[gi].Out},
			Msg: fmt.Sprintf("%s drives %s with no path to an output, flip-flop or memory",
				l.gateRef(netlist.GateID(gi)), l.netRef(n.Gates[gi].Out)),
		})
	}
}

// checkCones runs the forward cone analyses that share a topological
// sweep: NL005 (gates unreachable from any primary input or state
// element) and NL006 (constant-foldable gates). Vertices on combinational
// cycles are skipped — NL001 already reported them.
func (l *linter) checkCones() {
	n := l.n
	G := len(n.Gates)
	total, succ := l.combNodes()

	// Kahn levelling over the combinational graph; nodes left with
	// nonzero indegree sit on cycles and are not processed.
	indeg := make([]int, total)
	for node := 0; node < total; node++ {
		succ(node, func(s int) { indeg[s]++ })
	}
	queue := make([]int, 0, total)
	for node := 0; node < total; node++ {
		if indeg[node] == 0 && !(node < G && n.Gates[node].Kind.IsSequential()) {
			queue = append(queue, node)
		}
	}
	order := make([]int, 0, total)
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		order = append(order, node)
		succ(node, func(s int) {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		})
	}

	// dynamic[net]: some primary input, flip-flop or memory can affect
	// the net. constOf[net]: the net's propagated constant (X if none).
	dynamic := make([]bool, len(n.Nets))
	l.constOf = make([]logic.Value, len(n.Nets))
	for i := range l.constOf {
		l.constOf[i] = logic.X
	}
	for _, in := range n.Inputs {
		dynamic[in] = true
	}
	for gi := range n.Gates {
		if n.Gates[gi].Kind.IsSequential() {
			dynamic[n.Gates[gi].Out] = true
		}
	}
	for _, m := range n.Mems {
		for _, d := range m.RData {
			dynamic[d] = true
		}
	}

	drivesOutput := make([]bool, len(n.Nets))
	for _, o := range n.Outputs {
		drivesOutput[o] = true
	}

	for _, node := range order {
		if node >= G {
			continue // memory read data already marked dynamic
		}
		g := &n.Gates[node]
		switch g.Kind {
		case netlist.KindConst0:
			l.constOf[g.Out] = logic.Lo
			continue
		case netlist.KindConst1:
			l.constOf[g.Out] = logic.Hi
			continue
		}
		anyDyn := false
		vals := make([]logic.Value, len(g.In))
		for i, in := range g.In {
			if in == netlist.NoNet {
				vals[i] = logic.X
				continue
			}
			vals[i] = l.constOf[in]
			if dynamic[in] {
				anyDyn = true
			}
		}
		if anyDyn {
			dynamic[g.Out] = true
		}
		v := netlist.EvalGate(g.Kind, vals)
		if v.IsKnown() {
			l.constOf[g.Out] = v
		}
		if drivesOutput[g.Out] {
			continue // port tie-offs are intentional (bespoke designs)
		}
		if v.IsKnown() {
			l.report(Diag{
				Code: CodeFoldable, Sev: SevInfo,
				Gates: []netlist.GateID{netlist.GateID(node)}, Nets: []netlist.NetID{g.Out},
				Msg: fmt.Sprintf("%s always evaluates to %s; re-synthesis would fold it",
					l.gateRef(netlist.GateID(node)), v),
			})
		} else if !anyDyn {
			l.report(Diag{
				Code: CodeConstCone, Sev: SevWarn,
				Gates: []netlist.GateID{netlist.GateID(node)}, Nets: []netlist.NetID{g.Out},
				Msg: fmt.Sprintf("%s is unreachable from any primary input or state element",
					l.gateRef(netlist.GateID(node))),
			})
		}
	}
}

// netConst returns the propagated constant on a net, or X.
func (l *linter) netConst(id netlist.NetID) logic.Value {
	if id == netlist.NoNet || l.constOf == nil {
		return logic.X
	}
	return l.constOf[id]
}

// checkControls validates flip-flop (NL007) and memory write-port (NL008)
// control nets against the constants propagated by checkCones.
func (l *linter) checkControls() {
	n := l.n
	for gi := range n.Gates {
		g := &n.Gates[gi]
		if g.Kind != netlist.KindDFF || len(g.In) != 4 {
			continue
		}
		id := netlist.GateID(gi)
		if v := l.netConst(g.In[netlist.DFFPinClk]); v.IsKnown() {
			l.report(Diag{
				Code: CodeDFFControl, Sev: SevWarn, Gates: []netlist.GateID{id},
				Msg: fmt.Sprintf("%s clock is tied to constant %s; the register never captures", l.gateRef(id), v),
			})
		}
		if v := l.netConst(g.In[netlist.DFFPinEn]); v == logic.Lo {
			l.report(Diag{
				Code: CodeDFFControl, Sev: SevWarn, Gates: []netlist.GateID{id},
				Msg: fmt.Sprintf("%s enable is tied low; the register never loads", l.gateRef(id)),
			})
		}
		if v := l.netConst(g.In[netlist.DFFPinRstn]); v == logic.Lo {
			l.report(Diag{
				Code: CodeDFFControl, Sev: SevWarn, Gates: []netlist.GateID{id},
				Msg: fmt.Sprintf("%s active-low reset is tied low; the register is held at its init value", l.gateRef(id)),
			})
		}
	}
	for mi, m := range n.Mems {
		if m.IsROM() {
			continue
		}
		id := netlist.MemID(mi)
		if v := l.netConst(m.Clk); v.IsKnown() {
			l.report(Diag{
				Code: CodeMemControl, Sev: SevWarn, Mems: []netlist.MemID{id},
				Msg: fmt.Sprintf("memory %q write clock is tied to constant %s", m.Name, v),
			})
		}
		if v := l.netConst(m.WEn); v == logic.Lo {
			l.report(Diag{
				Code: CodeMemControl, Sev: SevWarn, Mems: []netlist.MemID{id},
				Msg: fmt.Sprintf("memory %q write enable is tied low; the write port is dead (consider a ROM)", m.Name),
			})
		}
	}
}

// checkXCone computes which nets can ever observe an X from the symbolic
// sources (NL009): the static over-approximation of the monitored-signal
// cone the conservative state manager cares about. Sources are the given
// nets (default: every primary input), flip-flops whose reset value is
// unknown, and memory words initialized to (or defaulting to) X. The
// propagation is a monotone fixpoint over gates, flip-flops and memory
// ports, so feedback through registers converges.
func (l *linter) checkXCone(sources []netlist.NetID) {
	if l.disabled[CodeXCone] {
		return
	}
	n := l.n
	reach := make([]bool, len(n.Nets))
	if sources == nil {
		sources = n.Inputs
	}
	for _, s := range sources {
		if l.validNet(s) {
			reach[s] = true
		}
	}
	for gi := range n.Gates {
		g := &n.Gates[gi]
		if g.Kind == netlist.KindDFF && !g.Init.IsKnown() {
			reach[g.Out] = true
		}
	}
	memInitX := make([]bool, len(n.Mems))
	for mi, m := range n.Mems {
		memInitX[mi] = factsOf(m).initX
	}

	anyReach := func(ids []netlist.NetID) bool {
		for _, id := range ids {
			if id != netlist.NoNet && reach[id] {
				return true
			}
		}
		return false
	}
	// Monotone sweep to fixpoint: each pass propagates X one structural
	// step; the reachable set only grows, so termination is guaranteed.
	for changed := true; changed; {
		changed = false
		mark := func(id netlist.NetID) {
			if id != netlist.NoNet && !reach[id] {
				reach[id] = true
				changed = true
			}
		}
		for gi := range n.Gates {
			g := &n.Gates[gi]
			if reach[g.Out] {
				continue
			}
			if anyReach(g.In) {
				mark(g.Out)
			}
		}
		for mi, m := range n.Mems {
			exposed := memInitX[mi] || anyReach(m.RAddr)
			if !exposed && !m.IsROM() {
				exposed = anyReach(m.WAddr) || anyReach(m.WData) ||
					(m.WEn != netlist.NoNet && reach[m.WEn]) || (m.Clk != netlist.NoNet && reach[m.Clk])
			}
			if exposed {
				for _, d := range m.RData {
					mark(d)
				}
			}
		}
	}

	l.r.XReachable = reach
	count := 0
	for _, x := range reach {
		if x {
			count++
		}
	}
	l.report(Diag{
		Code: CodeXCone, Sev: SevInfo,
		Msg: fmt.Sprintf("%d of %d nets can observe an X from %d symbolic sources", count, len(n.Nets), len(sources)),
	})
}
