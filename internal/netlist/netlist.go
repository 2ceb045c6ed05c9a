// Package netlist defines the gate-level intermediate representation that
// every other part of symsim operates on: primitive combinational gates,
// D flip-flops, and word-addressed memories connected by single-driver
// nets. The representation is deliberately close to what a technology-mapped
// synthesis netlist looks like — the paper performs its co-analysis on
// placed-and-routed gate-level netlists, and the bespoke flow (pruning
// unexercisable gates, tying fanout to observed constants, re-synthesis)
// is expressed here as netlist-to-netlist transformations.
package netlist

import (
	"fmt"
	"sort"
	"sync"

	"symsim/internal/logic"
)

// NetID identifies a net within one Netlist. NoNet marks an unconnected pin.
type NetID int32

// GateID identifies a gate within one Netlist.
type GateID int32

// NoNet is the nil NetID.
const NoNet NetID = -1

// NoGate is the nil GateID.
const NoGate GateID = -1

// GateKind enumerates the primitive cells of the target library.
type GateKind uint8

// Primitive gate kinds. Combinational gates have their inputs in In and a
// single output. DFF pins are fixed as In = [D, CLK, EN, RSTn]; EN and RSTn
// may be tied to constant nets. A DFF with RSTn low loads its Init value
// asynchronously.
const (
	// KindConst0 drives constant logic 0. No inputs.
	KindConst0 GateKind = iota
	// KindConst1 drives constant logic 1. No inputs.
	KindConst1
	// KindBuf is a buffer: Out = In[0].
	KindBuf
	// KindNot is an inverter: Out = !In[0].
	KindNot
	// KindAnd is a 2-input AND.
	KindAnd
	// KindOr is a 2-input OR.
	KindOr
	// KindNand is a 2-input NAND.
	KindNand
	// KindNor is a 2-input NOR.
	KindNor
	// KindXor is a 2-input XOR.
	KindXor
	// KindXnor is a 2-input XNOR.
	KindXnor
	// KindMux2 is a 2:1 multiplexer: In = [SEL, A, B]; Out = SEL ? B : A.
	KindMux2
	// KindDFF is a positive-edge D flip-flop with enable and active-low
	// asynchronous reset: In = [D, CLK, EN, RSTn].
	KindDFF
)

var kindNames = [...]string{
	KindConst0: "CONST0", KindConst1: "CONST1", KindBuf: "BUF", KindNot: "NOT",
	KindAnd: "AND", KindOr: "OR", KindNand: "NAND", KindNor: "NOR",
	KindXor: "XOR", KindXnor: "XNOR", KindMux2: "MUX2", KindDFF: "DFF",
}

// String returns the cell-library name of k.
func (k GateKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("GateKind(%d)", uint8(k))
}

// NumInputs returns the pin count of kind k.
func (k GateKind) NumInputs() int {
	switch k {
	case KindConst0, KindConst1:
		return 0
	case KindBuf, KindNot:
		return 1
	case KindMux2:
		return 3
	case KindDFF:
		return 4
	default:
		return 2
	}
}

// IsSequential reports whether k holds state across clock edges.
func (k GateKind) IsSequential() bool { return k == KindDFF }

// DFF pin indices within Gate.In.
const (
	DFFPinD    = 0
	DFFPinClk  = 1
	DFFPinEn   = 2
	DFFPinRstn = 3
)

// Mux pin indices within Gate.In.
const (
	MuxPinSel = 0
	MuxPinA   = 1
	MuxPinB   = 2
)

// Gate is one primitive cell instance.
type Gate struct {
	Kind GateKind
	// In lists the input nets in the pin order documented on GateKind.
	In []NetID
	// Out is the single output net driven by this gate.
	Out NetID
	// Init is the asynchronous reset value of a DFF; ignored otherwise.
	Init logic.Value
	// Name is an optional instance name for reports and debugging.
	Name string
}

// Net is one single-driver wire.
type Net struct {
	Name string
	// Driver is the gate driving this net, NoGate for primary inputs and
	// memory read-data bits.
	Driver GateID
	// IsInput marks primary inputs.
	IsInput bool
}

// MemID identifies a memory within one Netlist.
type MemID int32

// Mem is a word-addressed memory primitive with one asynchronous read port
// and one synchronous write port. Memories are not counted as gates: the
// paper's processor gate counts cover the core logic only ("Our
// implementation of DarkRISCV only modeled the processor core and memory").
// Contents are ternary so application inputs can be initialized to X
// (paper Listing 1).
type Mem struct {
	Name     string
	AddrBits int
	DataBits int
	Words    int
	// Init holds the power-on contents; len(Init) == Words, each entry
	// DataBits wide. Unwritten words default to all-X.
	Init []logic.Vec
	// RAddr/RData wire the asynchronous read port (RData bits are driven
	// by the memory; their Net.Driver is NoGate).
	RAddr []NetID
	RData []NetID
	// Clk, WEn, WAddr, WData wire the synchronous write port. A memory
	// with WEn == NoNet is a ROM.
	Clk   NetID
	WEn   NetID
	WAddr []NetID
	WData []NetID
}

// IsROM reports whether m has no write port.
func (m *Mem) IsROM() bool { return m.WEn == NoNet }

// tables holds what is computed from a frozen netlist's structure — its
// nets, gates, ports and memory geometry, never the memory contents — and
// is therefore shared, through one pointer, by the netlist and every view
// bound to it: the fanout and level tables Freeze builds, and the compiled
// Program, structure digest and caller-derived analyses built on first use.
type tables struct {
	// fanout[net] lists gates with net on an input pin.
	fanout [][]GateID
	// memFanout[net] lists memories with net on an input pin (address,
	// data, clock or enable).
	memFanout [][]MemID
	// gateLevel/memLevel are topological evaluation levels (inputs and
	// flip-flop outputs are level 0). Levelized event processing keeps
	// zero-delay settling linear in the design size.
	gateLevel []int32
	memLevel  []int32
	maxLevel  int32

	// prog is the compiled structure-of-arrays form built by Program();
	// every simulator of the design, whichever view it runs, shares it.
	progOnce sync.Once
	prog     *Program

	// structure is the content digest of everything but the memory
	// contents (see Hash).
	structOnce sync.Once
	structure  Digest

	// derived caches structure-determined analyses of other packages
	// (see Derived).
	derived sync.Map
}

// Netlist is a flat gate-level design.
type Netlist struct {
	Name string

	Nets  []Net
	Gates []Gate
	Mems  []*Mem

	// Inputs and Outputs list the primary ports in declaration order.
	Inputs  []NetID
	Outputs []NetID

	// tables is everything Freeze derives from the structure; nil until
	// the design is frozen. A view (Bind) points at its base's instance.
	*tables

	names map[string]NetID
}

// New returns an empty netlist with the given design name.
func New(name string) *Netlist {
	return &Netlist{Name: name, names: make(map[string]NetID)}
}

// AddNet creates a new undriven net. Names must be unique; an empty name is
// auto-generated.
func (n *Netlist) AddNet(name string) NetID {
	n.mutable()
	if name == "" {
		name = fmt.Sprintf("n%d", len(n.Nets))
	}
	if _, dup := n.names[name]; dup {
		panic(fmt.Sprintf("netlist: duplicate net name %q", name))
	}
	id := NetID(len(n.Nets))
	n.Nets = append(n.Nets, Net{Name: name, Driver: NoGate})
	n.names[name] = id
	return id
}

// AddInput creates a primary input net.
func (n *Netlist) AddInput(name string) NetID {
	id := n.AddNet(name)
	n.Nets[id].IsInput = true
	n.Inputs = append(n.Inputs, id)
	return id
}

// MarkOutput declares net id as a primary output.
func (n *Netlist) MarkOutput(id NetID) {
	n.mutable()
	n.Outputs = append(n.Outputs, id)
}

// NetByName returns the net with the given name.
func (n *Netlist) NetByName(name string) (NetID, bool) {
	id, ok := n.names[name]
	return id, ok
}

// NetName returns the name of net id.
func (n *Netlist) NetName(id NetID) string { return n.Nets[id].Name }

// MemByName returns the memory with the given name.
func (n *Netlist) MemByName(name string) (MemID, bool) {
	for i, m := range n.Mems {
		if m.Name == name {
			return MemID(i), true
		}
	}
	return -1, false
}

// AddGate instantiates a gate of the given kind driving out. It panics on
// pin-count mismatch or if out is already driven.
func (n *Netlist) AddGate(kind GateKind, out NetID, in ...NetID) GateID {
	n.mutable()
	if len(in) != kind.NumInputs() {
		panic(fmt.Sprintf("netlist: %s expects %d inputs, got %d", kind, kind.NumInputs(), len(in)))
	}
	if n.Nets[out].Driver != NoGate || n.Nets[out].IsInput {
		panic(fmt.Sprintf("netlist: net %q already driven", n.Nets[out].Name))
	}
	id := GateID(len(n.Gates))
	g := Gate{Kind: kind, In: append([]NetID(nil), in...), Out: out}
	n.Gates = append(n.Gates, g)
	n.Nets[out].Driver = id
	return id
}

// AddDFF instantiates a D flip-flop with the given reset value.
func (n *Netlist) AddDFF(q, d, clk, en, rstn NetID, init logic.Value) GateID {
	id := n.AddGate(KindDFF, q, d, clk, en, rstn)
	n.Gates[id].Init = init
	return id
}

// AddMem instantiates a memory primitive. The read-data nets must be
// undriven; the memory becomes their driver-of-record (Net.Driver stays
// NoGate since memories are not gates).
func (n *Netlist) AddMem(m *Mem) MemID {
	n.mutable()
	if len(m.RAddr) != m.AddrBits || len(m.RData) != m.DataBits {
		panic("netlist: memory read port width mismatch")
	}
	if !m.IsROM() && (len(m.WAddr) != m.AddrBits || len(m.WData) != m.DataBits) {
		panic("netlist: memory write port width mismatch")
	}
	if m.Words <= 0 || m.Words > 1<<m.AddrBits {
		panic(fmt.Sprintf("netlist: memory %q words %d out of range for %d address bits", m.Name, m.Words, m.AddrBits))
	}
	id := MemID(len(n.Mems))
	n.Mems = append(n.Mems, m)
	return id
}

func (n *Netlist) mutable() {
	if n.tables != nil {
		panic("netlist: modified after Freeze")
	}
}

// Freeze validates the design and builds the fanout tables. After Freeze
// the netlist is immutable and safe for concurrent simulation.
func (n *Netlist) Freeze() error {
	if n.tables != nil {
		return nil
	}
	t := &tables{
		fanout:    make([][]GateID, len(n.Nets)),
		memFanout: make([][]MemID, len(n.Nets)),
	}
	for gi := range n.Gates {
		for _, in := range n.Gates[gi].In {
			if in == NoNet {
				return fmt.Errorf("netlist %s: gate %d (%s) has an unconnected input", n.Name, gi, n.Gates[gi].Kind)
			}
			t.fanout[in] = append(t.fanout[in], GateID(gi))
		}
	}
	for mi, m := range n.Mems {
		pins := make([]NetID, 0, 2*(m.AddrBits+m.DataBits)+2)
		pins = append(pins, m.RAddr...)
		if !m.IsROM() {
			pins = append(pins, m.Clk, m.WEn)
			pins = append(pins, m.WAddr...)
			pins = append(pins, m.WData...)
		}
		for _, p := range pins {
			if p == NoNet {
				return fmt.Errorf("netlist %s: memory %q has an unconnected pin", n.Name, m.Name)
			}
			t.memFanout[p] = append(t.memFanout[p], MemID(mi))
		}
		for _, d := range m.RData {
			if n.Nets[d].Driver != NoGate {
				return fmt.Errorf("netlist %s: memory %q read-data net %q is also gate-driven", n.Name, m.Name, n.Nets[d].Name)
			}
		}
	}
	if err := n.checkDrivers(); err != nil {
		return err
	}
	if err := n.computeLevels(t); err != nil {
		return err
	}
	n.tables = t
	// Compile the structure-of-arrays Program eagerly: flattening is
	// elaboration work (linear, one-time, shared by every simulator of the
	// design), not something the first analysis should pay for.
	n.Program()
	return nil
}

// Bind returns a view of the frozen design n loaded with an image: a
// netlist that shares n's nets, gates, ports and every table Freeze and
// Program built (none of which is copied, so the view costs a few hundred
// bytes and is itself frozen), and owns a Mems slice in which each memory
// named in init has those words as its Init. A memory not named keeps n's
// contents — unwritten, hence all-X, for a design elaborated without an
// image. The view takes the init slices as they are, so the caller must
// not write to them afterwards. It panics when n is not frozen (the
// structure could still change under the view) and reports a name that is
// not a memory of n; init words of the wrong width are lint's to report
// (NL000), as they are for a design read from a file.
func (n *Netlist) Bind(init map[string][]logic.Vec) (*Netlist, error) {
	if n.tables == nil {
		panic(fmt.Sprintf("netlist %s: Bind before Freeze", n.Name))
	}
	for name := range init {
		if _, ok := n.MemByName(name); !ok {
			return nil, fmt.Errorf("netlist %s: no memory %q to bind", n.Name, name)
		}
	}
	v := *n
	v.Mems = make([]*Mem, len(n.Mems))
	for i, m := range n.Mems {
		c := *m
		if words, ok := init[m.Name]; ok {
			c.Init = words
		}
		v.Mems[i] = &c
	}
	return &v, nil
}

// Derived returns compute's result for key, running compute at most once
// per design: the result is kept with the tables a frozen netlist shares
// with its views, so an analysis that depends on the structure — and on
// the memory contents only through facts the caller has put into key — is
// paid once per design instead of once per image. key must be comparable.
// On a netlist that is not frozen nothing is kept, since the structure
// can still change.
func (n *Netlist) Derived(key any, compute func() any) any {
	if n.tables == nil {
		return compute()
	}
	type entry struct {
		once sync.Once
		val  any
	}
	e, ok := n.derived.Load(key)
	if !ok {
		e, _ = n.derived.LoadOrStore(key, new(entry))
	}
	ent := e.(*entry)
	ent.once.Do(func() { ent.val = compute() })
	return ent.val
}

// GateLevel returns the evaluation level of gate g. Valid after Freeze.
func (n *Netlist) GateLevel(g GateID) int32 { return n.gateLevel[g] }

// MemLevel returns the evaluation level of memory m. Valid after Freeze.
func (n *Netlist) MemLevel(m MemID) int32 { return n.memLevel[m] }

// MaxLevel returns the deepest evaluation level. Valid after Freeze.
func (n *Netlist) MaxLevel() int32 { return n.maxLevel }

// computeLevels topologically levels the combinational graph, including
// memory read ports (address/data/enable pins feed the read-data nets):
// sources — primary inputs, constants' sinks, and flip-flop outputs — sit
// at level 0; every combinational gate and memory evaluates strictly after
// its inputs. A cycle anywhere in this graph (even one running through a
// memory read port, which a gate-only check would miss) is rejected.
func (n *Netlist) computeLevels(t *tables) error {
	// Node ids: gates [0, G), memories [G, G+M). Only the asynchronous
	// read path of a memory is combinational: RAddr -> RData. The write
	// port (Clk/WEn/WAddr/WData) samples on the clock edge like a
	// flip-flop and creates no level edge — otherwise every design whose
	// ALU both reads and writes the same RAM would be a false cycle.
	G, M := len(n.Gates), len(n.Mems)
	indeg := make([]int32, G+M)
	memRead := make(map[NetID][]int) // net -> mems with net on RAddr
	isRData := make(map[NetID]int)   // net -> mem index of its RData
	for mi, mm := range n.Mems {
		for _, p := range mm.RAddr {
			memRead[p] = append(memRead[p], mi)
		}
		for _, rd := range mm.RData {
			isRData[rd] = mi
		}
	}
	netConsumers := func(id NetID, f func(node int)) {
		for _, g := range t.fanout[id] {
			if !n.Gates[g].Kind.IsSequential() {
				f(int(g))
			}
		}
		for _, mi := range memRead[id] {
			f(G + mi)
		}
	}
	nodeOutNets := func(node int) []NetID {
		if node < G {
			return []NetID{n.Gates[node].Out}
		}
		return n.Mems[node-G].RData
	}
	// Indegree = number of comb gates / memory read ports feeding pins.
	countIn := func(node int, pins []NetID) {
		for _, p := range pins {
			if d := n.Nets[p].Driver; d != NoGate && !n.Gates[d].Kind.IsSequential() {
				indeg[node]++
				continue
			}
			if _, ok := isRData[p]; ok {
				indeg[node]++
			}
		}
	}
	for gi := range n.Gates {
		if n.Gates[gi].Kind.IsSequential() {
			continue
		}
		countIn(gi, n.Gates[gi].In)
	}
	for mi, mm := range n.Mems {
		countIn(G+mi, mm.RAddr)
	}

	t.gateLevel = make([]int32, G)
	t.memLevel = make([]int32, M)
	level := make([]int32, G+M)
	queue := make([]int, 0, G+M)
	for node := 0; node < G+M; node++ {
		if node < G && n.Gates[node].Kind.IsSequential() {
			continue
		}
		if indeg[node] == 0 {
			queue = append(queue, node)
			level[node] = 1
		}
	}
	processed := 0
	total := M
	for gi := range n.Gates {
		if !n.Gates[gi].Kind.IsSequential() {
			total++
		}
	}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		processed++
		if level[node] > t.maxLevel {
			t.maxLevel = level[node]
		}
		for _, out := range nodeOutNets(node) {
			netConsumers(out, func(next int) {
				if level[next] < level[node]+1 {
					level[next] = level[node] + 1
				}
				indeg[next]--
				if indeg[next] == 0 {
					queue = append(queue, next)
				}
			})
		}
	}
	if processed != total {
		return fmt.Errorf("netlist %s: combinational cycle detected (%d of %d nodes leveled; cycles may pass through memory read ports)", n.Name, processed, total)
	}
	for gi := range n.Gates {
		g := &n.Gates[gi]
		if !g.Kind.IsSequential() {
			t.gateLevel[gi] = level[gi]
			continue
		}
		// Flip-flops evaluate after their entire input cone so captures
		// see settled data.
		var lvl int32
		for _, in := range g.In {
			if l := n.netLevel(level, in); l > lvl {
				lvl = l
			}
		}
		t.gateLevel[gi] = lvl + 1
		if t.gateLevel[gi] > t.maxLevel {
			t.maxLevel = t.gateLevel[gi]
		}
	}
	for mi := range n.Mems {
		t.memLevel[mi] = level[G+mi]
	}
	return nil
}

// netLevel returns the level of the node driving net id (0 for sources).
func (n *Netlist) netLevel(level []int32, id NetID) int32 {
	if d := n.Nets[id].Driver; d != NoGate && !n.Gates[d].Kind.IsSequential() {
		return level[d]
	}
	for mi, mm := range n.Mems {
		for _, rd := range mm.RData {
			if rd == id {
				return level[len(n.Gates)+mi]
			}
		}
	}
	return 0
}

// DriverCounts returns, per net, how many sources drive it: each gate
// output, memory read-data pin and primary-input declaration counts as
// one. A structurally sound netlist has exactly one source per net; the
// reader and the lint pass share this helper to diagnose violations.
// Out-of-range references (possible in hand-assembled netlists) are
// ignored rather than counted.
func (n *Netlist) DriverCounts() []int {
	src := make([]int, len(n.Nets))
	count := func(id NetID) {
		if id >= 0 && int(id) < len(src) {
			src[id]++
		}
	}
	for _, g := range n.Gates {
		count(g.Out)
	}
	for _, m := range n.Mems {
		for _, d := range m.RData {
			count(d)
		}
	}
	for _, in := range n.Inputs {
		count(in)
	}
	return src
}

// checkDrivers verifies every net has exactly one source: a gate, a memory
// read port, or a primary input.
func (n *Netlist) checkDrivers() error {
	src := n.DriverCounts()
	for id, c := range src {
		if c == 0 {
			return fmt.Errorf("netlist %s: net %q is undriven", n.Name, n.Nets[id].Name)
		}
		if c > 1 {
			return fmt.Errorf("netlist %s: net %q has %d drivers", n.Name, n.Nets[id].Name, c)
		}
	}
	return nil
}

// Fanout returns the gates reading net id. Valid after Freeze.
func (n *Netlist) Fanout(id NetID) []GateID { return n.fanout[id] }

// MemFanout returns the memories reading net id. Valid after Freeze.
func (n *Netlist) MemFanout(id NetID) []MemID { return n.memFanout[id] }

// CombOrder returns the combinational gates in topological order (inputs
// before outputs), treating DFF outputs, memory read data and primary
// inputs as sources. It fails if the combinational logic has a cycle.
func (n *Netlist) CombOrder() ([]GateID, error) {
	indeg := make([]int, len(n.Gates))
	order := make([]GateID, 0, len(n.Gates))
	ready := make([]GateID, 0, len(n.Gates))
	// fanout by driving gate, restricted to combinational consumers.
	for gi := range n.Gates {
		g := &n.Gates[gi]
		if g.Kind.IsSequential() {
			continue
		}
		for _, in := range g.In {
			d := n.Nets[in].Driver
			if d != NoGate && !n.Gates[d].Kind.IsSequential() {
				indeg[gi]++
			}
		}
		if indeg[gi] == 0 {
			ready = append(ready, GateID(gi))
		}
	}
	var fan [][]GateID
	if n.tables != nil {
		fan = n.fanout
	} else {
		fan = make([][]GateID, len(n.Nets))
		for gi := range n.Gates {
			for _, in := range n.Gates[gi].In {
				fan[in] = append(fan[in], GateID(gi))
			}
		}
	}
	comb := 0
	for gi := range n.Gates {
		if !n.Gates[gi].Kind.IsSequential() {
			comb++
		}
	}
	for len(ready) > 0 {
		g := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, g)
		for _, f := range fan[n.Gates[g].Out] {
			if n.Gates[f].Kind.IsSequential() {
				continue
			}
			indeg[f]--
			if indeg[f] == 0 {
				ready = append(ready, f)
			}
		}
	}
	if len(order) != comb {
		return nil, fmt.Errorf("netlist %s: combinational cycle detected (%d of %d gates ordered)", n.Name, len(order), comb)
	}
	return order, nil
}

// Stats summarizes a netlist for the platform characterization table.
type Stats struct {
	Gates      int
	Sequential int
	ByKind     map[GateKind]int
	Nets       int
	Mems       int
}

// Stats returns cell statistics for n.
func (n *Netlist) Stats() Stats {
	s := Stats{ByKind: make(map[GateKind]int), Nets: len(n.Nets), Mems: len(n.Mems)}
	for _, g := range n.Gates {
		s.Gates++
		s.ByKind[g.Kind]++
		if g.Kind.IsSequential() {
			s.Sequential++
		}
	}
	return s
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	kinds := make([]GateKind, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	out := fmt.Sprintf("%d gates (%d seq), %d nets, %d mems:", s.Gates, s.Sequential, s.Nets, s.Mems)
	for _, k := range kinds {
		out += fmt.Sprintf(" %s=%d", k, s.ByKind[k])
	}
	return out
}

// EvalGate computes the output of a combinational gate from its input
// values, using Verilog X-propagation semantics. It panics on sequential
// kinds.
func EvalGate(kind GateKind, in []logic.Value) logic.Value {
	switch kind {
	case KindConst0:
		return logic.Lo
	case KindConst1:
		return logic.Hi
	case KindBuf:
		return logic.Buf(in[0])
	case KindNot:
		return logic.Not(in[0])
	case KindAnd:
		return logic.And(in[0], in[1])
	case KindOr:
		return logic.Or(in[0], in[1])
	case KindNand:
		return logic.Nand(in[0], in[1])
	case KindNor:
		return logic.Nor(in[0], in[1])
	case KindXor:
		return logic.Xor(in[0], in[1])
	case KindXnor:
		return logic.Xnor(in[0], in[1])
	case KindMux2:
		return logic.Mux(in[MuxPinSel], in[MuxPinA], in[MuxPinB])
	}
	panic(fmt.Sprintf("netlist: EvalGate on %s", kind))
}
