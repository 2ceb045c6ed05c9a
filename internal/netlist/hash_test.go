package netlist_test

import (
	"fmt"
	"strings"
	"testing"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

// hashDesign builds a small but representative design — inputs, comb
// logic, a DFF and a RAM — with caller-controlled net names and element
// insertion order, so the tests below can prove rename- and
// declaration-order stability on the exact same structure.
type hashOpts struct {
	prefix   string // net name prefix ("" = auto-generated names)
	swapped  bool   // add the two AND/OR gates in the opposite order
	gateKind netlist.GateKind
	dffInit  logic.Value
	memWord  uint64 // init value of RAM word 0 (the "program input")
}

func hashDesign(t *testing.T, o hashOpts) *netlist.Netlist {
	t.Helper()
	name := func(s string) string {
		if o.prefix == "" {
			return ""
		}
		return o.prefix + s
	}
	n := netlist.New("hashdut")
	clk := n.AddInput(name("clk"))
	rst := n.AddInput(name("rst"))
	a := n.AddInput(name("a"))
	b := n.AddInput(name("b"))
	x := n.AddNet(name("x"))
	y := n.AddNet(name("y"))
	q := n.AddNet(name("q"))
	if o.swapped {
		n.AddGate(netlist.KindOr, y, x, b)
		n.AddGate(o.gateKind, x, a, b)
	} else {
		n.AddGate(o.gateKind, x, a, b)
		n.AddGate(netlist.KindOr, y, x, b)
	}
	en := n.AddNet(name("en"))
	n.AddGate(netlist.KindConst1, en)
	n.AddDFF(q, y, clk, en, rst, o.dffInit)

	rd := n.AddNet(name("rd"))
	init := make([]logic.Vec, 2)
	init[0] = logic.NewVecUint64(1, o.memWord)
	init[1] = logic.NewVecUint64(1, 1)
	n.AddMem(&netlist.Mem{
		Name: name("ram"), AddrBits: 1, DataBits: 1, Words: 2, Init: init,
		RAddr: []netlist.NetID{q}, RData: []netlist.NetID{rd},
		Clk: clk, WEn: en, WAddr: []netlist.NetID{y}, WData: []netlist.NetID{x},
	})
	out := n.AddNet(name("out"))
	n.AddGate(netlist.KindXor, out, rd, q)
	n.MarkOutput(out)
	return n
}

func baseOpts(prefix string) hashOpts {
	return hashOpts{prefix: prefix, gateKind: netlist.KindAnd, dffInit: logic.Lo, memWord: 0}
}

func TestHashRenameStable(t *testing.T) {
	h1 := hashDesign(t, baseOpts("u_")).Hash()
	h2 := hashDesign(t, baseOpts("core_")).Hash()
	h3 := hashDesign(t, baseOpts("")).Hash() // auto-generated names
	if h1 != h2 || h1 != h3 {
		t.Errorf("renaming nets changed the hash: %s / %s / %s", h1, h2, h3)
	}
}

func TestHashDeclarationOrderIndependent(t *testing.T) {
	o := baseOpts("u_")
	o.swapped = true
	h1 := hashDesign(t, baseOpts("u_")).Hash()
	h2 := hashDesign(t, o).Hash()
	if h1 != h2 {
		t.Errorf("permuting gate insertion order changed the hash: %s vs %s", h1, h2)
	}
}

func TestHashSensitivity(t *testing.T) {
	base := hashDesign(t, baseOpts("u_")).Hash()
	mutations := map[string]hashOpts{
		"gate kind": func() hashOpts { o := baseOpts("u_"); o.gateKind = netlist.KindNand; return o }(),
		"dff init":  func() hashOpts { o := baseOpts("u_"); o.dffInit = logic.Hi; return o }(),
		"mem init":  func() hashOpts { o := baseOpts("u_"); o.memWord = 1; return o }(),
	}
	for what, o := range mutations {
		if h := hashDesign(t, o).Hash(); h == base {
			t.Errorf("changing %s did not change the hash", what)
		}
	}

	// Rewiring a connection (swap the XOR's inputs with asymmetric
	// sources) must also change the hash.
	n := hashDesign(t, baseOpts("u_"))
	rewired := netlist.New("hashdut")
	clk := rewired.AddInput("clk")
	rst := rewired.AddInput("rst")
	a := rewired.AddInput("a")
	b := rewired.AddInput("b")
	x := rewired.AddNet("x")
	rewired.AddGate(netlist.KindAnd, x, b, a) // swapped pins
	_, _, _, _ = clk, rst, x, b
	if rewired.Hash() == n.Hash() {
		t.Error("structurally different designs hash equal")
	}
}

func TestHashStableAcrossCallsAndFreeze(t *testing.T) {
	n := hashDesign(t, baseOpts("u_"))
	before := n.Hash()
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	after := n.Hash()
	if before != after {
		t.Errorf("hash changed across Freeze: %s vs %s", before, after)
	}
	if again := n.Hash(); again != after {
		t.Errorf("cached hash differs: %s vs %s", again, after)
	}
	if before.String() == "" || len(before.String()) != 64 {
		t.Errorf("digest string malformed: %q", before)
	}
}

// Two nets carrying identical labels (a symmetric pair of AND gates fed by
// the same inputs) must not collapse the multiset: duplicating logic
// changes the hash.
func TestHashCountsDuplicateStructure(t *testing.T) {
	build := func(dup bool) *netlist.Netlist {
		n := netlist.New("dup")
		_ = n.AddInput("clk")
		_ = n.AddInput("rst")
		a := n.AddInput("a")
		b := n.AddInput("b")
		x := n.AddNet("")
		n.AddGate(netlist.KindAnd, x, a, b)
		n.MarkOutput(x)
		if dup {
			y := n.AddNet("")
			n.AddGate(netlist.KindAnd, y, a, b)
		}
		return n
	}
	if build(false).Hash() == build(true).Hash() {
		t.Error("duplicated gate did not change the hash")
	}
}

// Hash must be total over raw (unvalidated) designs: lint hashes files
// read with ReadRaw, where gate pins, inputs and outputs may reference
// nets that do not exist. Dangling references hash under a distinct tag
// instead of panicking.
func TestHashToleratesDanglingReferences(t *testing.T) {
	raw := `{
		"name": "broken",
		"nets": [{"name": "a"}, {"name": "b"}],
		"inputs": [0, 99],
		"outputs": [1, -7],
		"gates": [{"kind": "AND", "in": [0, 42], "out": 1}]
	}`
	n, err := netlist.ReadRaw(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	h1 := n.Hash()
	h2 := n.Hash()
	if h1 != h2 {
		t.Error("hash of raw design is not deterministic")
	}
	if h1 == (netlist.Digest{}) {
		t.Error("hash is zero")
	}
}

// Every single init word enters the hash, through a view and through a
// netlist elaborated with the word in place.
func TestHashSensitiveToEveryInitWord(t *testing.T) {
	base := hashDesign(t, baseOpts("u_"))
	if err := base.Freeze(); err != nil {
		t.Fatal(err)
	}
	seen := map[netlist.Digest]string{base.Hash(): "base"}
	init := base.Mems[0].Init
	for w := range init {
		for _, flip := range []string{"known", "x"} {
			mut := append([]logic.Vec(nil), init...)
			mut[w] = logic.NewVec(1) // all X
			if flip == "known" {
				v, _ := init[w].Uint64()
				mut[w] = logic.NewVecUint64(1, v^1)
			}
			v, err := base.Bind(map[string][]logic.Vec{"u_ram": mut})
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("word %d -> %s", w, flip)
			if prev, dup := seen[v.Hash()]; dup {
				t.Errorf("%s hashes like %s", what, prev)
			}
			seen[v.Hash()] = what
		}
	}
	short, err := base.Bind(map[string][]logic.Vec{"u_ram": init[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if prev, dup := seen[short.Hash()]; dup {
		t.Errorf("dropping the last init word hashes like %s", prev)
	}
}

// twoROMs builds two ROMs of one geometry whose read data drive the two
// outputs in order. With shared the ROMs sit behind the same address net,
// so nothing upstream tells them apart (the labels flow from drivers to
// readers only); otherwise each has its own address input. second declares
// the memories in the opposite order, contents and outputs staying with
// their ROM.
func twoROMs(shared, second bool, first, other uint64) *netlist.Netlist {
	n := netlist.New("roms")
	_ = n.AddInput("clk")
	_ = n.AddInput("rst")
	a := n.AddInput("a")
	b := a
	if !shared {
		b = n.AddInput("b")
	}
	rd0, rd1 := n.AddNet("rd0"), n.AddNet("rd1")
	rom := func(name string, addr, rd netlist.NetID, word uint64) *netlist.Mem {
		return &netlist.Mem{
			Name: name, AddrBits: 1, DataBits: 1, Words: 2,
			Init:  []logic.Vec{logic.NewVecUint64(1, word), logic.NewVecUint64(1, 1)},
			RAddr: []netlist.NetID{addr}, RData: []netlist.NetID{rd},
			Clk: netlist.NoNet, WEn: netlist.NoNet,
		}
	}
	m0, m1 := rom("rom0", a, rd0, first), rom("rom1", b, rd1, other)
	if second {
		n.AddMem(m1)
		n.AddMem(m0)
	} else {
		n.AddMem(m0)
		n.AddMem(m1)
	}
	n.MarkOutput(rd0)
	n.MarkOutput(rd1)
	return n
}

// Two structurally identical memories with swapped contents are a
// different machine — whether the structure level can tell the memories
// apart (own address inputs) or not (one address net, where the contents
// have to be folded into the labels to reach the outputs) — while
// declaring them in the other order is the same machine.
func TestHashBindsContentsToTheirMemory(t *testing.T) {
	for _, shared := range []bool{false, true} {
		base := twoROMs(shared, false, 0, 1).Hash()
		if twoROMs(shared, false, 1, 0).Hash() == base {
			t.Errorf("shared address=%v: swapping the contents of two same-geometry ROMs did not change the hash", shared)
		}
		if twoROMs(shared, true, 0, 1).Hash() != base {
			t.Errorf("shared address=%v: declaring the ROMs in the other order changed the hash", shared)
		}
		if twoROMs(shared, false, 1, 1).Hash() == base {
			t.Errorf("shared address=%v: changing one ROM word did not change the hash", shared)
		}
	}
}
