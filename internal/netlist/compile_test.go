package netlist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"symsim/internal/logic"
)

// TestEvalLUTMatchesEvalGate exhaustively checks the branch-free lookup
// table against the reference switch evaluator: every combinational kind,
// every four-valued operand combination (including Z), and — critically —
// independence from the operands a kind does not use, which is what makes
// descriptor pin padding sound.
func TestEvalLUTMatchesEvalGate(t *testing.T) {
	vals := [4]logic.Value{logic.Lo, logic.Hi, logic.X, logic.Z}
	for k := KindConst0; k < KindDFF; k++ {
		for _, a := range vals {
			for _, b := range vals {
				for _, c := range vals {
					in := [3]logic.Value{a, b, c}
					want := EvalGate(k, in[:k.NumInputs()])
					got := EvalLUT[EvalIdx(k, a, b, c)]
					if got != want {
						t.Fatalf("%s(%v,%v,%v): LUT=%v want %v", k, a, b, c, got, want)
					}
				}
			}
		}
	}
	// Unused-operand independence: for a 1-input kind the result must not
	// change with operands b and c; for 2-input kinds not with c.
	for k := KindConst0; k < KindDFF; k++ {
		for _, a := range vals {
			for _, b := range vals {
				base := EvalLUT[EvalIdx(k, a, vals[0], vals[0])]
				for _, c := range vals {
					switch k.NumInputs() {
					case 0, 1:
						if got := EvalLUT[EvalIdx(k, a, b, c)]; got != EvalLUT[EvalIdx(k, a, vals[0], vals[0])] {
							t.Fatalf("%s: operand padding leaks: %v vs %v", k, got, base)
						}
					case 2:
						if got := EvalLUT[EvalIdx(k, a, b, c)]; got != EvalLUT[EvalIdx(k, a, b, vals[0])] {
							t.Fatalf("%s: third operand leaks into 2-input kind", k)
						}
					}
				}
			}
		}
	}
}

// randProgNetlist builds a random frozen netlist with gates, DFFs and a
// small RAM + ROM, exercising every CSR table.
func randProgNetlist(r *rand.Rand) *Netlist {
	n := New("randprog")
	clk := n.AddInput("clk")
	rstn := n.AddInput("rst_n")
	one := n.AddNet("one")
	n.AddGate(KindConst1, one)
	pool := []NetID{clk, rstn, one}
	for i := 0; i < 3; i++ {
		pool = append(pool, n.AddInput(fmt.Sprintf("in%d", i)))
	}
	var qs []NetID
	for i := 0; i < 4; i++ {
		qs = append(qs, n.AddNet(fmt.Sprintf("q%d", i)))
	}
	pool = append(pool, qs...)
	kinds := []GateKind{KindAnd, KindOr, KindXor, KindNand, KindNor, KindXnor, KindNot, KindBuf, KindMux2}
	for i := 0; i < 30; i++ {
		kind := kinds[r.Intn(len(kinds))]
		out := n.AddNet(fmt.Sprintf("c%d", i))
		in := make([]NetID, kind.NumInputs())
		for j := range in {
			in[j] = pool[r.Intn(len(pool))]
		}
		n.AddGate(kind, out, in...)
		pool = append(pool, out)
	}
	for _, q := range qs {
		n.AddDFF(q, pool[r.Intn(len(pool))], clk, one, rstn, logic.Lo)
	}
	// A 4-word RAM and ROM off the pool.
	addr := []NetID{pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]}
	rd := []NetID{n.AddNet("rd0"), n.AddNet("rd1")}
	n.AddMem(&Mem{
		Name: "ram", AddrBits: 2, DataBits: 2, Words: 4,
		RAddr: addr, RData: rd,
		Clk: clk, WEn: pool[r.Intn(len(pool))],
		WAddr: []NetID{pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]},
		WData: []NetID{pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]},
	})
	rrd := []NetID{n.AddNet("rrd0"), n.AddNet("rrd1")}
	n.AddMem(&Mem{
		Name: "rom", AddrBits: 2, DataBits: 2, Words: 4,
		RAddr: []NetID{pool[0], pool[1]}, RData: rrd,
		WEn: NoNet,
	})
	n.MarkOutput(pool[len(pool)-1])
	if err := n.Freeze(); err != nil {
		panic(err)
	}
	return n
}

// TestProgramMatchesNetlist cross-checks every compiled table against the
// interpreter-facing accessors on random designs.
func TestProgramMatchesNetlist(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := randProgNetlist(r)
		p := n.Program()
		if p != n.Program() {
			t.Fatal("Program not cached")
		}
		if p.MaxLevel != n.MaxLevel() {
			t.Fatalf("MaxLevel %d != %d", p.MaxLevel, n.MaxLevel())
		}
		// Renumbering: Orig and Renum are inverse permutations, the
		// level sequence over kernel IDs is non-decreasing (level-major),
		// and within a level kernel order is netlist order (stability —
		// what keeps kernel rounds in the interpreter's sorted order).
		if len(p.Orig) != len(n.Gates) || len(p.Renum) != len(n.Gates) {
			t.Fatalf("renumbering tables sized %d/%d, want %d", len(p.Orig), len(p.Renum), len(n.Gates))
		}
		for k, gi := range p.Orig {
			if p.Renum[gi] != GateID(k) {
				t.Fatalf("Renum[Orig[%d]] = %d, not an inverse", k, p.Renum[gi])
			}
		}
		for k := range p.Gates {
			if p.GateLevel[k] != n.GateLevel(p.Orig[k]) {
				t.Fatalf("kernel gate %d level mismatch", k)
			}
			if k > 0 {
				prev, cur := p.GateLevel[k-1], p.GateLevel[k]
				if cur < prev {
					t.Fatalf("kernel numbering not level-major at %d", k)
				}
				if cur == prev && p.Orig[k-1] >= p.Orig[k] {
					t.Fatalf("kernel numbering not stable within level at %d", k)
				}
			}
		}
		// Descriptors, via the numbering.
		for k := range p.Gates {
			g := &n.Gates[p.Orig[k]]
			d := &p.Gates[k]
			if d.Kind != g.Kind || d.Out != g.Out || d.Init != g.Init {
				t.Fatalf("kernel gate %d descriptor mismatch", k)
			}
			for i, in := range g.In {
				if d.In[i] != in {
					t.Fatalf("kernel gate %d pin %d: %d != %d", k, i, d.In[i], in)
				}
			}
		}
		// Fanout CSR vs slice-of-slices: same consumers through Renum
		// (duplicates preserved — a gate reading a net on two pins is listed
		// twice in both forms), sorted ascending by kernel ID.
		for id := range n.Nets {
			var want []GateID
			for _, g := range n.Fanout(NetID(id)) {
				want = append(want, p.Renum[g])
			}
			slices.Sort(want)
			got := p.GateFan(NetID(id))
			if len(got) != len(want) {
				t.Fatalf("net %d fanout len %d != %d", id, len(got), len(want))
			}
			for i, g := range got {
				if g != want[i] {
					t.Fatalf("net %d fanout[%d] %d != %d", id, i, g, want[i])
				}
			}
			wantM := n.MemFanout(NetID(id))
			gotM := p.MemFanOf(NetID(id))
			if len(gotM) != len(wantM) {
				t.Fatalf("net %d memfanout len %d != %d", id, len(gotM), len(wantM))
			}
			for i := range wantM {
				if gotM[i] != wantM[i] {
					t.Fatalf("net %d memfanout[%d] mismatch", id, i)
				}
			}
			if p.HasMemFan(NetID(id)) != (len(wantM) > 0) {
				t.Fatalf("net %d: HasMemFan = %v with %d memory readers", id, p.HasMemFan(NetID(id)), len(wantM))
			}
		}
		// Clock-domain table, when the random wiring left the design
		// eligible: every DFF, ascending kernel ID, pins as in the netlist.
		if cd := p.Clock; cd != nil {
			var dffs []GateID
			for k := range p.Gates {
				if p.Gates[k].Kind == KindDFF {
					dffs = append(dffs, GateID(k))
				}
			}
			if !slices.Equal(cd.DFFs, dffs) || len(cd.Members) != len(dffs) {
				t.Fatalf("clock domain lists DFFs %v, design has %v", cd.DFFs, dffs)
			}
			for i, k := range cd.DFFs {
				g, m := &n.Gates[p.Orig[k]], cd.Members[i]
				if g.In[DFFPinClk] != cd.Net || m.D != g.In[DFFPinD] || m.En != g.In[DFFPinEn] || m.Out != g.Out {
					t.Fatalf("clock domain member %d does not match gate %d", i, p.Orig[k])
				}
				if !slices.Contains(cd.Resets, g.In[DFFPinRstn]) {
					t.Fatalf("reset net of gate %d missing from Resets", p.Orig[k])
				}
			}
			fan := slices.DeleteFunc(slices.Clone(p.GateFan(cd.Net)), func(g GateID) bool { return p.Gates[g].Kind == KindDFF })
			if !slices.Equal(cd.Fan, fan) {
				t.Fatalf("clock domain Fan %v, want %v", cd.Fan, fan)
			}
		}
		// Level ranges: contiguous, covering, at the right levels.
		if lo, _ := p.LevelRange(0); lo != 0 {
			t.Fatalf("level 0 starts at %d", lo)
		}
		for l := int32(0); l <= p.MaxLevel; l++ {
			lo, hi := p.LevelRange(l)
			if lo > hi {
				t.Fatalf("level %d range inverted", l)
			}
			if l < p.MaxLevel {
				next, _ := p.LevelRange(l + 1)
				if next != hi {
					t.Fatalf("level %d..%d ranges not contiguous", l, l+1)
				}
			}
			for k := lo; k < hi; k++ {
				if p.GateLevel[k] != l {
					t.Fatalf("kernel gate %d in range of level %d but has level %d", k, l, p.GateLevel[k])
				}
			}
		}
		if _, hi := p.LevelRange(p.MaxLevel); int(hi) != len(n.Gates) {
			t.Fatalf("level ranges cover %d gates, want %d", hi, len(n.Gates))
		}
		seenM := make([]bool, len(n.Mems))
		for l := int32(0); l <= p.MaxLevel; l++ {
			for _, m := range p.LevelMems(l) {
				if seenM[m] {
					t.Fatalf("mem %d appears twice", m)
				}
				seenM[m] = true
				if p.MemLevel[m] != l {
					t.Fatalf("mem %d level mismatch", m)
				}
			}
		}
		for mi, ok := range seenM {
			if !ok {
				t.Fatalf("mem %d missing from level lists", mi)
			}
		}
	}
}

// TestClockDomainEligibility pins the static conditions of the clock-domain
// table one at a time: the plain design has one, and each single departure
// from the conditions documented on ClockDomain leaves Program.Clock nil.
func TestClockDomainEligibility(t *testing.T) {
	type pins struct{ d, clk, en, rstn NetID }
	build := func(twist func(n *Netlist, clk, rstn, x NetID, ff []pins) (ramClk NetID)) *Program {
		n := New("cd")
		clk, rstn, x := n.AddInput("clk"), n.AddInput("rst_n"), n.AddInput("x")
		one := n.AddNet("one")
		n.AddGate(KindConst1, one)
		nx := n.AddNet("nx")
		n.AddGate(KindNand, nx, x, clk) // the clock also feeds logic
		ff := []pins{{x, clk, one, rstn}, {nx, clk, x, rstn}}
		ramClk := clk
		if twist != nil {
			if c := twist(n, clk, rstn, x, ff); c != NoNet {
				ramClk = c
			}
		}
		for i, f := range ff {
			n.AddDFF(n.AddNet(fmt.Sprintf("q%d", i)), f.d, f.clk, f.en, f.rstn, logic.Lo)
		}
		n.AddMem(&Mem{
			Name: "ram", AddrBits: 1, DataBits: 1, Words: 2,
			RAddr: []NetID{x}, RData: []NetID{n.AddNet("rd")},
			Clk: ramClk, WEn: one, WAddr: []NetID{x}, WData: []NetID{nx},
		})
		if err := n.Freeze(); err != nil {
			t.Fatal(err)
		}
		return n.Program()
	}
	gate := func(n *Netlist, kind GateKind, a, b NetID) NetID {
		out := n.AddNet("")
		n.AddGate(kind, out, a, b)
		return out
	}

	p := build(nil)
	if cd := p.Clock; cd == nil || len(cd.DFFs) != 2 || len(cd.Resets) != 1 || len(cd.Fan) != 1 {
		t.Fatalf("plain design: clock domain = %+v", cd)
	}
	for _, tc := range []struct {
		name  string
		twist func(n *Netlist, clk, rstn, x NetID, ff []pins) NetID
	}{
		{"gated clock", func(n *Netlist, clk, _, x NetID, ff []pins) NetID { ff[1].clk = gate(n, KindAnd, clk, x); return NoNet }},
		{"second clock", func(n *Netlist, _, _, _ NetID, ff []pins) NetID { ff[1].clk = n.AddInput("clk2"); return NoNet }},
		{"clock is not a primary input", func(n *Netlist, clk, _, x NetID, ff []pins) NetID {
			c := gate(n, KindAnd, clk, x)
			ff[0].clk, ff[1].clk = c, c
			return NoNet
		}},
		{"logic-driven reset", func(n *Netlist, _, rstn, x NetID, ff []pins) NetID {
			ff[0].rstn = gate(n, KindOr, rstn, x)
			return NoNet
		}},
		{"clock on D", func(_ *Netlist, clk, _, _ NetID, ff []pins) NetID { ff[0].d = clk; return NoNet }},
		{"clock on EN", func(_ *Netlist, clk, _, _ NetID, ff []pins) NetID { ff[1].en = clk; return NoNet }},
		{"clock on RSTN", func(_ *Netlist, clk, _, _ NetID, ff []pins) NetID { ff[1].rstn = clk; return NoNet }},
		{"RAM on a gated clock", func(n *Netlist, clk, _, x NetID, _ []pins) NetID { return gate(n, KindAnd, clk, x) }},
	} {
		if cd := build(tc.twist).Clock; cd != nil {
			t.Errorf("%s: design still has a clock domain: %+v", tc.name, cd)
		}
	}
	n := New("comb")
	a := n.AddInput("a")
	o := n.AddNet("o")
	n.AddGate(KindNot, o, a)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	if n.Program().Clock != nil {
		t.Error("a design without flip-flops has a clock domain")
	}
}

// TestProgramRequiresFreeze: compiling an unfrozen netlist is a programming
// error and must panic rather than bake in incomplete fanout tables.
func TestProgramRequiresFreeze(t *testing.T) {
	n := New("unfrozen")
	n.AddInput("a")
	defer func() {
		if recover() == nil {
			t.Fatal("Program on unfrozen netlist did not panic")
		}
	}()
	n.Program()
}
