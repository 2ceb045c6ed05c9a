package netlist

import (
	"fmt"
	"math/bits"
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

// progShape selects the twists randProgNetlist adds to the plain design —
// the ones of internal/vvp's randCircuit, which decide what levels the
// flip-flops and the RAM land on and whether the design keeps its
// clock-domain table.
type progShape uint8

const (
	progGatedClock    progShape = 1 << iota // flip-flop 0 on AND(clk, net)
	progSecondClock                         // flip-flop 1 on a second primary-input clock
	progLogicReset                          // flip-flop 0 reset by OR(rst_n, net)
	progClockOnD                            // the clock on flip-flop 2's D pin
	progMemGatedClock                       // the RAM written on AND(clk, net)
	progWideMem                             // a 72-bit RAM: two words of read-data nets
	progAll           = progWideMem<<1 - 1
)

// randProgNetlist builds a random frozen netlist with gates combinational
// gates, four DFFs and a small RAM + ROM, exercising every compiled table.
func randProgNetlist(r *rand.Rand, gates int, shape progShape) *Netlist {
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
	pick := func() NetID { return pool[r.Intn(len(pool))] }
	kinds := []GateKind{KindAnd, KindOr, KindXor, KindNand, KindNor, KindXnor, KindNot, KindBuf, KindMux2}
	for i := 0; i < gates; i++ {
		kind := kinds[r.Intn(len(kinds))]
		out := n.AddNet(fmt.Sprintf("c%d", i))
		in := make([]NetID, kind.NumInputs())
		for j := range in {
			in[j] = pick()
		}
		n.AddGate(kind, out, in...)
		pool = append(pool, out)
	}
	derived := func(name string, kind GateKind, a NetID) NetID {
		out := n.AddNet(name)
		n.AddGate(kind, out, a, pick())
		return out
	}
	for i, q := range qs {
		d, c, rs := pick(), clk, rstn
		switch {
		case i == 0 && shape&progGatedClock != 0:
			c = derived("gclk", KindAnd, clk)
		case i == 1 && shape&progSecondClock != 0:
			c = n.AddInput("clk2")
		case i == 2 && shape&progClockOnD != 0:
			d = clk
		}
		if i == 0 && shape&progLogicReset != 0 {
			rs = derived("lrst", KindOr, rstn)
		}
		n.AddDFF(q, d, c, one, rs, logic.Lo)
	}
	// A RAM and a 4-word ROM off the pool.
	ram := &Mem{Name: "ram", AddrBits: 2, DataBits: 2, Words: 4, Clk: clk, WEn: pick()}
	if shape&progMemGatedClock != 0 {
		ram.Clk = derived("mclk", KindAnd, clk)
	}
	if shape&progWideMem != 0 {
		ram.DataBits = 72
	}
	for i := 0; i < ram.AddrBits; i++ {
		ram.RAddr, ram.WAddr = append(ram.RAddr, pick()), append(ram.WAddr, pick())
	}
	for i := 0; i < ram.DataBits; i++ {
		ram.RData, ram.WData = append(ram.RData, n.AddNet(fmt.Sprintf("rd%d", i))), append(ram.WData, pick())
	}
	n.AddMem(ram)
	rrd := []NetID{n.AddNet("rrd0"), n.AddNet("rrd1")}
	n.AddMem(&Mem{
		Name: "rom", AddrBits: 2, DataBits: 2, Words: 4,
		RAddr: []NetID{pool[0], pool[1]}, RData: rrd,
		WEn: NoNet,
	})
	// One more layer of logic on the read ports, so memory-driven nets have
	// gate fanout too.
	out := n.AddNet("cmem")
	n.AddGate(KindXor, out, ram.RData[0], rrd[0])
	n.MarkOutput(out)
	if err := n.Freeze(); err != nil {
		panic(err)
	}
	return n
}

// checkFanRuns checks the compiled gate fanout of n against Freeze's: the
// runs of a net — FanRuns and DataRuns together, which share no gate —
// expand to exactly its consumers through Renum, ascending (a gate on two
// pins once), each run within one bitmap word and one level and no two
// adjacent runs mergeable; DataRuns holds the flip-flops that read the net on
// neither CLK nor RSTN, and FanRuns holds no such flip-flop; Resets is the
// distinct RSTN nets, FFMask the flip-flops, and SlowCommit marks the reset
// nets, the domain clock and the nets on a memory pin; a gate's GateRun is
// its output's FanRuns exactly when that is one run, the output is on no
// memory or RSTN pin and the run lies above the gate's level, and zero
// otherwise; and the clock domain's Fan is the clock's runs without the
// members, its groups are what checkGroups wants and ClockPinsOnly says
// whether anything but a write clock reads the clock. Shared with the three
// CPUs (fanruns_cpu_test.go) through CheckFanRuns.
func checkFanRuns(t testing.TB, n *Netlist) {
	t.Helper()
	p := n.Program()
	expand := func(runs []FanRun) (gates []GateID) {
		for i, r := range runs {
			if r.Mask == 0 || i > 0 && runs[i-1].Word == r.Word && runs[i-1].Level == r.Level {
				t.Fatalf("run %d of %+v is empty or continues the one before it", i, runs)
			}
			for m := r.Mask; m != 0; m &= m - 1 {
				g := GateID(r.Word<<6 | uint32(bits.TrailingZeros64(m)))
				if p.GateLevel[g] != r.Level {
					t.Fatalf("run %+v holds gate %d of level %d", r, g, p.GateLevel[g])
				}
				gates = append(gates, g)
			}
		}
		return gates
	}
	if len(p.Runs) != cap(p.Runs) || int(p.RunIdx[len(n.Nets)]) != len(p.Runs) {
		t.Fatalf("Runs has len %d cap %d, RunIdx ends at %d", len(p.Runs), cap(p.Runs), p.RunIdx[len(n.Nets)])
	}
	if len(p.DataRunTab) != cap(p.DataRunTab) || int(p.DataIdx[len(n.Nets)]) != len(p.DataRunTab) {
		t.Fatalf("DataRunTab has len %d cap %d, DataIdx ends at %d", len(p.DataRunTab), cap(p.DataRunTab), p.DataIdx[len(n.Nets)])
	}
	// dataOnly reports whether gate g is a flip-flop with neither its clock
	// nor its reset on net id.
	dataOnly := func(g GateID, id NetID) bool {
		d := &p.Gates[g]
		return d.Kind == KindDFF && d.In[DFFPinClk] != id && d.In[DFFPinRstn] != id
	}
	var resets []NetID
	for id := range n.Nets {
		id := NetID(id)
		var want []GateID
		for _, g := range n.Fanout(id) {
			want = append(want, p.Renum[g])
		}
		slices.Sort(want)
		want = slices.Compact(want)
		fan, data := expand(p.FanRuns(id)), expand(p.DataRuns(id))
		for _, g := range fan {
			if dataOnly(g, id) {
				t.Fatalf("net %d: FanRuns holds flip-flop %d, which reads it on D or EN alone", id, g)
			}
		}
		for _, g := range data {
			if !dataOnly(g, id) {
				t.Fatalf("net %d: DataRuns holds gate %d, which is no flip-flop or has the net on CLK or RSTN", id, g)
			}
		}
		got := append(fan, data...)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("net %d: FanRuns %v and DataRuns %v together are not the fanout %v", id, fan, data, want)
		}
		isReset := slices.ContainsFunc(n.Fanout(id), func(g GateID) bool {
			return n.Gates[g].Kind == KindDFF && n.Gates[g].In[DFFPinRstn] == id
		})
		if isReset {
			resets = append(resets, id)
		}
		isClock := p.Clock != nil && p.Clock.Net == id
		if slow := isReset || isClock || len(n.MemFanout(id)) > 0; p.SlowCommit(id) != slow {
			t.Fatalf("net %d: SlowCommit = %v; reset net %v, domain clock %v, %d memory readers", id, !slow, isReset, isClock, len(n.MemFanout(id)))
		}
	}
	if !slices.Equal(p.Resets, resets) {
		t.Fatalf("Resets = %v, the RSTN pins are on %v", p.Resets, resets)
	}
	for k := range p.Gates {
		if ff := p.FFMask[k>>6]>>(k&63)&1 != 0; ff != (p.Gates[k].Kind == KindDFF) {
			t.Fatalf("gate %d (%v): FFMask bit %v", k, p.Gates[k].Kind, ff)
		}
		out := p.Gates[k].Out
		var want FanRun
		if r := p.FanRuns(out); len(r) == 1 && !p.SlowCommit(out) && r[0].Level > p.GateLevel[k] {
			want = r[0]
		}
		if p.GateRun[k] != want {
			t.Fatalf("gate %d (level %d, %d runs, slow commit %v): GateRun %+v, want %+v",
				k, p.GateLevel[k], len(p.FanRuns(out)), p.SlowCommit(out), p.GateRun[k], want)
		}
	}
	if cd := p.Clock; cd != nil {
		want := slices.DeleteFunc(expand(p.FanRuns(cd.Net)), func(g GateID) bool { return p.Gates[g].Kind == KindDFF })
		if got := expand(cd.Fan); !slices.Equal(got, want) {
			t.Fatalf("clock domain Fan expands to %v, want %v", got, want)
		}
		checkGroups(t, p, cd)
		// Only write clocks: no gate reads the clock but the members, and a
		// memory that reads it has it on one pin, its write clock.
		only := len(want) == 0
		for _, mi := range n.MemFanout(cd.Net) {
			m := n.Mems[mi]
			pins := slices.Concat(m.RAddr, []NetID{m.Clk, m.WEn}, m.WAddr, m.WData)
			if m.IsROM() || m.Clk != cd.Net || len(slices.DeleteFunc(pins, func(id NetID) bool { return id != cd.Net })) != 1 {
				only = false
			}
		}
		if cd.ClockPinsOnly != only {
			t.Fatalf("clock domain ClockPinsOnly = %v; %d combinational readers, memories %v", cd.ClockPinsOnly, len(want), n.MemFanout(cd.Net))
		}
	}
}

// checkGroups checks the enable groups of a clock domain: Groups cuts
// Members from the first to the last into non-empty runs, every member of a
// run has one EN net — the one of its gate — the runs' nets ascend, and
// within a run DFFs ascend.
func checkGroups(t testing.TB, p *Program, cd *ClockDomain) {
	t.Helper()
	g := cd.Groups
	if len(g) < 2 || g[0] != 0 || int(g[len(g)-1]) != len(cd.Members) || len(cd.DFFs) != len(cd.Members) {
		t.Fatalf("clock domain groups %v over %d members, %d flip-flops", g, len(cd.Members), len(cd.DFFs))
	}
	for k := 0; k+1 < len(g); k++ {
		lo, hi := g[k], g[k+1]
		if lo >= hi || k > 0 && cd.Members[g[k-1]].En >= cd.Members[lo].En {
			t.Fatalf("clock domain group %d [%d, %d) is empty or its enable does not ascend: %v", k, lo, hi, g)
		}
		for i := lo; i < hi; i++ {
			if en := cd.Members[i].En; en != cd.Members[lo].En || p.Gates[cd.DFFs[i]].In[DFFPinEn] != en {
				t.Fatalf("clock domain member %d (gate %d) is in the group of enable %d", i, cd.DFFs[i], cd.Members[lo].En)
			}
			if i > lo && cd.DFFs[i-1] >= cd.DFFs[i] {
				t.Fatalf("clock domain group %d: gates %d, %d out of kernel order", k, cd.DFFs[i-1], cd.DFFs[i])
			}
		}
	}
}

// CheckFanRuns is checkFanRuns for the external test package, which can
// import the processors.
var CheckFanRuns = checkFanRuns

// TestFanRuns checks the fanout runs on random designs of every shape,
// small enough to sit in one bitmap word and large enough to straddle
// several, so that one-run nets, multi-word nets and multi-level nets all
// occur; that every kind of GateRun verdict does; and that the split of a
// net's readers meets each case: a flip-flop on D alone, one with the same
// net on D and CLK (which stays in FanRuns), and a reset net driven by logic
// (whose driver has no GateRun).
func TestFanRuns(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var inline, multi, memPin, rstPin, dataPin, clkAndD int
	for shape := progShape(0); shape <= progAll; shape++ {
		for _, gates := range []int{30, 200, 700} {
			n := randProgNetlist(r, gates, shape)
			checkFanRuns(t, n)
			p := n.Program()
			for k := range p.Gates {
				d := &p.Gates[k]
				switch out := d.Out; {
				case p.GateRun[k].Mask != 0:
					inline++
				case len(p.FanRuns(out)) > 1:
					multi++
				case len(n.MemFanout(out)) > 0:
					memPin++
				case slices.Contains(p.Resets, out):
					rstPin++
				}
				if d.Kind == KindDFF && d.In[DFFPinD] == d.In[DFFPinClk] {
					clkAndD++ // checkFanRuns found it in FanRuns of that net
				}
			}
			dataPin += len(p.DataRunTab)
		}
	}
	if inline == 0 || multi == 0 || memPin == 0 || rstPin == 0 || dataPin == 0 || clkAndD == 0 {
		t.Fatalf("seen: %d in-line, %d multi-run, %d memory-feeding, %d reset-driving gates, %d data runs, %d flip-flops with one net on D and CLK; want all six",
			inline, multi, memPin, rstPin, dataPin, clkAndD)
	}
	// A flip-flop's output feeding logic below the flip-flop's own level is
	// one run that must not be in-line.
	n := New("below")
	clk, rstn, a := n.AddInput("clk"), n.AddInput("rst_n"), n.AddInput("a")
	q, x, y := n.AddNet("q"), n.AddNet("x"), n.AddNet("y")
	n.AddGate(KindAnd, x, q, a)
	n.AddGate(KindNot, y, x)
	n.AddDFF(q, y, clk, a, rstn, logic.Lo)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	checkFanRuns(t, n)
	p := n.Program()
	if dff := p.Renum[2]; len(p.FanRuns(q)) != 1 || p.GateRun[dff].Mask != 0 {
		t.Fatalf("flip-flop above its reader: runs %+v, GateRun %+v", p.FanRuns(q), p.GateRun[dff])
	}
}

// TestProgramMatchesNetlist cross-checks every compiled table against the
// interpreter-facing accessors on random designs.
func TestProgramMatchesNetlist(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := randProgNetlist(r, 30, 0)
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
		// Memory fanout CSR vs slice-of-slices (the gate fanout is
		// TestFanRuns').
		for id := range n.Nets {
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
		}
		// Clock-domain table, when the random wiring left the design
		// eligible: every DFF once, pins as in the netlist, grouped by enable
		// net in ascending order and by kernel ID within a group.
		if cd := p.Clock; cd != nil {
			checkGroups(t, p, cd)
			var dffs []GateID
			for k := range p.Gates {
				if p.Gates[k].Kind == KindDFF {
					dffs = append(dffs, GateID(k))
				}
			}
			got := slices.Clone(cd.DFFs)
			slices.Sort(got)
			if !slices.Equal(got, dffs) || len(cd.Members) != len(dffs) {
				t.Fatalf("clock domain lists DFFs %v, design has %v", cd.DFFs, dffs)
			}
			for i, k := range cd.DFFs {
				g, m := &n.Gates[p.Orig[k]], cd.Members[i]
				if g.In[DFFPinClk] != cd.Net || m.D != g.In[DFFPinD] || m.En != g.In[DFFPinEn] || m.Out != g.Out {
					t.Fatalf("clock domain member %d does not match gate %d", i, p.Orig[k])
				}
				if !slices.Contains(p.Resets, g.In[DFFPinRstn]) {
					t.Fatalf("reset net of gate %d missing from Resets", p.Orig[k])
				}
			}
		}
		// Level ranges: LvlStart starts at 0, never decreases, ends at the
		// gate count, and puts every kernel gate in its own level's range.
		if len(p.LvlStart) != int(p.MaxLevel)+2 || p.LvlStart[0] != 0 || int(p.LvlStart[p.MaxLevel+1]) != len(n.Gates) {
			t.Fatalf("LvlStart %v does not cover %d gates in %d levels", p.LvlStart, len(n.Gates), p.MaxLevel+1)
		}
		for l := int32(0); l <= p.MaxLevel; l++ {
			lo, hi := p.LvlStart[l], p.LvlStart[l+1]
			if lo > hi {
				t.Fatalf("level %d range inverted", l)
			}
			for k := lo; k < hi; k++ {
				if p.GateLevel[k] != l {
					t.Fatalf("kernel gate %d in range of level %d but has level %d", k, l, p.GateLevel[k])
				}
			}
		}
		if len(p.MemLevel) != len(n.Mems) {
			t.Fatalf("MemLevel has %d entries for %d memories", len(p.MemLevel), len(n.Mems))
		}
		for m := range n.Mems {
			if l := p.MemLevel[m]; l != n.MemLevel(MemID(m)) || l < 0 || l > p.MaxLevel {
				t.Fatalf("mem %d at level %d, the netlist says %d", m, l, n.MemLevel(MemID(m)))
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
		ff := []pins{{x, clk, one, rstn}, {nx, clk, x, rstn}, {nx, clk, one, rstn}}
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
	if cd := p.Clock; cd == nil || len(cd.DFFs) != 3 || len(p.Resets) != 1 || len(cd.Fan) != 1 || cd.ClockPinsOnly {
		t.Fatalf("plain design: clock domain = %+v", cd)
	}
	// Two enable groups, x (net 2) before one (net 3): flip-flop 1 (netlist
	// gate 3) alone, then flip-flops 0 and 2 (gates 2 and 4).
	cd := p.Clock
	orig := []GateID{p.Orig[cd.DFFs[0]], p.Orig[cd.DFFs[1]], p.Orig[cd.DFFs[2]]}
	if !slices.Equal(cd.Groups, []uint32{0, 1, 3}) || cd.Members[0].En != 2 || cd.Members[1].En != 3 || !slices.Equal(orig, []GateID{3, 2, 4}) {
		t.Fatalf("plain design: groups %v, members %+v, flip-flops %v (netlist gates %v)", cd.Groups, cd.Members, cd.DFFs, orig)
	}
	// ClockPinsOnly: the clock on flip-flops and write clocks alone, then on
	// one more pin of the RAM.
	for _, tc := range []struct {
		name   string
		onAddr bool
	}{{"flip-flops and a write clock", false}, {"the RAM's read address too", true}} {
		n := New("pins")
		clk, rstn, x := n.AddInput("clk"), n.AddInput("rst_n"), n.AddInput("x")
		n.AddDFF(n.AddNet("q"), x, clk, x, rstn, logic.Lo)
		raddr := x
		if tc.onAddr {
			raddr = clk
		}
		n.AddMem(&Mem{
			Name: "ram", AddrBits: 1, DataBits: 1, Words: 2,
			RAddr: []NetID{raddr}, RData: []NetID{n.AddNet("rd")},
			Clk: clk, WEn: x, WAddr: []NetID{x}, WData: []NetID{x},
		})
		if err := n.Freeze(); err != nil {
			t.Fatal(err)
		}
		if cd := n.Program().Clock; cd == nil || cd.ClockPinsOnly == tc.onAddr {
			t.Errorf("%s: clock domain = %+v", tc.name, cd)
		}
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
