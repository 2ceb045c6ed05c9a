package vvp

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

// The kernel differential suite: the compiled kernel must be behaviourally
// indistinguishable from the reference interpreter — identical commit
// traces, toggle profiles, activity counters, memory contents, snapshots
// and halt behaviour — on random synchronous circuits with memories, under
// forces and across save/restore. The interpreter is itself validated
// against a naive oracle (oracle_test.go), so agreement here certifies the
// kernel end to end.

// circuitShape selects the structural twists randCircuit adds to the plain
// design (one primary-input clock, one primary-input reset). Every bit of
// shapeOffFastPath takes the design out of the kernel's clock-edge fast
// path, so the differential suite fuzzes the fallback as well as the fast
// path; shapeWideMem leaves it there.
type circuitShape uint8

const (
	shapeGatedClock    circuitShape = 1 << iota // some DFFs on AND(clk, net)
	shapeSecondClock                            // some DFFs on a second primary-input clock
	shapeLogicReset                             // some DFFs reset by OR(rst_n, net)
	shapeClockOnD                               // the clock on a D pin
	shapeMemGatedClock                          // the RAM written on AND(clk, net)
	// The RAM is 72 bits wide (two chunks of a word-at-a-time port) and has
	// 5 words behind a 3-bit address (so addresses 5..7 name no word); its
	// write enable and low address bits are primary inputs, so the X and Z
	// the stimulus drives reach the ports unfiltered.
	shapeWideMem
	shapeAll         = shapeWideMem<<1 - 1
	shapeOffFastPath = shapeWideMem - 1
)

// randMemCircuit builds a random clocked design with k inputs, f DFFs, g
// combinational gates and (optionally) a small RAM and ROM wired off the
// net pool, so the differential runs exercise the memory paths too.
func randMemCircuit(r *rand.Rand, k, f, g int, withMem bool) (*netlist.Netlist, []netlist.NetID) {
	return randCircuit(r, k, f, g, withMem, 0)
}

// randCircuit is randMemCircuit with the twists of shape applied. Flip-flop
// 0 always gets every twist that concerns flip-flops and flip-flop 1 never
// moves to the second clock, so a non-zero shape never leaves the design
// eligible for the fast path by chance. A second clock is the primary
// input "clk2", declared after the data inputs.
func randCircuit(r *rand.Rand, k, f, g int, withMem bool, shape circuitShape) (*netlist.Netlist, []netlist.NetID) {
	if shape&(shapeMemGatedClock|shapeWideMem) != 0 {
		withMem = true
	}
	n := netlist.New("randmem")
	clk := n.AddInput("clk")
	rstn := n.AddInput("rst_n")
	one := n.AddNet("one")
	n.AddGate(netlist.KindConst1, one)
	var pool, ins []netlist.NetID
	for i := 0; i < k; i++ {
		id := n.AddInput(fmt.Sprintf("in%d", i))
		ins = append(ins, id)
		pool = append(pool, id)
	}
	var qs []netlist.NetID
	for i := 0; i < f; i++ {
		q := n.AddNet(fmt.Sprintf("q%d", i))
		qs = append(qs, q)
		pool = append(pool, q)
	}
	kinds := []netlist.GateKind{netlist.KindAnd, netlist.KindOr, netlist.KindXor,
		netlist.KindNand, netlist.KindNor, netlist.KindXnor, netlist.KindNot,
		netlist.KindBuf, netlist.KindMux2}
	pick := func() netlist.NetID { return pool[r.Intn(len(pool))] }
	// Combinational gates also read the clock now and then: logic in the
	// clock's cone changes in the Active region of the edge itself.
	pickC := func() netlist.NetID {
		if i := r.Intn(len(pool) + 1); i < len(pool) {
			return pool[i]
		}
		return clk
	}
	for i := 0; i < g; i++ {
		kind := kinds[r.Intn(len(kinds))]
		out := n.AddNet(fmt.Sprintf("c%d", i))
		in := make([]netlist.NetID, kind.NumInputs())
		for j := range in {
			in[j] = pickC()
		}
		n.AddGate(kind, out, in...)
		pool = append(pool, out)
	}
	// derived returns a new net kind(a, pick()): a gated clock or a
	// logic-driven reset.
	derived := func(name string, kind netlist.GateKind, a netlist.NetID) netlist.NetID {
		out := n.AddNet(name)
		n.AddGate(kind, out, a, pick())
		return out
	}
	if withMem {
		memClk := clk
		if shape&shapeMemGatedClock != 0 {
			memClk = derived("mclk", netlist.KindAnd, clk)
		}
		ram := &netlist.Mem{Name: "ram", AddrBits: 2, DataBits: 2, Words: 4, Clk: memClk, WEn: pick()}
		if shape&shapeWideMem != 0 {
			ram.AddrBits, ram.DataBits, ram.Words, ram.WEn = 3, 72, 5, ins[0]
		}
		var rd []netlist.NetID
		for i := 0; i < ram.DataBits; i++ {
			rd = append(rd, n.AddNet(fmt.Sprintf("rd%d", i)))
			ram.WData = append(ram.WData, pick())
		}
		for i := 0; i < ram.AddrBits; i++ {
			ram.RAddr = append(ram.RAddr, pick())
			ram.WAddr = append(ram.WAddr, pick())
		}
		if shape&shapeWideMem != 0 {
			ram.RAddr[0], ram.WAddr[0], ram.WAddr[1] = ins[1], ins[1], ins[0]
		}
		ram.RData = rd
		n.AddMem(ram)
		pool = append(pool, rd...)
		rrd := []netlist.NetID{n.AddNet("rrd0")}
		rom := &netlist.Mem{
			Name: "rom", AddrBits: 1, DataBits: 1, Words: 2,
			RAddr: []netlist.NetID{pick()}, RData: rrd,
			WEn:  netlist.NoNet,
			Init: []logic.Vec{logic.MustVec("1"), logic.MustVec("0")},
		}
		n.AddMem(rom)
		pool = append(pool, rrd...)
		// One more layer of logic consuming the read ports.
		out := n.AddNet("cmem")
		n.AddGate(netlist.KindXor, out, rd[0], rrd[0])
		pool = append(pool, out)
	}
	var gclk, clk2, lrst netlist.NetID
	if shape&shapeGatedClock != 0 {
		gclk = derived("gclk", netlist.KindAnd, clk)
	}
	if shape&shapeSecondClock != 0 {
		clk2 = n.AddInput("clk2")
	}
	if shape&shapeLogicReset != 0 {
		lrst = derived("lrst", netlist.KindOr, rstn)
	}
	for i, q := range qs {
		// twist reports whether flip-flop i takes the twist of bit b:
		// always for flip-flop 0, a coin flip for the others.
		twist := func(b circuitShape) bool { return shape&b != 0 && (i == 0 || r.Intn(2) == 0) }
		d, c, en, rs := pick(), clk, pick(), rstn
		init := logic.Bool(r.Intn(2) == 1)
		if twist(shapeGatedClock) {
			c = gclk
		}
		if i != 1 && twist(shapeSecondClock) {
			c = clk2
		}
		if twist(shapeLogicReset) {
			rs = lrst
		}
		if twist(shapeClockOnD) {
			d = clk
		}
		n.AddDFF(q, d, c, en, rs, init)
	}
	n.MarkOutput(pool[len(pool)-1])
	if err := n.Freeze(); err != nil {
		panic(err)
	}
	return n, ins
}

// randStimulus drives reset then nCycles of random (sometimes X) input
// values changing at negedges.
func randStimulus(r *rand.Rand, n *netlist.Netlist, ins []netlist.NetID, nCycles int) *Stimulus {
	st := NewStimulus(n.Inputs[0], hp)
	rstn := n.Inputs[1]
	st.At(1, rstn, logic.Lo)
	st.At(2*hp+1, rstn, logic.Hi)
	for c := 0; c < nCycles; c++ {
		for _, in := range ins {
			switch r.Intn(4) {
			case 0:
				st.At(uint64(2*hp*(c+1)), in, logic.Lo)
			case 1:
				st.At(uint64(2*hp*(c+1)), in, logic.Hi)
			case 2:
				st.At(uint64(2*hp*(c+1)), in, logic.X)
			}
		}
	}
	st.Finalize()
	return st
}

// stimShape selects the events twistStimulus adds to a randStimulus
// schedule. Each one makes some clock edges of an eligible design fall
// back to the general path and leaves the others clean.
type stimShape uint8

const (
	stimXClock        stimShape = 1 << iota // the clock passes through X, between and on toggles
	stimPosedgeEvents                       // inputs change in the time step of a posedge
	stimResetPulse                          // reset pulsed low mid-run
	stimZInputs                             // inputs float (Z) now and then
	// Reset goes to X for two and a half cycles mid-run and returns to 1,
	// with the inputs — and so D and EN — moving under it: while it lasts a
	// flip-flop re-merges Q whenever it is evaluated, and a move of a data pin
	// is what schedules that (Simulator.quiet).
	stimXReset
	stimAll = stimXReset<<1 - 1
)

// twistStimulus adds the events of shape to st, plus a toggling schedule
// for the design's second clock when it has one. Everything lands inside
// the first nCycles cycles.
func twistStimulus(r *rand.Rand, st *Stimulus, n *netlist.Netlist, ins []netlist.NetID, nCycles int, shape stimShape) {
	clk, rstn := n.Inputs[0], n.Inputs[1]
	end := uint64(2 * hp * nCycles)
	if clk2, ok := n.NetByName("clk2"); ok {
		// Free-running against clk with a co-prime period, so its edges
		// land before, after and on the edges of clk.
		lvl := logic.Lo
		for t := uint64(3); t < end; t += 7 {
			st.At(t, clk2, lvl)
			lvl = logic.Not(lvl)
		}
	}
	if shape&stimXClock != 0 {
		c := uint64(4 + r.Intn(3))
		st.At(2*hp*c+2, clk, logic.X)      // between two toggles
		st.At(2*hp*(c+3)+hp, clk, logic.X) // in the time step of a posedge
	}
	if shape&stimPosedgeEvents != 0 {
		for c := 3; c < nCycles; c += 2 {
			in := ins[r.Intn(len(ins))]
			st.At(uint64(2*hp*c+hp), in, logic.Bool(r.Intn(2) == 1))
		}
	}
	if shape&stimResetPulse != 0 {
		c := uint64(5 + r.Intn(3))
		st.At(2*hp*c+1, rstn, logic.Lo)
		st.At(2*hp*(c+1)+hp+1, rstn, logic.Hi)
	}
	if shape&stimXReset != 0 {
		c := uint64(3 + r.Intn(3))
		st.At(2*hp*c+1, rstn, logic.X)
		st.At(2*hp*(c+2)+hp+1, rstn, logic.Hi)
	}
	if shape&stimZInputs != 0 {
		for c := 2; c < nCycles; c++ {
			if in := ins[r.Intn(len(ins))]; r.Intn(2) == 0 {
				st.At(uint64(2*hp*c)+1, in, logic.Z)
			}
		}
	}
	st.Finalize()
}

// enginePair builds an interpreter and a kernel simulator of the same
// design with identical options (traces and activity counting on) and
// binds both to the same stimulus.
func enginePair(n *netlist.Netlist, st *Stimulus, memx MemXPolicy) (si, sk *Simulator, ti, tk *Trace) {
	ti, tk = &Trace{}, &Trace{}
	si = New(n, Options{Engine: EngineInterp, MemX: memx, Trace: ti, CountActivity: true})
	sk = New(n, Options{Engine: EngineKernel, MemX: memx, Trace: tk, CountActivity: true})
	si.BindStimulus(st)
	sk.BindStimulus(st)
	return si, sk, ti, tk
}

// checkAgreement compares every piece of observable simulator state; the
// activity counters only when sk keeps them.
func checkAgreement(t *testing.T, ctx string, si, sk *Simulator) {
	t.Helper()
	if si.Now() != sk.Now() || si.Cycles() != sk.Cycles() {
		t.Fatalf("%s: time %d/%d cycles %d/%d diverged", ctx, si.Now(), sk.Now(), si.Cycles(), sk.Cycles())
	}
	for id := range si.val {
		if si.val[id] != sk.val[id] {
			t.Fatalf("%s: net %s = %v (interp) vs %v (kernel)",
				ctx, si.d.NetName(netlist.NetID(id)), si.val[id], sk.val[id])
		}
	}
	for i, m := range si.d.Mems {
		for w := 0; w < m.Words; w++ {
			if wi, wk := si.MemWord(netlist.MemID(i), w), sk.MemWord(netlist.MemID(i), w); !wi.Equal(wk) {
				t.Fatalf("%s: mem %d word %d: %s vs %s", ctx, i, w, wi, wk)
			}
		}
	}
	for id := range si.toggled {
		if si.toggled[id] != sk.toggled[id] {
			t.Fatalf("%s: toggle profile diverged on %s", ctx, si.d.NetName(netlist.NetID(id)))
		}
	}
	if sk.opts.CountActivity {
		for id := range si.toggleCount {
			if si.toggleCount[id] != sk.toggleCount[id] {
				t.Fatalf("%s: toggle count diverged on %s: %d vs %d",
					ctx, si.d.NetName(netlist.NetID(id)), si.toggleCount[id], sk.toggleCount[id])
			}
		}
		pi, ci := si.PeakActivity()
		pk, ck := sk.PeakActivity()
		if pi != pk || ci != ck {
			t.Fatalf("%s: peak activity %d@%d vs %d@%d", ctx, pi, ci, pk, ck)
		}
	}
	// Clock samples: the fast path lets the whole domain's follow the
	// clock, the general path stores them one flip-flop at a time; after a
	// settled step they must be the same.
	for g := range si.d.Gates {
		if si.d.Gates[g].Kind != netlist.KindDFF {
			continue
		}
		gi, gk := si.gidx(netlist.GateID(g)), sk.gidx(netlist.GateID(g))
		if si.clkSample(gi) != sk.clkSample(gk) {
			t.Fatalf("%s: clock sample of DFF %s: %v (interp) vs %v (kernel)",
				ctx, si.d.NetName(si.d.Gates[g].Out), si.clkSample(gi), sk.clkSample(gk))
		}
	}
}

// checkSameKernel compares the scheduling state of two kernel simulators
// that have been through the same steps: the level round commits in line on
// one of them (bare) and through commit on the other (traced), and the two
// routes must leave the same clock samples, the same dirty bitmap word for
// word, and have evaluated the same gates in the same rounds.
func checkSameKernel(t *testing.T, ctx string, traced, bare *Simulator) {
	t.Helper()
	if traced.Evals() != bare.Evals() || traced.Sweeps() != bare.Sweeps() || traced.FastEdges() != bare.FastEdges() {
		t.Fatalf("%s: evals %d/%d sweeps %d/%d fast edges %d/%d (traced/bare kernel)", ctx,
			traced.Evals(), bare.Evals(), traced.Sweeps(), bare.Sweeps(), traced.FastEdges(), bare.FastEdges())
	}
	if traced.dirtyN != bare.dirtyN || !slices.Equal(traced.dirtyW, bare.dirtyW) || !slices.Equal(traced.lvlW, bare.lvlW) {
		t.Fatalf("%s: dirty set diverged: %d in %x levels %x (traced) vs %d in %x levels %x (bare)", ctx,
			traced.dirtyN, traced.dirtyW, traced.lvlW, bare.dirtyN, bare.dirtyW, bare.lvlW)
	}
	for g := range traced.prog.Gates {
		if traced.clkSample(netlist.GateID(g)) != bare.clkSample(netlist.GateID(g)) {
			t.Fatalf("%s: clock samples diverged between the traced and the bare kernel at gate %d", ctx, g)
		}
	}
}

// diffTrial runs one random circuit under both engines in lockstep — the
// kernel twice, traced and bare — comparing all observable state every
// step, with forces applied mid-run and a snapshot/restore round-trip (the
// continuation recording, as a restored path does) at the end. Half the
// seeds keep the plain circuit, which is eligible for the clock-edge fast
// path; the rest draw a random set of twists.
func diffTrial(t *testing.T, seed int64, memx MemXPolicy) {
	r := rand.New(rand.NewSource(seed))
	shape, stim := drawShapes(r)
	diffTrialShaped(t, r, seed, memx, shape, stim)
}

// drawShapes is the draw diffTrial makes from a fresh seed.
func drawShapes(r *rand.Rand) (shape circuitShape, stim stimShape) {
	if r.Intn(2) == 0 {
		shape = circuitShape(r.Intn(int(shapeAll) + 1))
	}
	return shape, stimShape(r.Intn(int(stimAll) + 1))
}

// diffTrialShaped is diffTrial on a circuit and stimulus of the given
// shapes. Besides agreement with the interpreter it pins which side of the
// fast-path gate the run was on: a plain circuit must have a clock-domain
// table and take clean edges through it, a twisted one must have no table
// and never leave the general path.
func diffTrialShaped(t *testing.T, r *rand.Rand, seed int64, memx MemXPolicy, shape circuitShape, stim stimShape) {
	const nCycles = 10
	// One seed in four gets a design of several bitmap words, so that fanout
	// runs differ in their word and not only in their level.
	k, f, g := 2+r.Intn(3), 2+r.Intn(4), 10+r.Intn(40)
	if seed%4 == 3 {
		g += 150
	}
	n, ins := randCircuit(r, k, f, g, r.Intn(2) == 0, shape)
	st := randStimulus(r, n, ins, nCycles)
	twistStimulus(r, st, n, ins, nCycles, stim)
	if eligible := n.Program().Clock != nil; eligible != (shape&shapeOffFastPath == 0) {
		t.Fatalf("seed %d shape %#x: clock-domain table present = %v", seed, shape, eligible)
	}
	si, sk, ti, tk := enginePair(n, st, memx)
	// The configuration Analyze runs, and the only one in which the level
	// round commits in line: kernel, no trace, no counters, recording.
	sb := New(n, Options{Engine: EngineKernel, MemX: memx})
	sb.BindStimulus(st)

	si.StartRecording()
	sk.StartRecording()
	sb.StartRecording()
	forceNet := netlist.NetID(int(n.Outputs[0]))
	for step := 0; step < 120; step++ {
		if step == 30 {
			si.Force(forceNet, logic.Hi, si.Now()+3*hp)
			sk.Force(forceNet, logic.Hi, sk.Now()+3*hp)
			sb.Force(forceNet, logic.Hi, sb.Now()+3*hp)
			for _, s := range []*Simulator{si, sk, sb} {
				s.checkInvariants(t, fmt.Sprintf("seed %d forced, %v engine", seed, s.opts.Engine))
			}
		}
		sti, erri := si.Step()
		stk, errk := sk.Step()
		stb, errb := sb.Step()
		if (erri == nil) != (errk == nil) || sti != stk || (erri == nil) != (errb == nil) || sti != stb {
			t.Fatalf("seed %d step %d: status %v/%v/%v err %v/%v/%v", seed, step, sti, stk, stb, erri, errk, errb)
		}
		if erri != nil {
			break
		}
		ctx := fmt.Sprintf("seed %d shape %#x stim %#x step %d", seed, shape, stim, step)
		checkAgreement(t, ctx, si, sk)
		checkAgreement(t, ctx+" (bare kernel)", si, sb)
		checkSameKernel(t, ctx, sk, sb)
		si.checkInvariants(t, ctx+" (interpreter)")
		sk.checkInvariants(t, ctx)
		sb.checkInvariants(t, ctx+" (bare kernel)")
	}
	if !ti.Equal(tk) {
		t.Fatalf("seed %d shape %#x stim %#x: commit traces diverged\ninterp:\n%s\nkernel:\n%s",
			seed, shape, stim, ti.Dump(n), tk.Dump(n))
	}
	if si.FastEdges() != 0 {
		t.Fatalf("seed %d: interpreter took %d fast edges", seed, si.FastEdges())
	}
	if fast := sk.FastEdges(); (fast != 0) != (shape&shapeOffFastPath == 0) {
		t.Fatalf("seed %d shape %#x stim %#x: kernel took %d fast edges", seed, shape, stim, fast)
	}

	// Snapshot both, cross-restore into fresh simulators of the *other*
	// engine, and run on: restored continuations must agree too.
	sp, err := SpecFor(n, "")
	if err != nil {
		t.Fatal(err)
	}
	sti, stk := si.Snapshot(sp), sk.Snapshot(sp)
	if !sti.Bits.Equal(stk.Bits) || sti.Time != stk.Time {
		t.Fatalf("seed %d: snapshots diverged: %s vs %s", seed, sti.Bits, stk.Bits)
	}
	// ri is bare, so it commits in line from a restored state; rc counts
	// activity with no trace, the configuration neither the traced pair nor
	// a bare kernel covers, and commits through commit beside it. The
	// interpreter counts too, so rc's counters have a reference.
	ri := New(n, Options{Engine: EngineKernel, MemX: memx})
	rk := New(n, Options{Engine: EngineInterp, MemX: memx, CountActivity: true})
	rc := New(n, Options{Engine: EngineKernel, MemX: memx, CountActivity: true})
	ri.BindStimulus(st)
	rk.BindStimulus(st)
	rc.BindStimulus(st)
	if err := ri.Restore(sp, sti); err != nil {
		t.Fatal(err)
	}
	if err := rk.Restore(sp, stk); err != nil {
		t.Fatal(err)
	}
	if err := rc.Restore(sp, stk); err != nil {
		t.Fatal(err)
	}
	// Nothing is marked toggled before the path records.
	checkRestored := func(ctx string) {
		t.Helper()
		checkAgreement(t, ctx, rk, ri)
		checkAgreement(t, ctx+" (counting kernel)", rk, rc)
		checkSameKernel(t, ctx, rc, ri)
		ri.checkInvariants(t, ctx+" kernel")
		rk.checkInvariants(t, ctx+" interpreter")
		rc.checkInvariants(t, ctx+" counting kernel")
	}
	checkRestored(fmt.Sprintf("seed %d restored", seed))
	ri.StartRecording()
	rk.StartRecording()
	rc.StartRecording()
	for step := 0; step < 20; step++ {
		s1, e1 := ri.Step()
		s2, e2 := rk.Step()
		s3, e3 := rc.Step()
		if (e1 == nil) != (e2 == nil) || s1 != s2 || (e1 == nil) != (e3 == nil) || s1 != s3 {
			t.Fatalf("seed %d restored step %d: %v/%v/%v %v/%v/%v", seed, step, s1, s2, s3, e1, e2, e3)
		}
		if e1 != nil {
			break
		}
		checkRestored(fmt.Sprintf("seed %d restored step %d", seed, step))
	}
}

// TestKernelMatchesInterpreterRandom is the always-on differential sweep:
// many random circuits, both X-address policies, then every circuit twist
// against every stimulus twist one at a time, so no side of the fast-path
// gate depends on what the random seeds happen to draw.
func TestKernelMatchesInterpreterRandom(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		diffTrial(t, seed, MemXVerilog)
		diffTrial(t, seed, MemXSound)
	}
	seed := int64(1000)
	for _, shape := range []circuitShape{0, shapeGatedClock, shapeSecondClock, shapeLogicReset, shapeClockOnD, shapeMemGatedClock, shapeWideMem, shapeWideMem | shapeMemGatedClock} {
		for _, stim := range []stimShape{0, stimXClock, stimPosedgeEvents, stimResetPulse, stimZInputs, stimXReset} {
			for _, memx := range []MemXPolicy{MemXVerilog, MemXSound} {
				seed++
				diffTrialShaped(t, rand.New(rand.NewSource(seed)), seed, memx, shape, stim)
			}
		}
	}
}

// FuzzKernelVsInterpreter lets the fuzzer hunt for scheduling divergence
// between the engines beyond the fixed random sweep.
func FuzzKernelVsInterpreter(f *testing.F) {
	f.Add(uint64(1), false)
	f.Add(uint64(42), true)
	f.Add(uint64(0xdeadbeef), false)
	// The first two seeds that draw the wide RAM under floating inputs.
	for seed, need := uint64(0), 2; need > 0; seed++ {
		shape, stim := drawShapes(rand.New(rand.NewSource(int64(seed))))
		if shape&shapeWideMem != 0 && stim&stimZInputs != 0 {
			f.Add(seed, false)
			f.Add(seed, true)
			need--
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, sound bool) {
		memx := MemXVerilog
		if sound {
			memx = MemXSound
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], seed)
		diffTrial(t, int64(seed%(1<<62)), memx)
	})
}

// TestKernelSweepTriggers pins the adaptive sweep heuristic: a wide level
// whose gates all go dirty at once must be swept, and the swept run must
// still agree with the interpreter. 40 buffers fan out from one input, so
// each toggle dirties the whole level.
func TestKernelSweepTriggers(t *testing.T) {
	n := netlist.New("wide")
	clk := n.AddInput("clk")
	a := n.AddInput("a")
	var outs []netlist.NetID
	for i := 0; i < 40; i++ {
		o := n.AddNet(fmt.Sprintf("b%d", i))
		n.AddGate(netlist.KindBuf, o, a)
		outs = append(outs, o)
	}
	acc := outs[0]
	for i := 1; i < len(outs); i++ {
		nx := n.AddNet(fmt.Sprintf("x%d", i))
		n.AddGate(netlist.KindXor, nx, acc, outs[i])
		acc = nx
	}
	n.MarkOutput(acc)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	st := NewStimulus(clk, hp)
	for c := 0; c < 8; c++ {
		st.At(uint64(2*hp*(c+1)), a, logic.Bool(c%2 == 0))
	}
	st.Finalize()

	ti, tk := &Trace{}, &Trace{}
	si := New(n, Options{Engine: EngineInterp, Trace: ti})
	sk := New(n, Options{Engine: EngineKernel, Trace: tk})
	si.BindStimulus(st)
	sk.BindStimulus(st)
	for step := 0; step < 20; step++ {
		if _, err := si.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := sk.Step(); err != nil {
			t.Fatal(err)
		}
		checkAgreement(t, fmt.Sprintf("step %d", step), si, sk)
	}
	if sk.Sweeps() == 0 {
		t.Fatal("kernel never swept the 40-gate level")
	}
	if si.Sweeps() != 0 {
		t.Fatal("interpreter must never sweep")
	}
	if !ti.Equal(tk) {
		t.Fatalf("traces diverged\ninterp:\n%s\nkernel:\n%s", ti.Dump(n), tk.Dump(n))
	}
}

// TestApplyStimulusLateJoin pins the late-join contract: a simulator whose
// first Step lands beyond already-scheduled events still commits them, in
// schedule order, leaving each input at its latest scheduled value — they
// are not silently dropped (the old behaviour left such inputs X forever).
func TestApplyStimulusLateJoin(t *testing.T) {
	n := netlist.New("latejoin")
	clk := n.AddInput("clk")
	a := n.AddInput("a")
	b := n.AddInput("b")
	o := n.AddNet("o")
	n.AddGate(netlist.KindAnd, o, a, b)
	n.MarkOutput(o)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	_ = clk
	for _, eng := range []Engine{EngineInterp, EngineKernel} {
		s := New(n, Options{Engine: eng})
		// Advance time with an event-free clock first, so the schedule
		// bound below is joined late: its events are already in the past
		// when the next step applies stimulus.
		warm := NewStimulus(n.Inputs[0], hp)
		warm.Finalize()
		s.BindStimulus(warm)
		for i := 0; i < 2; i++ {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		st := NewStimulus(n.Inputs[0], hp)
		// Two past assignments to a — the later (Lo) must win — and one
		// past assignment to b.
		st.At(1, a, logic.Hi)
		st.At(2, a, logic.Lo)
		st.At(3, b, logic.Hi)
		st.Finalize()
		s.BindStimulus(st)
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if got := s.Value(a); got != logic.Lo {
			t.Fatalf("%v: late-join a = %v, want Lo (latest scheduled value)", eng, got)
		}
		if got := s.Value(b); got != logic.Hi {
			t.Fatalf("%v: late-join b = %v, want Hi", eng, got)
		}
		if got := s.Value(o); got != logic.Lo {
			t.Fatalf("%v: o = %v, want Lo", eng, got)
		}
	}
}
