package vvp

import (
	"fmt"
	"math/rand"
	"testing"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

// The batch differential suite: every lane of the bit-parallel engine must
// be bit-identical, step for step, to a scalar reference interpreter
// restored from the same snapshot — values, memories, toggle profiles,
// cycle counts, symbolic halt/finish decisions and exit snapshots. Lanes
// are admitted from different warm-up depths (so the batch runs genuinely
// divergent scenarios), forced at random, retired mid-run and their slots
// re-used, exercising the scheduler's whole lane lifecycle.

// checkLane compares every piece of per-lane observable batch state against
// a scalar reference simulator.
func checkLane(t *testing.T, ctx string, b *BatchSim, ref *Simulator, lane int) {
	t.Helper()
	compareLane(t, ctx, b, ref, lane, false)
}

// checkLaneCovers is checkLane where the lane may run ahead of the scalar
// reference on the way to X (see batchDiffTrial's xReset): a net or memory
// bit holds the reference's value or X, and whatever the reference has
// marked toggled the lane has marked too or holds at X (what core's absorb
// asks of a profile). Never the other way round — a lane that knows a value
// the reference has lost is a flip-flop that was not scheduled.
func checkLaneCovers(t *testing.T, ctx string, b *BatchSim, ref *Simulator, lane int) {
	t.Helper()
	compareLane(t, ctx, b, ref, lane, true)
}

func compareLane(t *testing.T, ctx string, b *BatchSim, ref *Simulator, lane int, cover bool) {
	t.Helper()
	if b.NowLane(lane) != ref.Now() || b.CyclesLane(lane) != ref.Cycles() {
		t.Fatalf("%s: lane %d time %d/%d cycles %d/%d diverged",
			ctx, lane, b.NowLane(lane), ref.Now(), b.CyclesLane(lane), ref.Cycles())
	}
	differs := func(got, want logic.Value) bool {
		if want == logic.Z {
			want = logic.X // the plane encoding folds Z at commit
		}
		return got != want && !(cover && got == logic.X)
	}
	for id := range ref.val {
		if got := b.LaneValue(netlist.NetID(id), lane); differs(got, ref.val[id]) {
			t.Fatalf("%s: lane %d net %s = %v (batch) vs %v (interp)",
				ctx, lane, ref.d.NetName(netlist.NetID(id)), got, ref.val[id])
		}
	}
	for mi := range ref.mem {
		m := ref.d.Mems[mi]
		img := b.mem[mi].image(lane)
		for w := 0; w < m.Words; w++ {
			word := ref.MemWord(netlist.MemID(mi), w)
			for bit := 0; bit < m.DataBits; bit++ {
				if got, want := img.Get(w*m.DataBits+bit), word.Get(bit); differs(got, want) {
					t.Fatalf("%s: lane %d mem %d word %d bit %d: %v vs %v",
						ctx, lane, mi, w, bit, got, want)
				}
			}
		}
	}
	tg := b.ToggledLane(lane, nil)
	for id, want := range ref.toggled {
		if tg[id] != want && !(cover && (tg[id] || b.LaneValue(netlist.NetID(id), lane) == logic.X)) {
			t.Fatalf("%s: lane %d toggle profile diverged on %s: %v vs %v",
				ctx, lane, ref.d.NetName(netlist.NetID(id)), tg[id], want)
		}
	}
}

// checkLaneVsFresh compares a just-admitted lane with the same state
// restored into lane 0 of a brand-new BatchSim: net values, memory images
// and the clock samples of every flip-flop and memory. Whatever the lane's
// previous occupants left behind must be unobservable — the incremental
// admission has to land on the fixpoint a from-scratch one computes.
func checkLaneVsFresh(t *testing.T, ctx string, b *BatchSim, lane int, sp *StateSpec, snap State) {
	t.Helper()
	fresh := NewBatchSim(b.d, b.opts)
	fresh.BindStimulus(b.stim)
	if err := fresh.RestoreLane(sp, snap, 0); err != nil {
		t.Fatalf("%s: fresh RestoreLane: %v", ctx, err)
	}
	for id := range b.valA {
		if got, want := b.LaneValue(netlist.NetID(id), lane), fresh.LaneValue(netlist.NetID(id), 0); got != want {
			t.Fatalf("%s: lane %d net %s = %v, a fresh BatchSim restores %v",
				ctx, lane, b.d.NetName(netlist.NetID(id)), got, want)
		}
	}
	for mi := range b.mem {
		if !b.mem[mi].image(lane).Equal(*fresh.mem[mi].image(0)) {
			t.Fatalf("%s: lane %d mem %d image differs from a fresh BatchSim's", ctx, lane, mi)
		}
		if b.mem[mi].lastClkA>>uint(lane)&1 != fresh.mem[mi].lastClkA&1 ||
			b.mem[mi].lastClkX>>uint(lane)&1 != fresh.mem[mi].lastClkX&1 {
			t.Fatalf("%s: lane %d mem %d clock sample differs from a fresh BatchSim's", ctx, lane, mi)
		}
	}
	for k := range b.lastClkA {
		if b.lastClkA[k]>>uint(lane)&1 != fresh.lastClkA[k]&1 || b.lastClkX[k]>>uint(lane)&1 != fresh.lastClkX[k]&1 {
			t.Fatalf("%s: lane %d gate %d clock sample differs from a fresh BatchSim's", ctx, lane, k)
		}
	}
}

// batchDiffTrial runs one random circuit (plain shape: on a derived clock a
// restore is as history-dependent as the scalar Restore, see
// TestBatchRestoreReassertsState) with several divergent scenarios
// in batch lanes, each shadowed by a scalar interpreter — itself shadowed by
// a bare kernel, restored, forced and recording the way a path of Analyze
// is, so that the kernel's in-line commits meet every admission the lanes
// do — in lockstep, and churns the lanes throughout: lanes are retired at
// random steps — often
// within the three half-periods their branch force is still live — and
// their slots (and the slots of lanes that finished or halted) re-used for
// the very same state, the same state with another RAM image, a state at
// the other clock phase or a state from elsewhere in the run; one lane is
// first used late in the run. Every admission is checked against the
// scalar shadow and against a fresh BatchSim.
//
// With xReset the stimulus parks reset at X for a few cycles, early enough
// that lanes are admitted before, into and after the phase and run through
// it side by side, in different reset states (BatchSim.quiet is over all of
// them). While reset is X in a lane a flip-flop re-merges Q whenever it is
// evaluated, and the schedule is shared: another lane's D can bring the
// lane's X forward, past the point where a scalar run of that lane alone
// would have kept the captured value (as old as the engine, and sound — but
// not bit-identical; ROADMAP open item 2). So on such a trial a lane of the
// multi-lane batch must cover its scalar shadow (checkLaneCovers) rather
// than equal it, its halt and finish decisions and exit snapshots are not
// compared, and the X-address policy has to be the monotone one, MemXSound;
// the one-lane batch beside it, which has nobody to share a schedule with,
// stays bit-identical to the interpreter and the bare kernel, decisions
// included.
func batchDiffTrial(t *testing.T, seed int64, memx MemXPolicy, xReset bool) {
	r := rand.New(rand.NewSource(seed))
	n, ins := randMemCircuit(r, 2+r.Intn(3), 2+r.Intn(4), 10+r.Intn(40), r.Intn(2) == 0)
	st := randStimulus(r, n, ins, 40)
	checkLaneVsRef := checkLane
	if xReset {
		if memx != MemXSound {
			t.Fatalf("seed %d: an X reset trial needs MemXSound", seed)
		}
		twistStimulus(r, st, n, ins, 40, stimXReset)
		checkLaneVsRef = checkLaneCovers
	}
	sp, err := SpecFor(n, "")
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]netlist.NetID, 0, len(n.Nets))
	for id := range n.Nets {
		pool = append(pool, netlist.NetID(id))
	}
	var spec *MonitorXSpec
	if r.Intn(2) == 0 {
		// A monitor spec over random nets: lanes finish and halt at
		// arbitrary, divergent steps, exercising per-lane retirement.
		pick := func() netlist.NetID { return pool[r.Intn(len(pool))] }
		spec = &MonitorXSpec{
			BranchActive: pick(), Cond: pick(),
			Watch:  []netlist.NetID{pick(), pick()},
			Finish: pick(),
		}
	}

	b := NewBatchSim(n, BatchOptions{MemX: memx})
	b.BindStimulus(st)
	b.SetMonitorX(spec)
	// b1 is lane 0 of b on a BatchSim of its own: with one occupant its
	// lane-agnostic schedule is that scenario's, so it must match the bare
	// kernel's — the two embeddings of dirtySet side by side.
	b1 := NewBatchSim(n, BatchOptions{MemX: memx, Lanes: 1})
	b1.BindStimulus(st)
	b1.SetMonitorX(spec)

	nl := 2 + r.Intn(10)
	late := nl // a lane no scenario touches before lateStep
	const lateStep = 25
	refs := make([]*Simulator, nl+1)
	krefs := make([]*Simulator, nl+1) // the bare-kernel shadow of each ref
	snaps := make([]State, nl+1)      // the state each lane was last admitted with
	done := make([]bool, nl+1)
	done[late] = true

	// warmSnap produces a mid-run state by warming a scratch interpreter;
	// with flip set it steps on until the clock is at the other level than
	// lane flipLane currently holds.
	warmSnap := func(warm int, flip bool, flipLane int, ctx string) State {
		w := New(n, Options{Engine: EngineInterp, MemX: memx})
		w.BindStimulus(st)
		for i := 0; i < warm; i++ {
			if _, err := w.Step(); err != nil {
				t.Fatalf("%s: warm-up: %v", ctx, err)
			}
		}
		for i := 0; flip && i < 4 && w.Value(st.Clock) == b.LaneValue(st.Clock, flipLane); i++ {
			if _, err := w.Step(); err != nil {
				t.Fatalf("%s: warm-up: %v", ctx, err)
			}
		}
		return w.Snapshot(sp)
	}

	admit := func(lane int, snap State, ctx string) {
		ref := New(n, Options{Engine: EngineInterp, MemX: memx})
		ref.BindStimulus(st)
		ref.SetMonitorX(spec)
		kref := New(n, Options{Engine: EngineKernel, MemX: memx})
		kref.BindStimulus(st)
		kref.SetMonitorX(spec)
		for _, s := range []*Simulator{ref, kref} {
			if err := s.Restore(sp, snap); err != nil {
				t.Fatalf("%s: scalar restore: %v", ctx, err)
			}
		}
		if err := b.RestoreLane(sp, snap, lane); err != nil {
			t.Fatalf("%s: RestoreLane(%d): %v", ctx, lane, err)
		}
		if lane == 0 {
			if err := b1.RestoreLane(sp, snap, 0); err != nil {
				t.Fatalf("%s: one-lane RestoreLane: %v", ctx, err)
			}
		}
		checkLaneVsFresh(t, ctx, b, lane, sp, snap)
		back := b.SnapshotLane(sp, lane, State{})
		if xReset {
			// The admission's own settle can re-merge a Q the state holds.
			for i := 0; i < sp.Bits(); i++ {
				if v := back.Bits.Get(i); v != snap.Bits.Get(i) && v != logic.X {
					t.Fatalf("%s: lane %d snapshot after restore does not cover the state: %s vs %s", ctx, lane, back.Bits, snap.Bits)
				}
			}
		} else if !back.Bits.Equal(snap.Bits) {
			t.Fatalf("%s: lane %d snapshot after restore diverged: %s vs %s", ctx, lane, back.Bits, snap.Bits)
		}
		if back.Time != snap.Time {
			t.Fatalf("%s: lane %d snapshot after restore is at time %d, the state at %d", ctx, lane, back.Time, snap.Time)
		}
		if r.Intn(2) == 0 {
			// The core's pattern: one net with little fanout, for three
			// half-periods. (A force on an arbitrary net is settled by the
			// next lane's admission, before this lane's first step, and
			// can toggle nets the scalar shadow folds into that step — a
			// sound over-approximation the batch engine has always had,
			// and not what this suite is after.)
			fn := n.Outputs[0]
			rel := ref.Now() + 3*hp
			ref.Force(fn, logic.Hi, rel)
			kref.Force(fn, logic.Hi, rel)
			b.ForceLane(fn, logic.Hi, lane, rel)
			if lane == 0 {
				b1.ForceLane(fn, logic.Hi, 0, rel)
			}
		}
		ref.StartRecording()
		kref.StartRecording()
		b.StartRecordingLane(lane)
		if lane == 0 {
			// The force, if any, sits unsettled in both schedules.
			b1.StartRecordingLane(0)
			checkSameSchedule(t, ctx+" one-lane batch vs bare kernel", &b1.dirtySet, &kref.dirtySet)
		}
		refs[lane], krefs[lane], snaps[lane] = ref, kref, snap
		done[lane] = false
		checkLaneVsRef(t, ctx+" post-restore", b, ref, lane)
		b.checkInvariants(t, ctx)
		b1.checkInvariants(t, ctx+" one-lane batch")
		ref.checkInvariants(t, ctx+" interpreter")
		kref.checkInvariants(t, ctx+" bare kernel")
	}

	retire := func(lane int) {
		b.RetireLane(lane)
		if lane == 0 {
			b1.RetireLane(0)
		}
		done[lane] = true
	}

	for lane := 0; lane < nl; lane++ {
		ctx := fmt.Sprintf("seed %d admit %d", seed, lane)
		admit(lane, warmSnap(r.Intn(8), false, 0, ctx), ctx)
	}

	for step := 0; step < 60; step++ {
		if b.ActiveLanes() == 0 && step > lateStep {
			break
		}
		fin, hal, err := b.StepAll()
		if err != nil {
			t.Fatalf("seed %d step %d: StepAll: %v", seed, step, err)
		}
		evals1, sweeps1 := b1.Evals(), b1.Sweeps()
		fin1, hal1, err := b1.StepAll()
		if err != nil {
			t.Fatalf("seed %d step %d: one-lane StepAll: %v", seed, step, err)
		}
		if fin&hal != 0 {
			t.Fatalf("seed %d step %d: finish and halt masks overlap: %x & %x", seed, step, fin, hal)
		}
		b.checkInvariants(t, fmt.Sprintf("seed %d step %d", seed, step))
		b1.checkInvariants(t, fmt.Sprintf("seed %d step %d one-lane batch", seed, step))
		for lane := range refs {
			if done[lane] {
				continue
			}
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			stt, rerr := refs[lane].Step()
			if rerr != nil {
				t.Fatalf("%s: lane %d scalar step: %v", ctx, lane, rerr)
			}
			lm := uint64(1) << uint(lane)
			if !xReset {
				if got, want := fin&lm != 0, stt == Finished; got != want {
					t.Fatalf("%s: lane %d finished = %v, scalar status %v", ctx, lane, got, stt)
				}
				if got, want := hal&lm != 0, stt == HaltX; got != want {
					t.Fatalf("%s: lane %d halted = %v, scalar status %v", ctx, lane, got, stt)
				}
			}
			checkLaneVsRef(t, ctx, b, refs[lane], lane)
			kref := krefs[lane]
			evalsK, sweepsK, edgesK := kref.Evals(), kref.Sweeps(), kref.FastEdges()
			if sttk, kerr := kref.Step(); kerr != nil || sttk != stt {
				t.Fatalf("%s: lane %d bare kernel step: %v (%v), interpreter %v", ctx, lane, sttk, kerr, stt)
			}
			checkAgreement(t, fmt.Sprintf("%s lane %d bare kernel", ctx, lane), refs[lane], kref)
			refs[lane].checkInvariants(t, fmt.Sprintf("%s lane %d interpreter", ctx, lane))
			kref.checkInvariants(t, fmt.Sprintf("%s lane %d bare kernel", ctx, lane))
			if lane == 0 {
				if (fin1 != 0) != (stt == Finished) || (hal1 != 0) != (stt == HaltX) {
					t.Fatalf("%s: one-lane batch finished %x halted %x, scalar status %v", ctx, fin1, hal1, stt)
				}
				checkLane(t, ctx+" one-lane batch", b1, refs[0], 0)
				checkSameSchedule(t, ctx+" one-lane batch vs bare kernel", &b1.dirtySet, &kref.dirtySet)
				// Off the clock-edge fast path, which only the scalar kernel
				// has, the step ran the same rounds over the same gates.
				if de, ds := b1.Evals()-evals1, b1.Sweeps()-sweeps1; kref.FastEdges() == edgesK &&
					(de != kref.Evals()-evalsK || ds != kref.Sweeps()-sweepsK) {
					t.Fatalf("%s: one-lane batch ran %d evaluations in %d rounds, the bare kernel %d in %d",
						ctx, de, ds, kref.Evals()-evalsK, kref.Sweeps()-sweepsK)
				}
			}
			if stt != Running {
				// The exit snapshot the core hands to the explorer must
				// match the scalar engine's bit for bit.
				bs := b.SnapshotLane(sp, lane, State{})
				rs := refs[lane].Snapshot(sp)
				if !xReset && (!bs.Bits.Equal(rs.Bits) || bs.Time != rs.Time ||
					bs.PCKnown != rs.PCKnown || bs.PC != rs.PC) {
					t.Fatalf("%s: lane %d exit snapshot diverged: %s@%d vs %s@%d",
						ctx, lane, bs.Bits, bs.Time, rs.Bits, rs.Time)
				}
				retire(lane)
			}
		}

		// Lane churn — the compaction path of the lane scheduler — while
		// the other lanes keep running.
		if step == lateStep {
			ctx := fmt.Sprintf("seed %d late admit %d", seed, late)
			admit(late, warmSnap(2+r.Intn(12), false, 0, ctx), ctx)
		}
		if r.Intn(3) != 0 {
			continue
		}
		lane := r.Intn(nl)
		if !done[lane] {
			retire(lane)
		}
		ctx := fmt.Sprintf("seed %d step %d readmit %d", seed, step, lane)
		snap := snaps[lane]
		switch kind := r.Intn(4); kind {
		case 0:
			// The very same state: nothing differs, so anything retirement
			// left unsettled stays visible.
			ctx += " (same state)"
		case 1:
			// Same flip-flops, another RAM image, X bits included: only
			// the read ports can notice.
			ctx += " (new RAM)"
			snap = snap.Clone()
			for i := len(sp.DFFs); i < sp.Bits(); i++ {
				if r.Intn(3) == 0 {
					snap.Bits.Set(i, []logic.Value{logic.Lo, logic.Hi, logic.X}[r.Intn(3)])
				}
			}
		default:
			ctx += " (other state)"
			snap = warmSnap(2+r.Intn(12), kind == 2, lane, ctx)
		}
		admit(lane, snap, ctx)
		if r.Intn(4) == 0 {
			// Gone again before a single StepAll: a force, if it got one,
			// was never settled, and the slot sits free until a later
			// churn re-uses it.
			retire(lane)
		}
	}
}

// TestBatchMatchesInterpreterPerLane is the always-on per-lane differential
// sweep: many random circuits, both X-address policies.
func TestBatchMatchesInterpreterPerLane(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		batchDiffTrial(t, seed, MemXVerilog, false)
		batchDiffTrial(t, seed, MemXSound, false)
		// Seeds 0 and 16 run a lane ahead of its scalar shadow; on seed 13 a
		// quiet computed over one lane leaves a lane knowing a value its
		// scalar run has lost.
		batchDiffTrial(t, seed, MemXSound, true)
	}
}

// FuzzBatchVsInterpreter lets the fuzzer hunt for lane interference beyond
// the fixed sweep.
func FuzzBatchVsInterpreter(f *testing.F) {
	f.Add(uint64(1), false, false)
	f.Add(uint64(42), true, false)
	f.Add(uint64(13), true, true)
	f.Fuzz(func(t *testing.T, seed uint64, sound, xReset bool) {
		memx := MemXVerilog
		if sound || xReset {
			memx = MemXSound // the only policy an X reset trial can hold a lane to
		}
		batchDiffTrial(t, int64(seed%(1<<62)), memx, xReset)
	})
}

// toggleFixture is a one-flip-flop design for the directed admission tests:
// q toggles on every posedge of gclk = AND(clk, en), with en held high,
// feeds a two-buffer chain q -> f -> g, and addresses a two-word, one-bit
// RAM that is never written (its write enable is tied low), so the RAM
// holds whatever image a state gives it.
type toggleFixture struct {
	n               *netlist.Netlist
	st              *Stimulus
	sp              *StateSpec
	f               netlist.NetID
	clkHigh, clkLow State // q = 1 at a high clock, q = 0 at a low one
	clkLowQ1        State // q = 1 at a low clock
}

func newToggleFixture(t *testing.T) *toggleFixture {
	t.Helper()
	n := netlist.New("toggle")
	clk := n.AddInput("clk")
	rstn := n.AddInput("rst_n")
	en := n.AddInput("en")
	one := n.AddNet("one")
	n.AddGate(netlist.KindConst1, one)
	gclk := n.AddNet("gclk")
	n.AddGate(netlist.KindAnd, gclk, clk, en)
	q, nq, f, g := n.AddNet("q"), n.AddNet("nq"), n.AddNet("f"), n.AddNet("g")
	n.AddGate(netlist.KindNot, nq, q)
	n.AddGate(netlist.KindBuf, f, q)
	n.AddGate(netlist.KindBuf, g, f)
	n.AddDFF(q, nq, gclk, one, rstn, logic.Lo)
	zero := n.AddNet("zero")
	n.AddGate(netlist.KindConst0, zero)
	n.AddMem(&netlist.Mem{
		Name: "ram", AddrBits: 1, DataBits: 1, Words: 2,
		RAddr: []netlist.NetID{q}, RData: []netlist.NetID{n.AddNet("rd")},
		Clk: clk, WEn: zero, WAddr: []netlist.NetID{q}, WData: []netlist.NetID{q},
	})
	n.MarkOutput(g)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	st := NewStimulus(clk, hp)
	st.At(1, rstn, logic.Lo)
	st.At(1, en, logic.Hi)
	st.At(2*hp+1, rstn, logic.Hi)
	st.Finalize()
	sp, err := SpecFor(n, "")
	if err != nil {
		t.Fatal(err)
	}
	// stateAt warms a scalar simulator to the first step past reset where
	// the clock and q are at the wanted levels.
	stateAt := func(clkLevel, qLevel logic.Value) State {
		w := New(n, Options{Engine: EngineInterp})
		w.BindStimulus(st)
		for w.Now() <= 2*hp+1 || w.Value(clk) != clkLevel || w.Value(q) != qLevel {
			if _, err := w.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return w.Snapshot(sp)
	}
	return &toggleFixture{n: n, st: st, sp: sp, f: f,
		clkHigh: stateAt(logic.Hi, logic.Hi), clkLow: stateAt(logic.Lo, logic.Lo),
		clkLowQ1: stateAt(logic.Lo, logic.Hi)}
}

// checkAdmitted compares lane 0 of b, just restored from snap, with a fresh
// scalar interpreter and a fresh BatchSim restored from the same state.
func (fx *toggleFixture) checkAdmitted(t *testing.T, ctx string, b *BatchSim, snap State) {
	t.Helper()
	ref := New(fx.n, Options{Engine: EngineInterp})
	ref.BindStimulus(fx.st)
	if err := ref.Restore(fx.sp, snap); err != nil {
		t.Fatal(err)
	}
	checkLane(t, ctx, b, ref, 0)
	checkLaneVsFresh(t, ctx, b, 0, fx.sp, snap)
}

// TestBatchRestoreReassertsState pins RestoreLane's second flip-flop pass
// on the one shape where the first settle moves an output: a flip-flop on a
// gated clock. Its clock sample is taken before the gate has re-evaluated,
// so admitting a clock-high state over a clock-low occupant shows the
// flip-flop a posedge and it captures D = NOT Q; only the re-assertion puts
// the saved Q back.
func TestBatchRestoreReassertsState(t *testing.T) {
	fx := newToggleFixture(t)
	b := NewBatchSim(fx.n, BatchOptions{})
	b.BindStimulus(fx.st)
	if err := b.RestoreLane(fx.sp, fx.clkLow, 0); err != nil {
		t.Fatal(err)
	}
	b.RetireLane(0)
	if err := b.RestoreLane(fx.sp, fx.clkHigh, 0); err != nil {
		t.Fatal(err)
	}
	fx.checkAdmitted(t, "clock-high state over a clock-low occupant", b, fx.clkHigh)
}

// TestBatchRestoreNewRAMImage re-admits the state a lane already holds with
// nothing changed but the RAM word under the read address: no net the read
// port listens to moves, so only the admission's own re-evaluation of the
// port brings the read data along.
func TestBatchRestoreNewRAMImage(t *testing.T) {
	fx := newToggleFixture(t)
	b := NewBatchSim(fx.n, BatchOptions{})
	b.BindStimulus(fx.st)
	if err := b.RestoreLane(fx.sp, fx.clkLowQ1, 0); err != nil {
		t.Fatal(err)
	}
	b.RetireLane(0)
	rewritten := fx.clkLowQ1.Clone()
	rewritten.Bits.Set(len(fx.sp.DFFs)+1, logic.Hi) // word 1, the one q = 1 addresses
	if err := b.RestoreLane(fx.sp, rewritten, 0); err != nil {
		t.Fatal(err)
	}
	fx.checkAdmitted(t, "same state, another RAM word", b, rewritten)
}

// TestBatchUnsettledForceAcrossRetirement retires a lane whose force was
// never settled: f is forced to 1 over its natural 0 and the lane leaves
// before g has seen it; another lane's admission then drains the shared
// dirty set with the lane masked out. Re-admitting a state at the same clock
// phase whose natural f is 1 recomputes f to the value it already holds,
// so only the explicit re-evaluation of f's readers brings g along.
func TestBatchUnsettledForceAcrossRetirement(t *testing.T) {
	fx := newToggleFixture(t)
	b := NewBatchSim(fx.n, BatchOptions{})
	b.BindStimulus(fx.st)
	if err := b.RestoreLane(fx.sp, fx.clkLow, 0); err != nil {
		t.Fatal(err)
	}
	b.ForceLane(fx.f, logic.Hi, 0, b.NowLane(0)+3*hp)
	b.RetireLane(0)
	if err := b.RestoreLane(fx.sp, fx.clkLow, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreLane(fx.sp, fx.clkLowQ1, 0); err != nil {
		t.Fatal(err)
	}
	fx.checkAdmitted(t, "re-admission after an unsettled force", b, fx.clkLowQ1)
}

// TestBatchLaneRetireCompaction pins the lane lifecycle in isolation: a
// retired lane's slot must be reusable for a new scenario without
// disturbing a surviving lane — the surviving lane's shadow interpreter
// stays bit-identical across the churn.
func TestBatchLaneRetireCompaction(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	n, ins := randMemCircuit(r, 3, 4, 25, true)
	st := randStimulus(r, n, ins, 40)
	sp, err := SpecFor(n, "")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatchSim(n, BatchOptions{})
	b.BindStimulus(st)

	freshPair := func(warm int) (*Simulator, State) {
		w := New(n, Options{Engine: EngineInterp})
		w.BindStimulus(st)
		for i := 0; i < warm; i++ {
			if _, err := w.Step(); err != nil {
				t.Fatal(err)
			}
		}
		snap := w.Snapshot(sp)
		ref := New(n, Options{Engine: EngineInterp})
		ref.BindStimulus(st)
		if err := ref.Restore(sp, snap); err != nil {
			t.Fatal(err)
		}
		return ref, snap
	}

	// Two occupants: lane 0 (survivor) and lane 1 (to be retired).
	ref0, snap0 := freshPair(3)
	if err := b.RestoreLane(sp, snap0, 0); err != nil {
		t.Fatal(err)
	}
	_, snap1 := freshPair(6)
	if err := b.RestoreLane(sp, snap1, 1); err != nil {
		t.Fatal(err)
	}
	b.StartRecordingLane(0)
	ref0.StartRecording()
	step := func(nsteps int) {
		for i := 0; i < nsteps; i++ {
			if _, _, err := b.StepAll(); err != nil {
				t.Fatal(err)
			}
			if _, err := ref0.Step(); err != nil {
				t.Fatal(err)
			}
			checkLane(t, fmt.Sprintf("churn step %d", i), b, ref0, 0)
		}
	}
	step(5)

	// Retire lane 1: the active mask must drop it and its slot must accept
	// a new occupant while lane 0 keeps running undisturbed.
	b.RetireLane(1)
	if b.ActiveLanes() != 1 {
		t.Fatalf("active mask after retire = %#x, want 0x1", b.ActiveLanes())
	}
	step(3)
	_, snap2 := freshPair(10)
	if err := b.RestoreLane(sp, snap2, 1); err != nil {
		t.Fatal(err)
	}
	if b.ActiveLanes() != 3 {
		t.Fatalf("active mask after re-admission = %#x, want 0x3", b.ActiveLanes())
	}
	step(5)
}

// TestBatchLaneCap pins the -lanes cap: admission beyond the cap is
// rejected, admission below it succeeds.
func TestBatchLaneCap(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n, ins := randMemCircuit(r, 2, 2, 10, false)
	st := randStimulus(r, n, ins, 4)
	sp, err := SpecFor(n, "")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatchSim(n, BatchOptions{Lanes: 4})
	b.BindStimulus(st)
	if got := b.LaneCap(); got != 4 {
		t.Fatalf("LaneCap = %d, want 4", got)
	}
	w := New(n, Options{Engine: EngineInterp})
	w.BindStimulus(st)
	snap := w.Snapshot(sp)
	if err := b.RestoreLane(sp, snap, 3); err != nil {
		t.Fatalf("RestoreLane(3) under cap 4: %v", err)
	}
	if err := b.RestoreLane(sp, snap, 4); err == nil {
		t.Fatal("RestoreLane(4) under cap 4 succeeded, want error")
	}
	if err := b.RestoreLane(sp, snap, -1); err == nil {
		t.Fatal("RestoreLane(-1) succeeded, want error")
	}
}

// TestBatchSweepAccounting pins the batched-sweep contract: stepping N
// occupied lanes together must cost roughly the sweeps of ONE scalar
// kernel run, not N — the whole point of the bit-parallel engine. The
// batch counters tick once per pass, so aggregate per-scenario effort is
// sweeps/occupancy.
func TestBatchSweepAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	n, ins := randMemCircuit(r, 3, 4, 60, false)
	st := randStimulus(r, n, ins, 40)
	sp, err := SpecFor(n, "")
	if err != nil {
		t.Fatal(err)
	}
	w := New(n, Options{Engine: EngineInterp})
	w.BindStimulus(st)
	snap := w.Snapshot(sp)

	run := func(lanes int) (sweeps, evals uint64) {
		b := NewBatchSim(n, BatchOptions{})
		b.BindStimulus(st)
		for l := 0; l < lanes; l++ {
			if err := b.RestoreLane(sp, snap, l); err != nil {
				t.Fatal(err)
			}
		}
		s0, e0 := b.Sweeps(), b.Evals()
		for i := 0; i < 30; i++ {
			if _, _, err := b.StepAll(); err != nil {
				t.Fatal(err)
			}
		}
		return b.Sweeps() - s0, b.Evals() - e0
	}
	s1, e1 := run(1)
	s16, e16 := run(16)
	if s1 == 0 || e1 == 0 {
		t.Fatal("single-lane run recorded no work")
	}
	// Identical scenarios in every lane settle identically, so a 16-lane
	// pass must not multiply the counters: allow slack for admission-order
	// effects but nothing near 16x.
	if s16 > 4*s1 || e16 > 4*e1 {
		t.Fatalf("batched counters scale with lanes: sweeps %d -> %d, evals %d -> %d (want ~flat)",
			s1, s16, e1, e16)
	}
}
