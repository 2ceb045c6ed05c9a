package vvp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

// replayTrial is the vvp-level differential of the replay (DESIGN.md §8
// "Replay of a widened segment"). One Replay records a run from base, then
// runs from gens widenings of it — each adds random X flip-flop bits and X
// RAM words to the last — each following the previous run's log, the way an
// explorer meets a branch PC again under merge-all. Beside every widened run
// a fresh kernel simulator runs the same state in full, and after every step
// the two must agree on Values, every RAM word and the status; the replay's
// toggle profile must hold the kernel's and add only nets an earlier run of
// the trial toggled (which absorb has taken already); and over the widened
// runs the replay may evaluate no more gates than the kernel. (One run may
// evaluate more: a replayed step whose difference set sets off a wide
// cascade of nets the logged run resolved and this one leaves X costs more
// than the full step, and only after it does the following end.) force, when not NoNet,
// is forced to v for three half-periods after each restore. It returns the
// steps taken on the replay path.
func replayTrial(t testing.TB, ctx string, r *rand.Rand, mk func() *Simulator, sp *StateSpec, base State, force netlist.NetID, v logic.Value, hp uint64, gens, steps int) uint64 {
	t.Helper()
	rs := mk()
	rp := NewReplay(rs)
	prev, next := new(ReplayLog), new(ReplayLog)
	seen := make([]uint64, len(rs.toggled))
	var re, ke uint64
	st := base
	admit := func(s *Simulator, restore func() error) {
		t.Helper()
		if err := restore(); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
	}
	for gen := 0; gen <= gens; gen++ {
		at := fmt.Sprintf("%s gen %d", ctx, gen)
		var ks *Simulator
		if gen > 0 {
			st = widen(r, sp, st)
			ks = mk()
			admit(ks, func() error { return ks.Restore(sp, st) })
		}
		ref := prev
		if gen == 0 {
			ref = nil
		}
		admit(rs, func() error { return rp.Restore(sp, st, ref, next) })
		release := rs.Now() + 3*hp
		if force != netlist.NoNet {
			rp.Force(force, v, release)
			if ks != nil {
				ks.Force(force, v, release)
			}
		}
		rs.StartRecording()
		if ks != nil {
			ks.StartRecording()
			if !slices.Equal(rs.val, ks.val) {
				t.Fatalf("%s: restored values differ", at)
			}
		}
		re0, rc0 := rs.Evals(), rs.Cycles()
		var ke0, kc0 uint64
		if ks != nil {
			ke0, kc0 = ks.Evals(), ks.Cycles()
		}
		for i := 0; i < steps; i++ {
			sr, err := rp.Step()
			if err != nil {
				t.Fatalf("%s step %d: replay: %v", at, i, err)
			}
			rs.checkInvariants(t, at+" (replay)")
			rp.checkInvariants(t, at)
			if ks == nil {
				if sr != Running {
					break
				}
				continue
			}
			sk, err := ks.Step()
			if err != nil {
				t.Fatalf("%s step %d: kernel: %v", at, i, err)
			}
			where := fmt.Sprintf("%s step %d t=%d", at, i, rs.Now())
			if sr != sk || rs.Now() != ks.Now() || rs.Cycles()-rc0 != ks.Cycles()-kc0 {
				t.Fatalf("%s: replay %v at t=%d, kernel %v at t=%d", where, sr, rs.Now(), sk, ks.Now())
			}
			if !slices.Equal(rs.val, ks.val) {
				for n := range rs.val {
					if rs.val[n] != ks.val[n] {
						t.Fatalf("%s: net %s is %v on the replay, %v on the kernel", where, rs.d.NetName(netlist.NetID(n)), rs.val[n], ks.val[n])
					}
				}
			}
			for m := range rs.mem {
				if !rs.mem[m].image.Equal(ks.mem[m].image) {
					t.Fatalf("%s: memory %s differs", where, rs.d.Mems[m].Name)
				}
			}
			for w, kt := range ks.toggled {
				rt := rs.toggled[w]
				if kt&^rt != 0 {
					t.Fatalf("%s: net %d toggled on the kernel only", where, w<<6+trailing(kt&^rt))
				}
				if extra := rt &^ kt &^ seen[w]; extra != 0 {
					t.Fatalf("%s: net %d toggled on the replay only, and no earlier run toggled it", where, w<<6+trailing(extra))
				}
			}
			if sr != Running {
				break
			}
		}
		if ks != nil {
			re += rs.Evals() - re0
			ke += ks.Evals() - ke0
		}
		rp.Done()
		for w, v := range rs.toggled {
			seen[w] |= v
		}
		prev, next = next, prev
	}
	if re > ke {
		t.Errorf("%s: the replay evaluated %d gates, the kernel %d", ctx, re, ke)
	}
	return rp.Replayed()
}

// checkInvariants asserts what a Replay holds between two steps: the step
// and written marks are folded away, and while it follows a log the
// difference set names exactly the nets whose value differs from ref, each
// once.
func (r *Replay) checkInvariants(t testing.TB, ctx string) {
	t.Helper()
	for i := range r.step {
		if r.step[i]|r.wrote[i] != 0 {
			t.Fatalf("%s: step marks left in word %d", ctx, i)
		}
	}
	n := 0
	for _, w := range r.inD {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	if n != len(r.d) {
		t.Fatalf("%s: %d nets marked in the difference set, %d listed", ctx, n, len(r.d))
	}
	if r.log == nil {
		if n != 0 {
			t.Fatalf("%s: a difference set while following nothing", ctx)
		}
		return
	}
	for id := range r.ref {
		if differs, in := r.s.val[id] != r.ref[id], r.inD[id>>6]>>(id&63)&1 != 0; differs != in {
			t.Fatalf("%s: net %s differs from the followed run %v, in the difference set %v", ctx, r.s.d.NetName(netlist.NetID(id)), differs, in)
		}
	}
}

func trailing(w uint64) int {
	for i := 0; i < 64; i++ {
		if w>>i&1 != 0 {
			return i
		}
	}
	return 64
}

// widen returns a copy of st with random flip-flop bits and RAM words made
// X: one flip-flop in 64 and one word in 32, and at least one flip-flop — a
// merge under merge-all widens a state by a few bits.
func widen(r *rand.Rand, sp *StateSpec, st State) State {
	w := st.Clone()
	w.Bits.Set(r.Intn(len(sp.DFFs)), logic.X)
	for i := range sp.DFFs {
		if r.Intn(64) == 0 {
			w.Bits.Set(i, logic.X)
		}
	}
	for k, mid := range sp.Mems {
		m := sp.design.Mems[mid]
		for word := 0; word < m.Words; word++ {
			if r.Intn(32) != 0 {
				continue
			}
			for b := 0; b < m.DataBits; b++ {
				w.Bits.Set(sp.memBase[k]+word*m.DataBits+b, logic.X)
			}
		}
	}
	return w
}

// replayRandomTrial runs replayTrial on the random circuit and stimulus of
// seed (the shapes of diffTrial), from a state taken after the stimulus has
// played out — a restored segment never starts inside it.
func replayRandomTrial(t testing.TB, seed int64) uint64 {
	r := rand.New(rand.NewSource(seed))
	shape, stim := drawShapes(r)
	const nCycles = 10
	k, f, g := 2+r.Intn(3), 2+r.Intn(4), 10+r.Intn(40)
	if seed%4 == 3 {
		g += 150
	}
	n, ins := randCircuit(r, k, f, g, r.Intn(2) == 0, shape)
	st := randStimulus(r, n, ins, nCycles)
	twistStimulus(r, st, n, ins, nCycles, stim)
	mk := func() *Simulator {
		s := New(n, Options{})
		s.BindStimulus(st)
		return s
	}
	boot := mk()
	last := st.Events[len(st.Events)-1].Time
	for boot.Now() <= last+2*hp {
		if _, err := boot.Step(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	sp, err := SpecFor(n, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := fmt.Sprintf("seed %d shape %#x stim %#x", seed, shape, stim)
	return replayTrial(t, ctx, r, mk, sp, boot.Snapshot(sp), n.Outputs[0], logic.Hi, hp, 3, 60)
}

// TestReplayMatchesKernel holds the replay to the kernel on random circuits
// (the shapes of TestKernelMatchesInterpreterRandom); the processors are in
// replay_cpu_test.go. The plain circuits have a clock-domain table, so some
// of their steps must take the replay path.
func TestReplayMatchesKernel(t *testing.T) {
	var replayed uint64
	for seed := int64(0); seed < 60; seed++ {
		replayed += replayRandomTrial(t, seed)
	}
	t.Logf("%d steps replayed", replayed)
	if replayed == 0 {
		t.Fatal("no step took the replay path")
	}
}

// FuzzReplayVsKernel lets the fuzzer look for a circuit on which the replay
// and the kernel part.
func FuzzReplayVsKernel(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(42))
	f.Add(uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, seed uint64) {
		replayRandomTrial(t, int64(seed%(1<<62)))
	})
}

// TestReplayRunsRAMWritesInFull holds the replay to the kernel on a design
// whose RAM writes at every rising edge, the word a counter names, with the
// counter's value, beside a register the widenings make X: a step at which
// a memory can write is not quiet, since the write reads the pins as they
// were before the edge and a replayed step has already written the logged
// values over them. The falling edges replay.
func TestReplayRunsRAMWritesInFull(t *testing.T) {
	n := netlist.New("ramcount")
	clk := n.AddInput("clk")
	rstn := n.AddInput("rst_n")
	one := n.AddNet("one")
	n.AddGate(netlist.KindConst1, one)
	c0, c1, x0, x1 := n.AddNet("c0"), n.AddNet("c1"), n.AddNet("x0"), n.AddNet("x1")
	n0, n1 := n.AddNet("n0"), n.AddNet("n1")
	n.AddGate(netlist.KindNot, n0, c0)
	n.AddGate(netlist.KindXor, n1, c1, c0)
	n.AddDFF(c0, n0, clk, one, rstn, logic.Lo)
	n.AddDFF(c1, n1, clk, one, rstn, logic.Lo)
	n.AddDFF(x0, x0, clk, one, rstn, logic.Lo)
	n.AddDFF(x1, x1, clk, one, rstn, logic.Hi)
	rd0, rd1 := n.AddNet("rd0"), n.AddNet("rd1")
	n.AddMem(&netlist.Mem{Name: "ram", AddrBits: 2, DataBits: 2, Words: 4, Clk: clk, WEn: one,
		WAddr: []netlist.NetID{c0, c1}, WData: []netlist.NetID{c1, c0},
		RAddr: []netlist.NetID{x0, c1}, RData: []netlist.NetID{rd0, rd1}})
	o := n.AddNet("o")
	n.AddGate(netlist.KindXor, o, rd0, x1)
	n.MarkOutput(o)
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	if cd := n.Program().Clock; cd == nil || !cd.ClockPinsOnly {
		t.Fatal("the design has no clock-domain table whose clock reaches clock pins only")
	}
	st := NewStimulus(clk, hp)
	st.At(1, rstn, logic.Lo)
	st.At(2*hp+1, rstn, logic.Hi)
	st.Finalize()
	mk := func() *Simulator {
		s := New(n, Options{})
		s.BindStimulus(st)
		return s
	}
	boot := mk()
	for boot.Now() <= 4*hp {
		if _, err := boot.Step(); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := SpecFor(n, "")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	replayed := replayTrial(t, "ramcount", r, mk, sp, boot.Snapshot(sp), netlist.NoNet, logic.X, hp, 4, 40)
	t.Logf("%d replayed", replayed)
	if replayed == 0 {
		t.Fatal("no step took the replay path")
	}
}
