package vvp

import (
	"math/bits"
	"slices"
	"testing"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

// The kernel's contract (DESIGN.md §8 "The contract"): what its fast paths
// rely on, stated once per engine and asserted by every differential suite
// after every step and every admission. Each check reads the state the
// property is about — pins, samples, the schedule — and never the code
// that maintains it.

// checkInvariants asserts the contract on a scalar simulator standing
// between two steps, or with work a Force, Drive, SetMemWord or Restore
// left pending:
//
//   - a flip-flop that is not dirty holds its clock's level as its clock
//     sample (clkSample, so through follow while that is set);
//   - a writable memory that is not queued holds its clock's level in
//     memState.lastClk;
//   - quiet is true exactly on the kernel with every RSTN pin at 1;
//   - zSeen is set whenever some net holds Z;
//   - follow implies a clock-domain table;
//   - edgePending is false, edgeNet is NoNet and both queues are empty;
//   - the schedule agrees with itself (checkSet), the interpreter's
//     buckets with its in-queue flags.
func (s *Simulator) checkInvariants(t testing.TB, ctx string) {
	t.Helper()
	if s.edgePending || s.edgeNet != netlist.NoNet || len(s.nba) != 0 || len(s.inactiveQ) != 0 {
		t.Fatalf("%s: edgePending %v, edgeNet %d, %d NBA and %d inactive entries between steps",
			ctx, s.edgePending, s.edgeNet, len(s.nba), len(s.inactiveQ))
	}
	if s.follow && (s.prog == nil || s.prog.Clock == nil) {
		t.Fatalf("%s: clock samples follow a clock with no clock-domain table", ctx)
	}
	if !s.zSeen && slices.Contains(s.val, logic.Z) {
		t.Fatalf("%s: a net holds z and zSeen is not set", ctx)
	}
	quiet := s.prog != nil
	for g := range s.d.Gates {
		gt := &s.d.Gates[g]
		if gt.Kind != netlist.KindDFF {
			continue
		}
		if s.val[gt.In[netlist.DFFPinRstn]] != logic.Hi {
			quiet = false
		}
		k := s.gidx(netlist.GateID(g))
		if s.prog == nil && s.inQ[k] || s.prog != nil && s.dirtyW[k>>6]>>(k&63)&1 != 0 {
			continue
		}
		if clk, sample := s.val[gt.In[netlist.DFFPinClk]], s.clkSample(k); sample != clk {
			t.Fatalf("%s: DFF %s is not dirty and its clock sample is %v, the clock %v",
				ctx, s.d.NetName(gt.Out), sample, clk)
		}
	}
	if s.quiet != quiet {
		t.Fatalf("%s: quiet = %v, the reset pins say %v", ctx, s.quiet, quiet)
	}
	for mi, m := range s.d.Mems {
		if !m.IsROM() && !s.memInQ[mi] && s.mem[mi].lastClk != s.val[m.Clk] {
			t.Fatalf("%s: memory %s is not queued and its clock sample is %v, the clock %v",
				ctx, m.Name, s.mem[mi].lastClk, s.val[m.Clk])
		}
	}
	held := 0
	for lvl, b := range s.buckets {
		for _, g := range b {
			if !s.inQ[g] || s.d.GateLevel(g) != int32(lvl) {
				t.Fatalf("%s: gate %d in the bucket of level %d: queued %v, level %d", ctx, g, lvl, s.inQ[g], s.d.GateLevel(g))
			}
			held++
		}
	}
	if queued := count(s.inQ, true); held != queued {
		t.Fatalf("%s: %d gates in the buckets, %d queued", ctx, held, queued)
	}
	checkSet(t, ctx, &s.dirtySet, held)
}

// checkInvariants is the contract on a BatchSim between two steps or
// admissions, lane by occupied lane: a flip-flop that is not dirty, and a
// writable memory that is not queued, hold the lane's clock level as their
// clock sample; quiet is true exactly when every RSTN pin is at 1 in every
// occupied lane; the NBA queue is empty; and the schedule agrees with
// itself.
func (s *BatchSim) checkInvariants(t testing.TB, ctx string) {
	t.Helper()
	if len(s.nba) != 0 {
		t.Fatalf("%s: %d NBA entries between steps", ctx, len(s.nba))
	}
	stale := func(a, x uint64, clk netlist.NetID) uint64 {
		return ((a ^ s.valA[clk]) | (x ^ s.valX[clk])) & s.active
	}
	quiet := true
	for g := range s.prog.Gates {
		d := &s.prog.Gates[g]
		if d.Kind != netlist.KindDFF {
			continue
		}
		for lanes := s.active; lanes != 0; lanes &= lanes - 1 {
			if s.LaneValue(d.In[netlist.DFFPinRstn], bits.TrailingZeros64(lanes)) != logic.Hi {
				quiet = false
			}
		}
		if s.dirtyW[g>>6]>>(g&63)&1 != 0 {
			continue
		}
		if lanes := stale(s.lastClkA[g], s.lastClkX[g], d.In[netlist.DFFPinClk]); lanes != 0 {
			t.Fatalf("%s: DFF %s is not dirty and its clock sample is stale in the lanes %#x", ctx, s.d.NetName(d.Out), lanes)
		}
	}
	if s.quiet != quiet {
		t.Fatalf("%s: quiet = %v, the reset pins of the lanes %#x say %v", ctx, s.quiet, s.active, quiet)
	}
	for mi, m := range s.d.Mems {
		if m.IsROM() || s.memInQ[mi] {
			continue
		}
		if lanes := stale(s.mem[mi].lastClkA, s.mem[mi].lastClkX, m.Clk); lanes != 0 {
			t.Fatalf("%s: memory %s is not queued and its clock sample is stale in the lanes %#x", ctx, m.Name, lanes)
		}
	}
	checkSet(t, ctx, &s.dirtySet, 0)
}

// checkSet is the schedule's half of the contract: a set bit is a gate,
// and its level is marked; a queued memory is in its level's bucket once,
// nothing else is in a bucket, and its level is marked; and dirtyN counts
// the bits, the queued memories and the held gate entries its owner keeps
// outside the bitmap (the interpreter's buckets).
func checkSet(t testing.TB, ctx string, ds *dirtySet, held int) {
	t.Helper()
	marked := func(l int32) bool { return ds.lvlW[l>>6]>>(uint(l)&63)&1 != 0 }
	setBits, gates := 0, 0
	for _, w := range ds.dirtyW {
		setBits += bits.OnesCount64(w)
	}
	for g, l := range ds.glv {
		if ds.dirtyW[g>>6]>>(uint(g)&63)&1 == 0 {
			continue
		}
		gates++
		if !marked(l) {
			t.Fatalf("%s: gate %d is dirty and its level %d is not marked", ctx, g, l)
		}
	}
	if setBits != gates {
		t.Fatalf("%s: %d bits set in a bitmap of %d gates, %d of them past the last", ctx, setBits, len(ds.glv), setBits-gates)
	}
	bucketed := 0
	for _, b := range ds.memBuckets {
		bucketed += len(b)
	}
	queued := count(ds.memInQ, true)
	for id, in := range ds.memInQ {
		if !in {
			continue
		}
		l := ds.mlv[id]
		if n := count(ds.memBuckets[l], netlist.MemID(id)); n != 1 || !marked(l) {
			t.Fatalf("%s: memory %d is queued, %d times in the bucket of its level %d, marked %v", ctx, id, n, l, marked(l))
		}
	}
	if bucketed != queued {
		t.Fatalf("%s: %d bucket entries for %d queued memories", ctx, bucketed, queued)
	}
	if ds.dirtyN != held+gates+queued {
		t.Fatalf("%s: dirtyN %d, the set holds %d gates, %d memories and %d entries kept outside it",
			ctx, ds.dirtyN, gates, queued, held)
	}
}

// count returns how many elements of s equal v.
func count[E comparable](s []E, v E) int {
	n := 0
	for _, e := range s {
		if e == v {
			n++
		}
	}
	return n
}
