package csm

import (
	"math/rand"
	"testing"

	"symsim/internal/logic"
	"symsim/internal/vvp"
)

// observeCanonical runs the canonical observe sequence new → subsumed →
// differs-in-one-bit against a policy and returns the decisions with the
// state count after each. The TestInstrumentVerdicts* expectations below
// are the ones the deleted instrumenting wrapper, which inferred verdicts
// from States() read around Observe, was pinned to; Decision now carries
// the verdict itself.
func observeCanonical(mgr Manager) (ds []Decision, states []int) {
	for _, s := range []vvp.State{st(0x10, "0101"), st(0x10, "0101"), st(0x10, "0111")} {
		ds = append(ds, mgr.Observe(s))
		states = append(states, mgr.States())
	}
	return ds, states
}

func checkVerdicts(t *testing.T, ds []Decision, want ...string) {
	t.Helper()
	if len(ds) != len(want) {
		t.Fatalf("decisions = %+v", ds)
	}
	for i, w := range want {
		if got := ds[i].Verdict(); got != w {
			t.Errorf("decision %d verdict = %q, want %q", i, got, w)
		}
	}
}

// xGained is the decision log's over-approximation cost of a merge.
func xGained(d Decision, observed string) int {
	return d.Explore.Bits.CountX() - logic.MustVec(observed).CountX()
}

func TestInstrumentVerdictsMergeAll(t *testing.T) {
	ds, states := observeCanonical(NewMergeAll())
	checkVerdicts(t, ds, VerdictNew, VerdictSubsumed, VerdictMerged)
	// "0101" merge "0111" = "01x1": one known bit became X.
	if got := xGained(ds[2], "0111"); got != 1 {
		t.Errorf("merged xGained = %d, want 1", got)
	}
	if states[0] != 1 || states[2] != 1 {
		t.Errorf("states = %d,%d, want 1,1", states[0], states[2])
	}
}

func TestInstrumentVerdictsExact(t *testing.T) {
	ds, states := observeCanonical(NewExact(0))
	// Exact never merges: the differing state is stored as new.
	checkVerdicts(t, ds, VerdictNew, VerdictSubsumed, VerdictNew)
	if states[2] != 2 {
		t.Errorf("states after second new = %d, want 2", states[2])
	}
}

func TestInstrumentVerdictsClustered(t *testing.T) {
	ds, _ := observeCanonical(NewClustered(1))
	// k=1 is merge-all.
	checkVerdicts(t, ds, VerdictNew, VerdictSubsumed, VerdictMerged)
	if got := xGained(ds[2], "0111"); got != 1 {
		t.Errorf("merged xGained = %d, want 1", got)
	}
}

func TestInstrumentVerdictsConstrained(t *testing.T) {
	ds, _ := observeCanonical(mustConstrained(t, 4, nil))
	checkVerdicts(t, ds, VerdictNew, VerdictSubsumed, VerdictMerged)
}

// randomStream is a seeded observe stream over a few PCs, dense enough in
// X and repeats that every verdict occurs under every policy.
func randomStream(seed int64, n, width int) []vvp.State {
	r := rand.New(rand.NewSource(seed))
	out := make([]vvp.State, n)
	for i := range out {
		v := logic.NewVec(width)
		for b := 0; b < width; b++ {
			v.Set(b, []logic.Value{logic.Lo, logic.Hi, logic.Lo, logic.Hi, logic.X}[r.Intn(5)])
		}
		out[i] = vvp.State{PC: uint64(r.Intn(6)), Bits: v, PCKnown: true, Time: uint64(i)}
		if i > 0 && r.Intn(8) == 0 {
			out[i] = out[r.Intn(i)].Clone()
		}
	}
	return out
}

// TestCapacityOneIsMergeAll: clustered(1) and fact-free constrained sit on
// the same point of the capacity axis as merge-all and must answer every
// observation identically — verdict, explored state, state count — and
// export the same table.
func TestCapacityOneIsMergeAll(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		ref := NewMergeAll()
		others := []Manager{NewClustered(1), mustConstrained(t, 10, nil)}
		for i, s := range randomStream(seed, 200, 10) {
			want := ref.Observe(s.Clone())
			for _, m := range others {
				got := m.Observe(s.Clone())
				if got.Subsumed != want.Subsumed || got.Merged != want.Merged ||
					got.Explore.PC != want.Explore.PC || got.Explore.Time != want.Explore.Time ||
					got.Explore.PCKnown != want.Explore.PCKnown || !got.Explore.Bits.Equal(want.Explore.Bits) {
					t.Fatalf("seed %d observe %d: %s decided %+v, merge-all %+v", seed, i, m.Name(), got, want)
				}
				if m.States() != ref.States() {
					t.Fatalf("seed %d observe %d: %s holds %d states, merge-all %d", seed, i, m.Name(), m.States(), ref.States())
				}
			}
		}
		for _, m := range others {
			if err := sameSavedStates(ref.Export(), m.Export()); err != nil {
				t.Fatalf("seed %d: %s export differs from merge-all's: %v", seed, m.Name(), err)
			}
		}
	}
}

// TestMergedBitIsTheStatesDeltaRule: for every policy, a non-subsumed
// observation is "new" exactly when it grew the table — the rule the
// decision log used before Decision carried the bit.
func TestMergedBitIsTheStatesDeltaRule(t *testing.T) {
	facts := []Constraint{{AnyPC: true, Bit: 0, Val: logic.Lo}, {PC: 2, Bit: 3, Val: logic.Hi}}
	policies := []struct {
		mk     func() Manager
		merges bool // exact without a valve never does
	}{
		{NewMergeAll, true},
		{func() Manager { return NewClustered(3) }, true},
		{func() Manager { return NewExact(0) }, false},
		{func() Manager { return NewExact(8) }, true},
		{func() Manager { return mustConstrained(t, 10, facts) }, true},
	}
	for _, pol := range policies {
		seen := map[string]int{}
		for seed := int64(0); seed < 10; seed++ {
			m := pol.mk()
			for i, s := range randomStream(seed, 200, 10) {
				before := m.States()
				d := m.Observe(s)
				after := m.States()
				seen[d.Verdict()]++
				if d.Subsumed {
					if d.Merged || after != before {
						t.Fatalf("%s seed %d observe %d: subsumed with merged=%v, states %d -> %d", m.Name(), seed, i, d.Merged, before, after)
					}
					continue
				}
				if grew := after > before; d.Merged == grew {
					t.Fatalf("%s seed %d observe %d: merged=%v but states %d -> %d", m.Name(), seed, i, d.Merged, before, after)
				}
			}
		}
		// Every verdict the policy can give must have occurred, or the
		// property was vacuous.
		for _, v := range []string{VerdictSubsumed, VerdictNew, VerdictMerged} {
			if (seen[v] > 0) != (v != VerdictMerged || pol.merges) {
				t.Errorf("%s: %d %q verdicts in the streams", pol.mk().Name(), seen[v], v)
			}
		}
	}
}

// A checkpoint whose constrained CSM holds several states under one PC —
// what a run could write while cold PCs were merged lazily — imports into
// the one-state-per-PC table as a single state covering all of them.
func TestConstrainedImportFoldsToOneStatePerPC(t *testing.T) {
	saved := []SavedState{
		{PC: 1, Bits: logic.MustVec("0000")},
		{PC: 1, Bits: logic.MustVec("0011")},
		{PC: 1, Bits: logic.MustVec("0101")},
		{PC: 2, Bits: logic.MustVec("1111")},
	}
	c := mustConstrained(t, 4, nil)
	if err := c.Import(saved); err != nil {
		t.Fatal(err)
	}
	exp := c.Export()
	if len(exp) != 2 || c.States() != 2 {
		t.Fatalf("export = %+v, states = %d, want one state per PC", exp, c.States())
	}
	if got := exp[0].Bits.String(); exp[0].PC != 1 || got != "0xxx" {
		t.Errorf("PC 1 holds %s, want 0xxx", got)
	}
	for _, s := range saved {
		if d := c.Observe(vvp.State{PC: s.PC, Bits: s.Bits, PCKnown: true}); !d.Subsumed {
			t.Errorf("imported state %v @ pc %d is not covered", s.Bits, s.PC)
		}
	}
}

// TestNothingAliasesTheTable guards the in-place merge: a stored state is
// rewritten by every later merge at its PC, so nothing that leaves the table
// — a Decision's Explore, which the frontier keeps for both children, or an
// Export — and nothing that enters it may share a vector with it. One
// scratch vector carries every observation in, as the explorer's halt
// snapshot does; a reference manager fed private copies must decide
// identically, and every Explore and Export taken on the way must still
// read what it read when it was handed out.
func TestNothingAliasesTheTable(t *testing.T) {
	for _, mk := range []func() Manager{
		NewMergeAll,
		func() Manager { return NewClustered(4) },
		func() Manager { return NewExact(64) },
	} {
		m, ref := mk(), mk()
		type kept struct {
			at        int
			got, want logic.Vec
		}
		var explores, exports []kept
		scratch := logic.NewVec(10)
		merges := 0
		for i, s := range randomStream(7, 600, 10) {
			scratch.CopyFrom(s.Bits)
			in := s
			in.Bits = scratch
			d, want := m.Observe(in), ref.Observe(s.Clone())
			if !scratch.Equal(s.Bits) {
				t.Fatalf("%s observe %d: Observe wrote to the state it was handed", m.Name(), i)
			}
			if d.Subsumed != want.Subsumed || d.Merged != want.Merged || !d.Explore.Bits.Equal(want.Explore.Bits) {
				t.Fatalf("%s observe %d: decided %+v on a reused vector, %+v on a private one", m.Name(), i, d, want)
			}
			if d.Merged {
				merges++
			}
			if !d.Subsumed {
				explores = append(explores, kept{i, d.Explore.Bits, d.Explore.Bits.Clone()})
			}
			if i%50 == 0 {
				for _, e := range m.Export() {
					exports = append(exports, kept{i, e.Bits, e.Bits.Clone()})
				}
			}
		}
		if merges < 10 || len(exports) == 0 {
			t.Fatalf("%s: %d merges, %d exported states: the stream proves nothing", m.Name(), merges, len(exports))
		}
		for _, k := range explores {
			if !k.got.Equal(k.want) {
				t.Errorf("%s: the Explore of observe %d changed under a later merge: %v, was %v", m.Name(), k.at, k.got, k.want)
			}
		}
		for _, k := range exports {
			if !k.got.Equal(k.want) {
				t.Errorf("%s: a state exported at observe %d changed under a later merge: %v, was %v", m.Name(), k.at, k.got, k.want)
			}
		}
	}
}
