package csm

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"symsim/internal/logic"
	"symsim/internal/vvp"
)

func st(pc uint64, bits string) vvp.State {
	return vvp.State{PC: pc, Bits: logic.MustVec(bits), PCKnown: true}
}

func TestMergeAllBasics(t *testing.T) {
	m := NewMergeAll()
	if m.Name() != "merge-all" {
		t.Errorf("name = %q", m.Name())
	}
	// First state at a PC: explored as-is.
	d := m.Observe(st(0x10, "0101"))
	if d.Subsumed || !d.Explore.Bits.Equal(logic.MustVec("0101")) {
		t.Fatalf("first observe: %+v", d)
	}
	// Identical state: subsumed.
	if d := m.Observe(st(0x10, "0101")); !d.Subsumed {
		t.Fatal("identical state not subsumed")
	}
	// Different state: merged superstate explored.
	d = m.Observe(st(0x10, "0111"))
	if d.Subsumed {
		t.Fatal("differing state subsumed")
	}
	if got := d.Explore.Bits.String(); got != "01x1" {
		t.Fatalf("merged = %s, want 01x1", got)
	}
	// A state covered by the merged one: subsumed.
	if d := m.Observe(st(0x10, "0101")); !d.Subsumed {
		t.Fatal("covered state not subsumed")
	}
	// Same bits at a different PC: separate entry.
	if d := m.Observe(st(0x20, "0101")); d.Subsumed {
		t.Fatal("state at new PC subsumed")
	}
	if m.States() != 2 {
		t.Fatalf("states = %d, want 2", m.States())
	}
}

func TestMergeAllConvergesToFixpoint(t *testing.T) {
	m := NewMergeAll()
	r := rand.New(rand.NewSource(7))
	width := 24
	nonSubsumed := 0
	for i := 0; i < 1000; i++ {
		v := logic.NewVec(width)
		for b := 0; b < width; b++ {
			v.Set(b, []logic.Value{logic.Lo, logic.Hi}[r.Intn(2)])
		}
		if d := m.Observe(vvp.State{PC: 1, Bits: v, PCKnown: true}); !d.Subsumed {
			nonSubsumed++
		}
	}
	// Each non-subsumed observation adds at least one X bit, so the count
	// is bounded by the state width plus the initial observation.
	if nonSubsumed > width+1 {
		t.Fatalf("non-subsumed = %d, exceeds width bound %d", nonSubsumed, width+1)
	}
}

func TestExactPolicy(t *testing.T) {
	e := NewExact(0)
	if d := e.Observe(st(1, "00")); d.Subsumed {
		t.Fatal("first state subsumed")
	}
	if d := e.Observe(st(1, "01")); d.Subsumed {
		t.Fatal("distinct state subsumed")
	}
	if d := e.Observe(st(1, "00")); !d.Subsumed {
		t.Fatal("repeat state not subsumed")
	}
	if e.States() != 2 {
		t.Fatalf("states = %d", e.States())
	}
	// No merging: explored states are exact copies.
	d := e.Observe(st(1, "11"))
	if got := d.Explore.Bits.String(); got != "11" {
		t.Fatalf("exact explored %s", got)
	}
}

func TestExactSafetyValveMerges(t *testing.T) {
	e := NewExact(2)
	e.Observe(st(1, "0000"))
	e.Observe(st(1, "0001"))
	// Budget exhausted: next distinct state merges into slot 0.
	d := e.Observe(st(1, "0010"))
	if d.Subsumed {
		t.Fatal("valve observation subsumed")
	}
	if d.Explore.Bits.CountX() == 0 {
		t.Fatalf("valve did not merge: %s", d.Explore.Bits)
	}
}

func TestClusteredKeepsKStates(t *testing.T) {
	c := NewClustered(2)
	if !strings.Contains(c.Name(), "clustered") {
		t.Errorf("name = %q", c.Name())
	}
	c.Observe(st(1, "0000"))
	c.Observe(st(1, "1111"))
	if c.States() != 2 {
		t.Fatalf("states = %d", c.States())
	}
	// Third state merges into the nearest cluster (0001 -> 0000).
	d := c.Observe(st(1, "0001"))
	if d.Subsumed {
		t.Fatal("subsumed")
	}
	if got := d.Explore.Bits.String(); got != "000x" {
		t.Fatalf("merged into wrong cluster: %s", got)
	}
	if c.States() != 2 {
		t.Fatalf("cluster count grew: %d", c.States())
	}
	// A state covered by either cluster is subsumed.
	if d := c.Observe(st(1, "1111")); !d.Subsumed {
		t.Fatal("cluster member not subsumed")
	}
}

func TestClusteredRequiresPositiveK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 accepted")
		}
	}()
	NewClustered(0)
}

// mustConstrained builds a constrained policy or fails the test.
func mustConstrained(t testing.TB, bits int, cons []Constraint) Manager {
	t.Helper()
	c, err := NewConstrained(bits, cons)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConstrainedAppliesConstraints(t *testing.T) {
	cons := []Constraint{
		{PC: 1, Bit: 0, Val: logic.Lo},
		{AnyPC: true, Bit: 2, Val: logic.Hi},
	}
	c := mustConstrained(t, 4, cons)
	if c.Name() != "constrained" {
		t.Errorf("name = %q", c.Name())
	}
	c.Observe(st(1, "0000"))
	d := c.Observe(st(1, "1111"))
	if d.Subsumed {
		t.Fatal("subsumed")
	}
	// Merge-all gives xxxx; constraints pin bit0 (pc=1) and bit2 (any).
	if got := d.Explore.Bits.String(); got != "x1x0" {
		t.Fatalf("constrained merge = %s, want x1x0", got)
	}
	// At another PC only the AnyPC constraint applies.
	c.Observe(st(2, "0000"))
	d = c.Observe(st(2, "1111"))
	if got := d.Explore.Bits.String(); got != "x1xx" {
		t.Fatalf("constrained merge at other PC = %s, want x1xx", got)
	}
}

// Regression for the constrained verdict leak: a state whose fact-trimmed
// form is already covered by the stored conservative state must be
// subsumed, not reported as a fork. The pre-PR-10 policy pinned bits only
// after the inner merge-all verdict and never re-tested subsumption, so
// this Observe created two worklist entries the constraints themselves
// prove redundant.
func TestConstrainedRetestsSubsumptionAfterPin(t *testing.T) {
	c := mustConstrained(t, 2, []Constraint{{AnyPC: true, Bit: 0, Val: logic.Lo}})
	if d := c.Observe(st(1, "x0")); d.Subsumed {
		t.Fatal("first observation subsumed")
	}
	// Raw "01" is not covered by the stored "x0" (bit 0 differs), but the
	// designer pins bit 0 low: the state actually simulated would be "00",
	// which the stored state covers.
	d := c.Observe(st(1, "01"))
	if !d.Subsumed {
		t.Fatalf("pinned-covered state reported as fork: explore=%v", d.Explore.Bits)
	}
	// And the table stays untouched: the stored state already covers
	// everything this halt can do.
	if got := c.States(); got != 1 {
		t.Fatalf("states = %d, want 1", got)
	}
	if exp := c.Export(); len(exp) != 1 || exp[0].Bits.String() != "x0" {
		t.Fatalf("stored state changed: %+v", exp)
	}
}

// Regression for silent constraint skipping: an out-of-range bit (or any
// otherwise-invalid fact) must be rejected at construction with a typed
// error, never ignored forever at observe time.
func TestNewConstrainedRejectsBadConstraints(t *testing.T) {
	for _, tc := range []struct {
		name string
		cons []Constraint
	}{
		{"bit-too-big", []Constraint{{AnyPC: true, Bit: 7, Val: logic.Hi}}},
		{"bit-negative", []Constraint{{AnyPC: true, Bit: -1, Val: logic.Hi}}},
		{"x-pin", []Constraint{{AnyPC: true, Bit: 0, Val: logic.X}}},
		{"empty-range", []Constraint{{Kind: FactRange, AnyPC: true}}},
		{"range-bit-out", []Constraint{{Kind: FactRange, AnyPC: true, Bits: []int{0, 9}, Max: 3}}},
		{"range-dup-bit", []Constraint{{Kind: FactRange, AnyPC: true, Bits: []int{1, 1}, Max: 3}}},
		{"inverted-range", []Constraint{{Kind: FactRange, AnyPC: true, Bits: []int{0, 1}, Min: 3, Max: 1}}},
		{"overflow-range", []Constraint{{Kind: FactRange, AnyPC: true, Bits: []int{0, 1}, Max: 4}}},
		{"self-rel", []Constraint{{Kind: FactRel, AnyPC: true, A: 1, B: 1}}},
		{"rel-bit-out", []Constraint{{Kind: FactRel, AnyPC: true, A: 0, B: 4}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewConstrained(4, tc.cons)
			if err == nil {
				t.Fatal("invalid constraint accepted")
			}
			var ce *ConstraintError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v is not a *ConstraintError", err)
			}
			if ce.Index != 0 {
				t.Errorf("index = %d, want 0", ce.Index)
			}
		})
	}
	// A valid set still constructs.
	if _, err := NewConstrained(4, []Constraint{
		{AnyPC: true, Bit: 3, Val: logic.Hi},
		{Kind: FactRange, PC: 2, Bits: []int{0, 1}, Min: 1, Max: 2},
		{Kind: FactRel, AnyPC: true, A: 0, B: 1, Eq: false},
	}); err != nil {
		t.Fatalf("valid constraints rejected: %v", err)
	}
}

func TestManagersAreConcurrencySafe(t *testing.T) {
	cons := mustConstrained(t, 16, []Constraint{{AnyPC: true, Bit: 15, Val: logic.Lo}})
	for _, m := range []Manager{NewMergeAll(), NewClustered(3), NewExact(100), cons} {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < 200; i++ {
					v := logic.NewVec(16)
					for b := 0; b < 16; b++ {
						v.Set(b, []logic.Value{logic.Lo, logic.Hi, logic.X}[r.Intn(3)])
					}
					m.Observe(vvp.State{PC: uint64(r.Intn(4)), Bits: v, PCKnown: true})
				}
			}(int64(w))
		}
		wg.Wait()
		if m.States() == 0 {
			t.Errorf("%s: no states after concurrent observes", m.Name())
		}
	}
}
