package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecBasics(t *testing.T) {
	v := NewVec(70)
	if v.Width() != 70 {
		t.Fatalf("Width = %d, want 70", v.Width())
	}
	for i := 0; i < 70; i++ {
		if v.Get(i) != X {
			t.Fatalf("new Vec bit %d = %v, want X", i, v.Get(i))
		}
	}
	v.Set(0, Hi)
	v.Set(69, Lo)
	v.Set(33, Hi)
	if v.Get(0) != Hi || v.Get(69) != Lo || v.Get(33) != Hi || v.Get(1) != X {
		t.Fatalf("Set/Get mismatch: %s", v)
	}
	v.Set(33, X)
	if v.Get(33) != X {
		t.Fatal("Set back to X failed")
	}
	if v.CountX() != 68 {
		t.Fatalf("CountX = %d, want 68", v.CountX())
	}
}

func TestVecZStoredAsX(t *testing.T) {
	v := NewVec(2)
	v.Set(0, Z)
	if v.Get(0) != X {
		t.Errorf("Z stored as %v, want X", v.Get(0))
	}
}

func TestVecFromString(t *testing.T) {
	v := MustVec("10x1_0")
	if v.Width() != 5 {
		t.Fatalf("width = %d", v.Width())
	}
	// MSB first: bit4=1 bit3=0 bit2=x bit1=1 bit0=0
	want := []Value{Lo, Hi, X, Lo, Hi}
	for i, w := range want {
		if v.Get(i) != w {
			t.Errorf("bit %d = %v, want %v", i, v.Get(i), w)
		}
	}
	if v.String() != "10x10" {
		t.Errorf("String = %q", v.String())
	}
	if _, err := VecFromString("01q"); err == nil {
		t.Error("VecFromString accepted bad rune")
	}
}

func TestVecUint64(t *testing.T) {
	v := NewVecUint64(16, 0xBEEF)
	u, ok := v.Uint64()
	if !ok || u != 0xBEEF {
		t.Fatalf("Uint64 = %#x, %v", u, ok)
	}
	v.Set(3, X)
	if _, ok := v.Uint64(); ok {
		t.Error("Uint64 succeeded with X bit")
	}
	wide := NewVec(65)
	wide.SetUint64(1)
	if _, ok := wide.Uint64(); ok {
		t.Error("Uint64 succeeded with width > 64")
	}
}

func TestVecSetUint64TruncatesHighBits(t *testing.T) {
	v := NewVecUint64(4, 0xFF)
	u, ok := v.Uint64()
	if !ok || u != 0xF {
		t.Fatalf("got %#x, %v; want 0xF", u, ok)
	}
}

func TestVecSubset(t *testing.T) {
	cases := []struct {
		e, c string
		want bool
	}{
		{"00", "00", true}, // equal
		{"00", "0x", true}, // covered
		{"01", "0x", true},
		{"0x", "0x", true},
		{"0x", "xx", true},
		{"0x", "00", false}, // X in e not covered by known c
		{"11", "0x", false}, // disagreement
		{"xx", "x0", false},
		{"10", "xx", true},
	}
	for _, c := range cases {
		e, cs := MustVec(c.e), MustVec(c.c)
		if got := e.Subset(cs); got != c.want {
			t.Errorf("%q.Subset(%q) = %v, want %v", c.e, c.c, got, c.want)
		}
	}
	if MustVec("01").Subset(MustVec("011")) {
		t.Error("Subset across widths should be false")
	}
}

func TestVecMerge(t *testing.T) {
	a, b := MustVec("0101"), MustVec("0011")
	m := a.Merge(b)
	if m.String() != "0xx1" {
		t.Fatalf("Merge = %s, want 0xx1", m)
	}
	// Merge with X operands.
	m2 := MustVec("0x1").Merge(MustVec("001"))
	if m2.String() != "0x1" {
		t.Fatalf("Merge = %s, want 0x1", m2)
	}
}

func TestVecMergePanicsOnWidthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Merge width mismatch did not panic")
		}
	}()
	MustVec("01").Merge(MustVec("011"))
}

func TestVecConstrainTo(t *testing.T) {
	v := MustVec("xxx")
	v.ConstrainTo(MustVec("x10"))
	if v.String() != "x10" {
		t.Fatalf("ConstrainTo = %s", v)
	}
	// Constraint overrides disagreeing known bits too (it is a designer
	// assertion).
	w := MustVec("111")
	w.ConstrainTo(MustVec("0xx"))
	if w.String() != "011" {
		t.Fatalf("ConstrainTo override = %s", w)
	}
}

func TestVecEqualRepresentationCanonical(t *testing.T) {
	// Setting a bit to Hi then X must compare equal to a never-set bit.
	a := NewVec(3)
	b := NewVec(3)
	a.Set(1, Hi)
	a.Set(1, X)
	if !a.Equal(b) {
		t.Error("canonical representation violated: X-after-Hi != fresh X")
	}
}

func randomVec(r *rand.Rand, width int) Vec {
	v := NewVec(width)
	for i := 0; i < width; i++ {
		v.Set(i, []Value{Lo, Hi, X}[r.Intn(3)])
	}
	return v
}

// Property: e.Subset(e.Merge(o)) and o.Subset(e.Merge(o)) for all e, o —
// the merge really is a covering superstate (paper Algorithm 1 line 22).
func TestMergeCoversProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		w := 1 + r.Intn(130)
		e, o := randomVec(r, w), randomVec(r, w)
		m := e.Merge(o)
		if !e.Subset(m) || !o.Subset(m) {
			t.Fatalf("merge does not cover: e=%s o=%s m=%s", e, o, m)
		}
		// Minimality: every bit where e and o agree stays known.
		for b := 0; b < w; b++ {
			if e.Get(b) == o.Get(b) && e.Get(b).IsKnown() && m.Get(b) != e.Get(b) {
				t.Fatalf("merge lost agreeing bit %d: e=%s o=%s m=%s", b, e, o, m)
			}
		}
	}
}

// Property: Subset is reflexive and transitive.
func TestSubsetPreorderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		w := 1 + r.Intn(70)
		a := randomVec(r, w)
		if !a.Subset(a) {
			t.Fatalf("Subset not reflexive for %s", a)
		}
		b := randomVec(r, w)
		c := a.Merge(b)
		d := c.Merge(randomVec(r, w))
		if a.Subset(c) && c.Subset(d) && !a.Subset(d) {
			t.Fatalf("Subset not transitive: %s ⊆ %s ⊆ %s", a, c, d)
		}
	}
}

// Property: round-trip through String.
func TestVecStringRoundTripProperty(t *testing.T) {
	f := func(bits []byte) bool {
		if len(bits) == 0 || len(bits) > 200 {
			return true
		}
		v := NewVec(len(bits))
		for i, b := range bits {
			v.Set(i, []Value{Lo, Hi, X}[int(b)%3])
		}
		rt, err := VecFromString(v.String())
		return err == nil && rt.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHammingKnown(t *testing.T) {
	a, b := MustVec("01x1"), MustVec("0x01")
	// bit0: 1 vs 1 agree (0); bit1: x vs 0 (one known: +1); bit2: 1 vs x (+1);
	// bit3: 0 vs 0 agree.
	if d := a.HammingKnown(b); d != 2 {
		t.Fatalf("HammingKnown = %d, want 2", d)
	}
	c, d := MustVec("00"), MustVec("11")
	if got := c.HammingKnown(d); got != 2 {
		t.Fatalf("HammingKnown disagree = %d, want 2", got)
	}
}

func TestVecClone(t *testing.T) {
	a := MustVec("01x")
	b := a.Clone()
	b.Set(0, Hi)
	if a.Get(0) != X {
		t.Error("Clone shares storage")
	}
	_ = b
	if a.String() != "01x" {
		t.Errorf("original mutated: %s", a)
	}
}

func TestVecGetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Get out of range did not panic")
		}
	}()
	MustVec("01").Get(2)
}

// TestVecInPlaceOps checks the allocation-free CopyFrom/MergeInPlace
// against their allocating counterparts on random vectors.
func TestVecInPlaceOps(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	randVec := func(w int) Vec {
		v := NewVec(w)
		for i := 0; i < w; i++ {
			v.Set(i, []Value{Lo, Hi, X}[r.Intn(3)])
		}
		return v
	}
	for trial := 0; trial < 200; trial++ {
		w := 1 + r.Intn(130)
		a, b := randVec(w), randVec(w)
		want := a.Merge(b)
		got := a.Clone()
		got.MergeInPlace(b)
		if !got.Equal(want) {
			t.Fatalf("MergeInPlace(%s, %s) = %s, want %s", a, b, got, want)
		}
		cp := randVec(w)
		cp.CopyFrom(a)
		if !cp.Equal(a) {
			t.Fatalf("CopyFrom: %s != %s", cp, a)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MergeInPlace width mismatch did not panic")
		}
	}()
	a := MustVec("01")
	a.MergeInPlace(MustVec("011"))
}

// TestVecCopyBitsFrom cross-checks the word-chunk bitplane copy against a
// per-bit Get/Set reference on random vectors, widths and (misaligned)
// offsets, and verifies the out-of-range panic.
func TestVecCopyBitsFrom(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	randVec := func(w int) Vec {
		v := NewVec(w)
		for i := 0; i < w; i++ {
			v.Set(i, []Value{Lo, Hi, X}[r.Intn(3)])
		}
		return v
	}
	for trial := 0; trial < 700; trial++ {
		dw := 1 + r.Intn(200)
		sw := 1 + r.Intn(200)
		dst, src := randVec(dw), randVec(sw)
		n := r.Intn(min(dw, sw) + 1)
		dOff := r.Intn(dw - n + 1)
		sOff := r.Intn(sw - n + 1)
		if trial >= 500 {
			// Whole words from every source bit offset, as Restore copies
			// a RAM image out of a state.
			dst, src = randVec(200), randVec(270)
			n, dOff, sOff = 64*(1+r.Intn(3)), 0, r.Intn(64)
		}

		want := dst.Clone()
		for i := 0; i < n; i++ {
			want.Set(dOff+i, src.Get(sOff+i))
		}
		got := dst.Clone()
		got.CopyBitsFrom(dOff, src, sOff, n)
		if !got.Equal(want) {
			t.Fatalf("CopyBitsFrom(%d, src, %d, %d) on %s <- %s:\n got %s\nwant %s",
				dOff, sOff, n, dst, src, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range CopyBitsFrom did not panic")
		}
	}()
	v := NewVec(8)
	v.CopyBitsFrom(4, NewVec(8), 0, 5)
}

// TestPlanesAgreeWithSetAndGet: a value packed with Planes and written with
// SetWord is what Set would have stored (Z as X), and PlaneBit reads it back
// from the planes as Get does from the vector.
func TestPlanesAgreeWithSetAndGet(t *testing.T) {
	for _, j := range []int{0, 1, 31, 63} {
		for _, bit := range []Value{Lo, Hi, X, Z} {
			got, want := NewVec(64), NewVec(64)
			k, l := bit.Planes()
			got.SetWord(0, 64, k<<uint(j), l<<uint(j))
			want.Set(j, bit)
			if !got.Equal(want) {
				t.Errorf("%v at bit %d: Planes stored %s, Set stores %s", bit, j, got, want)
			}
			known, val := want.Word(0, 64)
			if b := PlaneBit(known, val, j); b != want.Get(j) {
				t.Errorf("%v at bit %d: PlaneBit reads %v, Get reads %v", bit, j, b, want.Get(j))
			}
		}
	}
}

// TestVecWordRoundTrip cross-checks Word and SetWord against per-bit
// Get/Set on random vectors and (word-straddling) spans: Word packs the
// span as known/val words, SetWord writes one back without touching its
// neighbours and keeps the vector canonical whatever val bits it is handed.
func TestVecWordRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 500; trial++ {
		w := 1 + r.Intn(200)
		v := NewVec(w)
		for i := 0; i < w; i++ {
			v.Set(i, []Value{Lo, Hi, X}[r.Intn(3)])
		}
		n := 1 + r.Intn(min(w, 64))
		off := r.Intn(w - n + 1)

		known, val := v.Word(off, n)
		for j := 0; j < n; j++ {
			want := X
			if known>>uint(j)&1 == 1 {
				want = Value(val >> uint(j) & 1)
			}
			if got := v.Get(off + j); got != want {
				t.Fatalf("Word(%d,%d) bit %d = %v, Get says %v (%s)", off, n, j, want, got, v)
			}
		}
		if n < 64 && (known>>uint(n) != 0 || val>>uint(n) != 0) {
			t.Fatalf("Word(%d,%d) set bits above the span: %#x %#x", off, n, known, val)
		}

		// Random planes, val deliberately not confined to known.
		k, x := r.Uint64(), r.Uint64()
		want := v.Clone()
		for j := 0; j < n; j++ {
			bit := X
			if k>>uint(j)&1 == 1 {
				bit = Value(x >> uint(j) & 1)
			}
			want.Set(off+j, bit)
		}
		got := v.Clone()
		got.SetWord(off, n, k, x)
		if !got.Equal(want) {
			t.Fatalf("SetWord(%d,%d,%#x,%#x) on %s:\n got %s\nwant %s", off, n, k, x, v, got, want)
		}
		for i := range got.val {
			if got.val[i]&^got.known[i] != 0 {
				t.Fatalf("SetWord(%d,%d) left val bits outside known in word %d", off, n, i)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Word did not panic")
		}
	}()
	NewVec(8).Word(4, 5)
}
