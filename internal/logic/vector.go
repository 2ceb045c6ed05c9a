package logic

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vec is a fixed-width ternary vector (each bit is Lo, Hi or X) stored as
// two packed bitplanes: known marks determined bits, val holds their level.
// Bit i of the vector lives at word i/64, bit i%64; bit 0 is the least
// significant bit. The representation keeps val bits zero wherever known is
// zero, so two Vecs are bit-identical iff they are semantically equal —
// which makes Equal, Subset and hashing cheap. Vec is the machine-state
// currency of the Conservative State Manager: subset tests and merges over
// thousands of flip-flops reduce to a handful of word operations.
//
// The zero Vec has width 0. Use NewVec or VecFromString to construct one.
type Vec struct {
	width int
	known []uint64 // 1 = bit is a determined 0/1
	val   []uint64 // level of known bits; 0 where !known
}

// NewVec returns an all-X vector of the given width.
func NewVec(width int) Vec {
	if width < 0 {
		panic("logic: negative Vec width")
	}
	// Both planes share one backing array: a vector is one allocation.
	w := (width + 63) / 64
	slab := make([]uint64, 2*w)
	return Vec{width: width, known: slab[:w:w], val: slab[w:]}
}

// NewVecs returns n all-X vectors of the given width laid out in one backing
// array, so a memory's words cost two allocations however many there are.
// The vectors are independent: no operation on one reaches another's words.
func NewVecs(n, width int) []Vec {
	if n < 0 || width < 0 {
		panic("logic: negative Vec count or width")
	}
	w := (width + 63) / 64
	slab := make([]uint64, 2*n*w)
	vs := make([]Vec, n)
	for i := range vs {
		vs[i] = Vec{width: width, known: slab[:w:w], val: slab[w : 2*w : 2*w]}
		slab = slab[2*w:]
	}
	return vs
}

// NewVecUint64 returns a fully-known vector of the given width holding v.
// Bits of v above width are discarded.
func NewVecUint64(width int, v uint64) Vec {
	vec := NewVec(width)
	vec.SetUint64(v)
	return vec
}

// VecFromString parses a vector from its Verilog-style bit string, most
// significant bit first, e.g. "0XX1". Underscores are ignored.
func VecFromString(s string) (Vec, error) {
	s = strings.ReplaceAll(s, "_", "")
	v := NewVec(len(s))
	for i, r := range s {
		bit, err := ValueOf(r)
		if err != nil {
			return Vec{}, fmt.Errorf("logic: bad vector literal %q: %v", s, err)
		}
		if bit == Z {
			bit = X
		}
		v.Set(len(s)-1-i, bit)
	}
	return v, nil
}

// MustVec is VecFromString that panics on malformed input. It is intended
// for tests and compile-time-constant-like literals.
func MustVec(s string) Vec {
	v, err := VecFromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Width returns the number of bits in v.
func (v Vec) Width() int { return v.width }

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	c := NewVec(v.width)
	copy(c.known, v.known)
	copy(c.val, v.val)
	return c
}

func (v Vec) check(i int) {
	if i < 0 || i >= v.width {
		//symsim:allow SA001 panic formatting runs only on out-of-range programmer error, never in steady state
		panic(fmt.Sprintf("logic: Vec bit %d out of range [0,%d)", i, v.width))
	}
}

// checkSpan panics unless [off, off+n) is a span of 1..64 bits inside v.
func (v Vec) checkSpan(off, n int) {
	if n <= 0 || n > 64 {
		panic("logic: Vec word span must be 1..64 bits")
	}
	v.check(off)
	v.check(off + n - 1)
}

// Get returns bit i of v (Lo, Hi or X).
//
//symsim:hotpath
func (v Vec) Get(i int) Value {
	v.check(i)
	w, b := i/64, uint(i%64)
	if v.known[w]>>b&1 == 0 {
		return X
	}
	return Value(v.val[w] >> b & 1)
}

// Set assigns bit i of v. Z is stored as X.
//
//symsim:hotpath
func (v *Vec) Set(i int, bit Value) {
	v.check(i)
	w, b := i/64, uint(i%64)
	mask := uint64(1) << b
	switch in(bit) {
	case Lo:
		v.known[w] |= mask
		v.val[w] &^= mask
	case Hi:
		v.known[w] |= mask
		v.val[w] |= mask
	default:
		v.known[w] &^= mask
		v.val[w] &^= mask
	}
}

// SetUint64 assigns the low 64 bits of v from u and marks them known; bits
// of u above the width are ignored, bits of v above 64 become known zeros.
func (v *Vec) SetUint64(u uint64) {
	for i := 0; i < v.width; i++ {
		v.Set(i, Bool(i < 64 && u>>uint(i)&1 == 1))
	}
}

// IsAllKnown reports whether every bit of v is determined.
func (v Vec) IsAllKnown() bool {
	return v.CountX() == 0
}

// CountX returns the number of unknown bits in v.
func (v Vec) CountX() int {
	n := 0
	for w, k := range v.known {
		width := 64
		if w == len(v.known)-1 && v.width%64 != 0 {
			width = v.width % 64
		}
		n += width - bits.OnesCount64(k&lastWordMask(w, v.width))
	}
	return n
}

func lastWordMask(w, width int) uint64 {
	if (w+1)*64 <= width {
		return ^uint64(0)
	}
	rem := uint(width - w*64)
	return (uint64(1) << rem) - 1
}

// Uint64 returns the value of v as an unsigned integer. ok is false when
// any bit is unknown or the width exceeds 64.
//
//symsim:hotpath
func (v Vec) Uint64() (u uint64, ok bool) {
	if v.width > 64 || !v.IsAllKnown() {
		return 0, false
	}
	if len(v.val) == 0 {
		return 0, true
	}
	return v.val[0] & lastWordMask(0, v.width), true
}

// Equal reports whether v and o have identical width and bit values
// (X compares equal only to X).
func (v Vec) Equal(o Vec) bool {
	if v.width != o.width {
		return false
	}
	for i := range v.known {
		m := lastWordMask(i, v.width)
		if v.known[i]&m != o.known[i]&m || v.val[i]&m != o.val[i]&m {
			return false
		}
	}
	return true
}

// Subset reports whether v is covered by the conservative vector c: every
// bit of c is X or agrees with the corresponding known bit of v. A bit that
// is X in v but known in c is NOT covered (the unknown in v denotes more
// behaviours than c admits). This is the strict-subset test of paper
// Algorithm 1 line 21 (Subset is true also when the vectors are equal;
// callers that need strictness combine it with !Equal).
func (v Vec) Subset(c Vec) bool {
	if v.width != c.width {
		return false
	}
	for i := range v.known {
		m := lastWordMask(i, v.width)
		// Bits where c is known must be known in v and agree.
		ck := c.known[i] & m
		if ck&^v.known[i] != 0 {
			return false
		}
		if (v.val[i]^c.val[i])&ck != 0 {
			return false
		}
	}
	return true
}

// Merge returns the least conservative vector covering both v and o:
// agreeing known bits are kept, all others become X. It panics when widths
// differ. This is the conservative superstate construction of paper
// Algorithm 1 line 22.
func (v Vec) Merge(o Vec) Vec {
	if v.width != o.width {
		panic(fmt.Sprintf("logic: Merge width mismatch %d vs %d", v.width, o.width))
	}
	out := NewVec(v.width)
	for i := range v.known {
		agree := v.known[i] & o.known[i] &^ (v.val[i] ^ o.val[i])
		out.known[i] = agree
		out.val[i] = v.val[i] & agree
	}
	return out
}

// CopyFrom overwrites v with the contents of o in place, without
// allocating. It panics when widths differ. The simulation engine's memory
// write path uses it to keep steady-state stepping allocation-free.
//
//symsim:hotpath
func (v *Vec) CopyFrom(o Vec) {
	if v.width != o.width {
		//symsim:allow SA001 panic formatting runs only on width-mismatch programmer error
		panic(fmt.Sprintf("logic: CopyFrom width mismatch %d vs %d", v.width, o.width))
	}
	copy(v.known, o.known)
	copy(v.val, o.val)
}

// MergeInPlace folds o into v without allocating: v becomes Merge(v, o),
// the least conservative vector covering both. It panics when widths
// differ.
//
//symsim:hotpath
func (v *Vec) MergeInPlace(o Vec) {
	if v.width != o.width {
		//symsim:allow SA001 panic formatting runs only on width-mismatch programmer error
		panic(fmt.Sprintf("logic: MergeInPlace width mismatch %d vs %d", v.width, o.width))
	}
	for i := range v.known {
		agree := v.known[i] & o.known[i] &^ (v.val[i] ^ o.val[i])
		v.known[i] = agree
		v.val[i] &= agree
	}
}

// CopyBitsFrom overwrites n bits of v starting at dstOff with the n bits
// of src starting at srcOff, without allocating. Both planes are moved in
// word-sized chunks, so restoring a few thousand memory bits costs a few
// dozen word operations instead of per-bit Get/Set pairs; once the
// destination is word-aligned, a whole word is one funnel shift of two
// source words. Out-of-range spans panic.
//
//symsim:hotpath
func (v *Vec) CopyBitsFrom(dstOff int, src Vec, srcOff, n int) {
	if n < 0 || dstOff < 0 || srcOff < 0 || dstOff+n > v.width || srcOff+n > src.width {
		//symsim:allow SA001 panic formatting runs only on out-of-range programmer error
		panic(fmt.Sprintf("logic: CopyBitsFrom [%d,%d)<-[%d,%d) out of range (dst %d, src %d bits)", dstOff, dstOff+n, srcOff, srcOff+n, v.width, src.width))
	}
	for n > 0 {
		if dstOff&63 == 0 && n >= 64 {
			dw, sw, sb := dstOff>>6, srcOff>>6, uint(srcOff&63)
			k, x := src.known[sw]>>sb, src.val[sw]>>sb
			if sb != 0 {
				k |= src.known[sw+1] << (64 - sb)
				x |= src.val[sw+1] << (64 - sb)
			}
			v.known[dw], v.val[dw] = k, x
			dstOff, srcOff, n = dstOff+64, srcOff+64, n-64
			continue
		}
		dw, db := dstOff/64, uint(dstOff%64)
		c := 64 - int(db)
		if c > n {
			c = n
		}
		mask := chunkMask(c)
		k := extractBits(src.known, srcOff, c)
		x := extractBits(src.val, srcOff, c)
		v.known[dw] = v.known[dw]&^(mask<<db) | k<<db
		v.val[dw] = v.val[dw]&^(mask<<db) | x<<db
		dstOff += c
		srcOff += c
		n -= c
	}
}

// Word returns the n <= 64 bits of v starting at off as one packed word per
// plane: bit j of known and val is vector bit off+j (val is zero wherever
// known is). With SetWord it lets a caller that holds its own bit-packed
// data — the batch engine's lane planes — exchange whole memory words with
// a Vec without per-bit Get/Set calls. Out-of-range spans panic.
//
//symsim:hotpath
func (v Vec) Word(off, n int) (known, val uint64) {
	v.checkSpan(off, n)
	return extractBits(v.known, off, n), extractBits(v.val, off, n)
}

// SetWord overwrites the n <= 64 bits of v starting at off from packed
// plane words, the inverse of Word. Bits of known and val above n are
// ignored, and val bits outside known are dropped, so v stays canonical.
//
//symsim:hotpath
func (v *Vec) SetWord(off, n int, known, val uint64) {
	v.checkSpan(off, n)
	mask := chunkMask(n)
	known &= mask
	val &= known
	w, b := off/64, uint(off%64)
	v.known[w] = v.known[w]&^(mask<<b) | known<<b
	v.val[w] = v.val[w]&^(mask<<b) | val<<b
	if int(b)+n > 64 {
		r := 64 - b
		v.known[w+1] = v.known[w+1]&^(mask>>r) | known>>r
		v.val[w+1] = v.val[w+1]&^(mask>>r) | val>>r
	}
}

// Planes returns v as one bit of each plane of a Vec word: known is 1 for Lo
// and Hi, val is the level of a known bit (Z reads as X, as in Set).
func (v Value) Planes() (known, val uint64) {
	x := uint64(v) >> 1
	return x ^ 1, uint64(v) & 1 &^ x
}

// PlaneBit is the inverse of Planes on bit j of a plane pair as Word returns
// it: Lo or Hi where known has the bit, X elsewhere.
func PlaneBit(known, val uint64, j int) Value {
	return Value(val>>uint(j)&1 | (^known>>uint(j)&1)<<1)
}

// chunkMask returns a mask of the low c bits, 1 <= c <= 64.
func chunkMask(c int) uint64 {
	if c == 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(c) - 1
}

// extractBits reads c <= 64 bits starting at bit off from a packed plane.
func extractBits(words []uint64, off, c int) uint64 {
	w, b := off/64, uint(off%64)
	u := words[w] >> b
	if int(b)+c > 64 {
		u |= words[w+1] << (64 - b)
	}
	return u & chunkMask(c)
}

// ConstrainTo intersects v with the constraint vector c in place: wherever c
// holds a known bit, v adopts it. Constraint files (paper §3.3, [15]) use
// this to trim over-approximation from merged conservative states.
func (v *Vec) ConstrainTo(c Vec) {
	if v.width != c.width {
		panic(fmt.Sprintf("logic: ConstrainTo width mismatch %d vs %d", v.width, c.width))
	}
	for i := range v.known {
		v.known[i] |= c.known[i]
		v.val[i] = v.val[i]&^c.known[i] | c.val[i]
	}
}

// String returns the Verilog-style bit string of v, MSB first.
func (v Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.width)
	for i := v.width - 1; i >= 0; i-- {
		sb.WriteString(v.Get(i).String())
	}
	return sb.String()
}

// HammingKnown returns the number of bit positions where v and o are both
// known yet disagree, plus the number of positions where exactly one is
// known. It is the distance metric used by the clustered merge policy to
// pick which existing conservative state a new state should join.
func (v Vec) HammingKnown(o Vec) int {
	if v.width != o.width {
		panic(fmt.Sprintf("logic: HammingKnown width mismatch %d vs %d", v.width, o.width))
	}
	d := 0
	for i := range v.known {
		m := lastWordMask(i, v.width)
		both := v.known[i] & o.known[i] & m
		d += bits.OnesCount64((v.val[i] ^ o.val[i]) & both)
		d += bits.OnesCount64((v.known[i] ^ o.known[i]) & m)
	}
	return d
}
