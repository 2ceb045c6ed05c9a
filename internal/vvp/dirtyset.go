package vvp

import (
	"fmt"
	"math/bits"

	"symsim/internal/netlist"
)

// dirtySet is the Active region's schedule: which gates and memories await
// evaluation, and at which topological levels. The kernel and the batch
// engine embed one each, by value, and schedule through nothing else; only
// the loop over the claimed words — what a gate evaluation is — is theirs.
// The interpreter keeps its own per-level gate buckets (it is the reference
// the differential suite compares against) and takes the memories, dirtyLo
// and dirtyN from here.
//
// Gates are one bit each in dirtyW, in the level-major numbering of
// netlist.Program: a level is a contiguous bit range, so claiming a round is
// a few word operations per 64 gates and walking the claimed words by
// trailing zeros visits the gates in ascending ID, the order the
// interpreter's sorted rounds take. A gate marked while its level's round is
// running lands in the live word, not the claimed copy, and waits for the
// next round — exactly like the interpreter's emptied bucket. Memories are
// few and are bucketed per level.
type dirtySet struct {
	dirtyW   []uint64 // bit g set: kernel gate g is dirty
	lvlW     []uint64 // bit l set: level l may hold dirty gates or memories (the interpreter walks by dirtyLo and never reads it)
	scratchW []uint64 // the words claim took for the running round
	lvlStart []uint32 // Program.LvlStart: level l is bits lvlStart[l] to lvlStart[l+1]
	glv      []int32  // level per kernel gate; nil on the interpreter
	mlv      []int32  // level per memory

	memBuckets [][]netlist.MemID
	memInQ     []bool
	scratchM   []netlist.MemID

	dirtyLo int32 // lowest level marked since nextLevel last returned; levels when none
	dirtyN  int   // dirty gates + memories
	levels  int32 // MaxLevel+1

	sweeps uint64 // rounds that claimed at least one gate
	evals  uint64 // gate evaluations over the owner's life
	deltas int    // gate evaluations of the running settle
}

// newDirtySet returns an empty set for a design of the given level count
// and memory levels. p is the compiled program whose gate numbering the
// bitmap follows, nil for the interpreter, which marks no gate here.
func newDirtySet(levels int32, mlv []int32, p *netlist.Program) dirtySet {
	ds := dirtySet{
		lvlW:       make([]uint64, (int(levels)+63)/64),
		mlv:        mlv,
		memBuckets: make([][]netlist.MemID, levels),
		memInQ:     make([]bool, len(mlv)),
		dirtyLo:    levels,
		levels:     levels,
	}
	if p != nil {
		nw := (len(p.Gates) + 63) / 64
		ds.dirtyW = make([]uint64, nw)
		ds.scratchW = make([]uint64, 0, nw+1)
		ds.lvlStart, ds.glv = p.LvlStart, p.GateLevel
	}
	return ds
}

// markLevel records that level lvl has work.
//
//symsim:hotpath
func (ds *dirtySet) markLevel(lvl int32) {
	ds.lvlW[uint32(lvl)>>6] |= uint64(1) << (uint32(lvl) & 63)
	if lvl < ds.dirtyLo {
		ds.dirtyLo = lvl
	}
}

// markGate marks kernel gate g dirty.
//
//symsim:hotpath
func (ds *dirtySet) markGate(g netlist.GateID) {
	wi, m := uint32(g)>>6, uint64(1)<<(uint32(g)&63)
	if ds.dirtyW[wi]&m == 0 {
		ds.dirtyW[wi] |= m
		ds.markLevel(ds.glv[g])
		ds.dirtyN++
	}
}

// markRuns marks the gates of runs dirty: one OR of the bitmap a run, not
// one test a gate. A run that adds no bit changes nothing: a dirty gate's
// level is already marked, and where that level is not above the running
// round's, whatever dirtied the gate lowered dirtyLo then.
//
//symsim:hotpath
func (ds *dirtySet) markRuns(runs []netlist.FanRun) {
	dirtyW, lvlW := ds.dirtyW, ds.lvlW
	lo, n := ds.dirtyLo, 0
	for i := range runs {
		r := &runs[i]
		fresh := r.Mask &^ dirtyW[r.Word]
		dirtyW[r.Word] |= fresh
		lvlW[uint32(r.Level)>>6] |= uint64(1) << (uint32(r.Level) & 63)
		lo = min(lo, r.Level)
		n += bits.OnesCount64(fresh)
	}
	ds.dirtyLo = lo
	ds.dirtyN += n
}

// markMem marks memory m dirty.
func (ds *dirtySet) markMem(m netlist.MemID) {
	if !ds.memInQ[m] {
		ds.memInQ[m] = true
		lvl := ds.mlv[m]
		//symsim:allow SA001 memory buckets grow to the level's memory count once; append reuses their capacity
		ds.memBuckets[lvl] = append(ds.memBuckets[lvl], m)
		ds.markLevel(lvl)
		ds.dirtyN++
	}
}

// markAll marks every gate of the bitmap and every memory of an empty set:
// the time-zero evaluation.
func (ds *dirtySet) markAll() {
	for i := range ds.dirtyW {
		ds.dirtyW[i] = ^uint64(0)
	}
	if r := uint(len(ds.glv)) & 63; r != 0 {
		ds.dirtyW[len(ds.dirtyW)-1] = uint64(1)<<r - 1
	}
	for lvl := int32(len(ds.lvlStart)) - 2; lvl >= 0; lvl-- {
		if ds.lvlStart[lvl] != ds.lvlStart[lvl+1] {
			ds.markLevel(lvl)
		}
	}
	ds.dirtyN += len(ds.glv)
	for m := range ds.mlv {
		ds.markMem(netlist.MemID(m))
	}
}

// claim takes the dirty gates of level lvl out of the set and returns them
// as the level's words of the bitmap — bit b of sw[i] is kernel gate
// (w0+i)<<6|b — with their number. The words stay valid until the next claim.
//
//symsim:hotpath
func (ds *dirtySet) claim(lvl int32) (sw []uint64, w0 uint32, n int) {
	lo, hi := ds.lvlStart[lvl], ds.lvlStart[lvl+1]
	if lo == hi {
		return nil, 0, 0
	}
	w0 = lo >> 6
	w1 := (hi - 1) >> 6
	sw = ds.scratchW[:0]
	for wi := w0; wi <= w1; wi++ {
		w := ds.dirtyW[wi]
		if wi == w0 {
			w &^= uint64(1)<<(lo&63) - 1
		}
		if wi == w1 && hi&63 != 0 {
			w &= uint64(1)<<(hi&63) - 1
		}
		ds.dirtyW[wi] &^= w
		n += bits.OnesCount64(w)
		//symsim:allow SA001 scratchW is sized for the whole bitmap at construction; append reuses its capacity
		sw = append(sw, w)
	}
	ds.scratchW = sw
	if n > 0 {
		ds.sweeps++
		ds.dirtyN -= n
	}
	return sw, w0, n
}

// takeMems takes the dirty memories of level lvl out of the set and returns
// them in ascending ID, valid until the next call. Evaluating one cannot
// mark another of them again: a memory's read data feeds levels above its
// own.
func (ds *dirtySet) takeMems(lvl int32) []netlist.MemID {
	b := ds.memBuckets[lvl]
	if len(b) == 0 {
		return nil
	}
	//symsim:allow SA001 scratchM grows to the design's memory count once; append reuses its capacity
	ms := append(ds.scratchM[:0], b...)
	ds.scratchM, ds.memBuckets[lvl] = ms, b[:0]
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j] < ms[j-1]; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
	for _, m := range ms {
		ds.memInQ[m] = false
	}
	ds.dirtyN -= len(ms)
	return ms
}

// nextLevel steps a drain: it returns the level of the next round and takes
// its mark, or levels when nothing is dirty. from is the level after the
// round that just ran (0 to start); a mark made at or below that round's
// level since — a flip-flop's asynchronous reset rippling back into its own
// input cone — rewinds the cursor to it.
func (ds *dirtySet) nextLevel(from int32) int32 {
	if ds.dirtyN <= 0 {
		return ds.levels
	}
	lvl := ds.scanLevels(min(from, ds.dirtyLo))
	if lvl >= ds.levels {
		// All remaining work is a rewind below the cursor.
		if lvl = ds.scanLevels(0); lvl >= ds.levels {
			panic("vvp: dirty count out of step with the level marks")
		}
	}
	ds.lvlW[uint32(lvl)>>6] &^= uint64(1) << (uint32(lvl) & 63)
	ds.dirtyLo = ds.levels
	return lvl
}

// scanLevels returns the lowest marked level >= from, or levels.
func (ds *dirtySet) scanLevels(from int32) int32 {
	wi := uint32(from) >> 6
	if int(wi) >= len(ds.lvlW) {
		return ds.levels
	}
	w := ds.lvlW[wi] &^ (uint64(1)<<(uint32(from)&63) - 1)
	for w == 0 {
		wi++
		if int(wi) >= len(ds.lvlW) {
			return ds.levels
		}
		w = ds.lvlW[wi]
	}
	return int32(wi<<6) + int32(bits.TrailingZeros64(w))
}

// maxDeltas bounds the gate evaluations of one settle; a runaway
// oscillation (possible only with a buggy netlist that escaped validation)
// is cut off and reported rather than hanging the analysis.
const maxDeltas = 1 << 26

// countDeltas accounts for a round of n gate evaluations.
func (ds *dirtySet) countDeltas(n int) error {
	ds.deltas += n
	ds.evals += uint64(n)
	if ds.deltas > maxDeltas {
		//symsim:allow SA001 the oscillation error is the abort path, not steady state
		return fmt.Errorf("vvp: delta-cycle limit exceeded (oscillating netlist?)")
	}
	return nil
}

// Sweeps returns the level rounds that evaluated at least one gate through
// the bitmap — on a BatchSim once per pass over all lanes, on the
// interpreter always zero. Exposed for tests and tuning.
func (ds *dirtySet) Sweeps() uint64 { return ds.sweeps }

// Evals returns the cumulative gate evaluations over the owner's lifetime —
// the engine-effort counter behind the symsim_vvp_gate_evals_total metric.
// A BatchSim counts a gate visit once, not once per lane.
func (ds *dirtySet) Evals() uint64 { return ds.evals }
