package vvp

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"symsim/internal/netlist"
)

// setModel is dirtySet written the slow way: a map per kind of entry and a
// map of level marks. A mark outlives the work that made it when that work
// is claimed through another route, so the marks are modelled as they are
// kept, not derived from the entries.
type setModel struct {
	p      *netlist.Program
	gates  map[netlist.GateID]bool
	mems   map[netlist.MemID]bool
	marks  map[int32]bool
	lo     int32
	sweeps uint64
}

func newSetModel(p *netlist.Program) *setModel {
	return &setModel{p: p, gates: map[netlist.GateID]bool{}, mems: map[netlist.MemID]bool{},
		marks: map[int32]bool{}, lo: p.MaxLevel + 1}
}

func (m *setModel) mark(lvl int32) {
	m.marks[lvl] = true
	m.lo = min(m.lo, lvl)
}

func (m *setModel) markGate(g netlist.GateID) {
	if !m.gates[g] {
		m.gates[g] = true
		m.mark(m.p.GateLevel[g])
	}
}

func (m *setModel) markRuns(runs []netlist.FanRun) {
	for _, r := range runs {
		for w := r.Mask; w != 0; w &= w - 1 {
			m.gates[netlist.GateID(r.Word<<6|uint32(bits.TrailingZeros64(w)))] = true
		}
		m.mark(r.Level)
	}
}

func (m *setModel) markMem(id netlist.MemID) {
	if !m.mems[id] {
		m.mems[id] = true
		m.mark(m.p.MemLevel[id])
	}
}

// claim returns the dirty gates of lvl, ascending, and forgets them.
func (m *setModel) claim(lvl int32) []netlist.GateID {
	var out []netlist.GateID
	for g := range m.gates {
		if m.p.GateLevel[g] == lvl {
			out = append(out, g)
		}
	}
	slices.Sort(out)
	for _, g := range out {
		delete(m.gates, g)
	}
	if len(out) > 0 {
		m.sweeps++
	}
	return out
}

func (m *setModel) takeMems(lvl int32) []netlist.MemID {
	var out []netlist.MemID
	for id := range m.mems {
		if m.p.MemLevel[id] == lvl {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	for _, id := range out {
		delete(m.mems, id)
	}
	return out
}

// nextLevel is the drain step: the lowest mark at or above the cursor —
// from, or the lowest level marked since the last step if that is lower —
// else the lowest mark of all; ok is false when the count says there is
// work and no mark says where.
func (m *setModel) nextLevel(from int32) (lvl int32, ok bool) {
	levels := m.p.MaxLevel + 1
	if len(m.gates)+len(m.mems) == 0 {
		return levels, true
	}
	cursor, best, wrap := min(from, m.lo), levels, levels
	for l := range m.marks {
		wrap = min(wrap, l)
		if l >= cursor {
			best = min(best, l)
		}
	}
	if best == levels {
		best = wrap
	}
	if best == levels {
		return 0, false
	}
	delete(m.marks, best)
	m.lo = levels
	return best, true
}

// check holds ds to the schedule's half of the contract (checkSet) and
// compares every field of it the model has an opinion on.
func (m *setModel) check(t *testing.T, ctx string, ds *dirtySet) {
	t.Helper()
	checkSet(t, ctx, ds, 0)
	if ds.dirtyN != len(m.gates)+len(m.mems) || ds.dirtyLo != m.lo || ds.sweeps != m.sweeps {
		t.Fatalf("%s: dirtyN %d dirtyLo %d sweeps %d, model %d+%d, %d, %d", ctx,
			ds.dirtyN, ds.dirtyLo, ds.sweeps, len(m.gates), len(m.mems), m.lo, m.sweeps)
	}
	for g := range m.p.Gates {
		if got := ds.dirtyW[g>>6]>>(uint(g)&63)&1 != 0; got != m.gates[netlist.GateID(g)] {
			t.Fatalf("%s: gate %d dirty = %v, model %v", ctx, g, got, !got)
		}
	}
	for id, in := range ds.memInQ {
		if in != m.mems[netlist.MemID(id)] {
			t.Fatalf("%s: memory %d queued = %v, model %v", ctx, id, in, !in)
		}
	}
	for l := int32(0); l < ds.levels; l++ {
		if got := ds.lvlW[l>>6]>>(uint(l)&63)&1 != 0; got != m.marks[l] {
			t.Fatalf("%s: level %d marked = %v, model %v", ctx, l, got, !got)
		}
	}
}

// claimedGates spells out the words dirtySet.claim returned.
func claimedGates(sw []uint64, w0 uint32) []netlist.GateID {
	var out []netlist.GateID
	for i, w := range sw {
		for ; w != 0; w &= w - 1 {
			out = append(out, netlist.GateID((w0+uint32(i))<<6|uint32(bits.TrailingZeros64(w))))
		}
	}
	return out
}

// TestDirtySetAgainstModel drives a dirtySet and the map-based model with
// the same random operations — marks of gates, of fanout runs and of
// memories, whole rounds (next level, claim, take the memories) from
// arbitrary cursors, and drains that mark at and below the running level —
// and compares them after every one. The circuits are the differential
// suite's, memories and wide levels included.
func TestDirtySetAgainstModel(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n, _ := randCircuit(r, 2+r.Intn(3), 2+r.Intn(6), 20+r.Intn(200), true, circuitShape(r.Intn(int(shapeAll)+1)))
		p := n.Program()
		ds := newDirtySet(p.MaxLevel+1, p.MemLevel, p)
		m := newSetModel(p)
		if seed%4 == 0 {
			ds.markAll()
			for g := range p.Gates {
				m.markGate(netlist.GateID(g))
			}
			for id := range p.MemLevel {
				m.markMem(netlist.MemID(id))
			}
			m.check(t, fmt.Sprintf("seed %d markAll", seed), &ds)
		}
		randMark := func() {
			switch r.Intn(4) {
			case 0:
				g := netlist.GateID(r.Intn(len(p.Gates)))
				ds.markGate(g)
				m.markGate(g)
			case 1:
				id := netlist.MemID(r.Intn(len(p.MemLevel)))
				ds.markMem(id)
				m.markMem(id)
			default:
				runs := p.FanRuns(netlist.NetID(r.Intn(len(n.Nets))))
				ds.markRuns(runs)
				m.markRuns(runs)
			}
		}
		// round runs one level round from cursor from and reports the level.
		round := func(ctx string, from int32, during func()) int32 {
			want, ok := m.nextLevel(from)
			if !ok {
				t.Fatalf("%s: the model lost its marks", ctx)
			}
			lvl := ds.nextLevel(from)
			if lvl != want {
				t.Fatalf("%s: nextLevel(%d) = %d, model %d", ctx, from, lvl, want)
			}
			if lvl == ds.levels {
				return lvl
			}
			sw, w0, cnt := ds.claim(lvl)
			if got, want := claimedGates(sw, w0), m.claim(lvl); !slices.Equal(got, want) || cnt != len(want) {
				t.Fatalf("%s: claim(%d) = %v (%d), model %v", ctx, lvl, got, cnt, want)
			}
			if during != nil {
				during()
			}
			if got, want := ds.takeMems(lvl), m.takeMems(lvl); !slices.Equal(got, want) {
				t.Fatalf("%s: takeMems(%d) = %v, model %v", ctx, lvl, got, want)
			}
			m.check(t, ctx, &ds)
			return lvl
		}
		for op := 0; op < 300; op++ {
			ctx := fmt.Sprintf("seed %d op %d", seed, op)
			switch r.Intn(8) {
			case 0:
				// A round from anywhere, past the last mark included: the
				// step then wraps to the lowest one.
				round(ctx, int32(r.Intn(int(ds.levels)+1)), nil)
			case 1:
				// A whole drain, as the engines write it, marking as it goes.
				budget := 50
				for lvl := round(ctx, 0, nil); lvl < ds.levels; lvl = round(ctx, lvl+1, func() {
					if budget > 0 && r.Intn(3) == 0 {
						budget--
						randMark()
					}
				}) {
				}
				if ds.dirtyN != 0 {
					t.Fatalf("%s: drain left %d entries", ctx, ds.dirtyN)
				}
			default:
				randMark()
				m.check(t, ctx, &ds)
			}
		}
	}
}

// TestDirtySetOutOfStepPanics: a drain step with entries counted and no
// level marked is a corrupted set, and says so instead of spinning.
func TestDirtySetOutOfStepPanics(t *testing.T) {
	n, _ := randMemCircuit(rand.New(rand.NewSource(1)), 3, 3, 30, true)
	p := n.Program()
	ds := newDirtySet(p.MaxLevel+1, p.MemLevel, p)
	if lvl := ds.nextLevel(0); lvl != ds.levels {
		t.Fatalf("nextLevel on an empty set = %d, want %d", lvl, ds.levels)
	}
	ds.dirtyN = 1
	defer func() {
		if recover() == nil {
			t.Fatal("nextLevel with a count and no mark returned")
		}
	}()
	ds.nextLevel(0)
}

// checkSameSchedule compares what two dirty sets hold: the count, the
// bitmap word for word, the queued memories. Level marks are left out: a
// stale one depends on the route its entries were claimed by, which the
// scalar kernel (clock-edge fast path, a fresh simulator per restore) and a
// BatchSim lane do not share; checkInvariants holds each set's marks to its
// entries.
func checkSameSchedule(t *testing.T, ctx string, a, b *dirtySet) {
	t.Helper()
	if a.dirtyN != b.dirtyN || !slices.Equal(a.dirtyW, b.dirtyW) || !slices.Equal(a.memInQ, b.memInQ) {
		t.Fatalf("%s: schedules diverged: %d in %x mems %v vs %d in %x mems %v", ctx,
			a.dirtyN, a.dirtyW, a.memInQ, b.dirtyN, b.dirtyW, b.memInQ)
	}
}
