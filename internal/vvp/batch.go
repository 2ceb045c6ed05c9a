// The bit-parallel batched kernel: up to 64 independent scenarios packed
// into two bitplanes per net, swept together in a single pass over the
// level-major netlist.Program.
//
// The data layout is the transpose of the scalar engines': where they hold
// one logic.Value per net, BatchSim holds two lane words per net — valA
// (lane bit set = known 1) and valX (lane bit set = unknown) — so one
// EvalPlanes call evaluates a gate for every lane at once. Everything else
// is deliberately the scalar kernel's machinery with lane masks threaded
// through:
//
//   - The dirty set is lane-agnostic: a gate is dirty when ANY lane changed
//     one of its inputs, and the schedule is the scalar kernel's own type
//     (dirtySet, dirtyset.go) — marking, claiming a level round and stepping
//     the drain are one implementation; batchLevel only walks the claimed
//     words. Lanes that did not change recompute identical planes and the
//     commit's changed mask excludes them, so the extra evaluations are
//     observationally neutral per lane — which is the confluence argument
//     behind per-lane bit-identity with the scalar engines (enforced by the
//     differential suite in batch_test.go).
//   - Flip-flops and memories partition the lanes by edge/reset/enable
//     conditions into disjoint masks and commit plane-wise under each.
//   - Every lane carries its own simulation clock: now, stimulus cursor and
//     cycle count are per-lane, so a StepAll advances each active lane to
//     its own next event time. Lanes join (RestoreLane) and leave
//     (RetireLane) independently — divergence costs one lane, not the
//     whole batch.
//   - Memories are the exception to the plane layout: the read and write
//     ports visit them one lane at a time anyway, so each writable memory is
//     one logic.Vec per lane in the StateSpec segment layout and moves in
//     and out of a State with a single word-chunked copy.
//
// Lane turnover rests on one invariant: every lane, occupied or not, holds
// a settled fixpoint of its own inputs, flip-flop outputs, memory image
// and forces. Lanes outside s.active are masked out of every gate,
// flip-flop, NBA and memory-write commit, so a retired lane stops changing
// at the instant it was last settled, and the constructor settles the
// time-zero evaluation under an all-lanes mask so a never-occupied lane
// starts from one too. RestoreLane therefore commits only what differs
// between the lane's previous occupant and the new state and lets the
// fanout of those changes re-evaluate — the scalar Restore's shape. The
// one thing retirement leaves unsettled is a live force (the forced value
// stays on the net with no force behind it); clearLaneForces remembers
// those nets per lane and the next admission re-dirties them.
//
// Sweeps and Evals count once per pass and per gate visit respectively —
// NOT once per lane — so batch throughput is directly comparable to the
// scalar kernel's per-scenario effort counters.
//
// Limitations (by design, documented in DESIGN.md §13): no Trace, no
// CountActivity/peak tracking, and Z folds to X on every commit — the
// plane encoding has no fourth state, matching the canonicalization every
// scalar gate input applies anyway.
package vvp

import (
	"fmt"
	"math/bits"
	"slices"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

// BatchLanes is the lane capacity of one BatchSim: the scenarios per
// machine word of the plane encoding.
const BatchLanes = 64

// BatchOptions configure a BatchSim.
type BatchOptions struct {
	// Lanes caps the usable lanes, 1..64. Zero means the full 64. The cap
	// bounds admission (RestoreLane rejects lanes at or above it); the
	// plane layout is always 64 wide.
	Lanes int
}

// batchAssign is one queued NBA commit: plane values applied under a lane
// mask (lanes outside the mask are untouched; their plane bits are
// don't-care).
type batchAssign struct {
	net  netlist.NetID
	a, x uint64
	mask uint64
}

// batchForce is one active force: per-lane forced planes, the lanes it
// covers, and each lane's absolute release time.
type batchForce struct {
	net     netlist.NetID
	a, x    uint64
	mask    uint64
	release [BatchLanes]uint64
}

// batchMem is the lane-major state of one memory: images in the StateSpec
// segment layout (word w at bit w*DataBits), plus the per-lane clock sample
// and pre-sized scratch for the read port.
type batchMem struct {
	// init is the power-on image: a ROM's only image, and what a lane
	// that was never admitted reads.
	init logic.Vec
	// lane is a writable memory's private image per lane, allocated at the
	// lane's first admission (zero-width until then).
	lane     [BatchLanes]logic.Vec
	lastClkA uint64
	lastClkX uint64
	rdA, rdX []uint64 // read-port scratch, one lane word per data bit
}

// image returns the memory contents lane l sees.
func (ms *batchMem) image(l int) *logic.Vec {
	if ms.lane[l].Width() != 0 {
		return &ms.lane[l]
	}
	return &ms.init
}

// BatchSim simulates up to 64 independent scenarios of one frozen design in
// lockstep over the compiled Program. It is not safe for concurrent use.
// Lanes are admitted with RestoreLane, advanced together with StepAll, and
// individually retired with RetireLane when they finish or halt.
type BatchSim struct {
	d    *netlist.Netlist
	prog *netlist.Program
	opts BatchOptions

	vals       logic.PVec // per-net lane planes; valA/valX alias its storage
	valA, valX []uint64
	lastClkA   []uint64 // per kernel gate (DFFs only): previous clock planes
	lastClkX   []uint64

	mem    []batchMem
	forces []batchForce
	// unforced lists, per lane, the nets a force was dropped from while
	// still live (retirement, or admission over an occupied lane): their
	// value has nothing behind it until the next admission re-dirties them.
	unforced [BatchLanes][]netlist.NetID
	initErr  error // the constructor's time-zero settle failed

	// Lane-agnostic dirty tracking: the scalar kernel's schedule (see
	// dirtyset.go), its counters once per pass and per gate visit.
	dirtySet

	nba     []batchAssign
	nbaBack []batchAssign

	monitorSpc *MonitorXSpec

	stim       *Stimulus
	now        [BatchLanes]uint64
	stimCursor [BatchLanes]int
	cycles     [BatchLanes]uint64

	active uint64 // occupied lanes
	// quiet is the scalar kernel's flag over the occupied lanes: every net
	// of prog.Resets is at 1 in every lane of active, and commitB then
	// leaves prog.DataRuns unmarked (setQuiet; DESIGN.md §8 "Data pins off
	// the schedule").
	quiet     bool
	recording uint64 // lanes with toggle profiling enabled
	toggledP  []uint64
	laneCap   int
}

// NewBatchSim creates a batched simulator for the frozen design d. Like
// New, it panics when d is not frozen. All lanes start unoccupied, and all
// of them — not just the ones admitted later — are taken through the
// time-zero initial evaluation a fresh scalar simulator runs from all-X
// nets, so every lane starts from a settled fixpoint (see the package
// comment).
func NewBatchSim(d *netlist.Netlist, opts BatchOptions) *BatchSim {
	if opts.Lanes < 0 || opts.Lanes > BatchLanes {
		panic(fmt.Sprintf("vvp: batch lane cap %d out of range [0,%d]", opts.Lanes, BatchLanes))
	}
	cap := opts.Lanes
	if cap == 0 {
		cap = BatchLanes
	}
	prog := d.Program()
	s := &BatchSim{
		d:        d,
		prog:     prog,
		opts:     opts,
		vals:     logic.NewPVec(len(d.Nets)),
		lastClkA: make([]uint64, len(d.Gates)),
		lastClkX: make([]uint64, len(d.Gates)),
		dirtySet: newDirtySet(d.MaxLevel()+1, prog.MemLevel, prog),
		toggledP: make([]uint64, len(d.Nets)),
		laneCap:  cap,
	}
	s.valA, s.valX = s.vals.Planes()
	for i := range s.lastClkX {
		s.lastClkX[i] = ^uint64(0)
	}

	s.mem = make([]batchMem, len(d.Mems))
	for i, m := range d.Mems {
		bm := batchMem{
			init:     logic.NewVec(m.Words * m.DataBits),
			lastClkX: ^uint64(0),
			rdA:      make([]uint64, m.DataBits),
			rdX:      make([]uint64, m.DataBits),
		}
		for w := 0; w < m.Words && w < len(m.Init); w++ {
			if m.Init[w].Width() == m.DataBits {
				bm.init.CopyBitsFrom(w*m.DataBits, m.Init[w], 0, m.DataBits)
			}
		}
		s.mem[i] = bm
	}
	// Time-zero initial evaluation, as on the scalar engines: every gate
	// and memory evaluated once so constant cones settle before any lane's
	// first event — under an all-lanes mask, because an admission only
	// re-evaluates what it changes.
	s.markAll()
	s.setActive(^uint64(0))
	s.initErr = s.settleB()
	s.setActive(0)
	return s
}

// setActive changes the set of occupied lanes, and quiet with it.
func (s *BatchSim) setActive(lanes uint64) {
	s.active = lanes
	s.setQuiet()
}

// setQuiet recomputes quiet, and is the one place that writes it: true
// exactly while every net of prog.Resets is at 1 in every occupied lane.
//
//symsim:hotpath
func (s *BatchSim) setQuiet() {
	s.quiet = true
	for _, r := range s.prog.Resets {
		if s.active&^s.valA[r] != 0 {
			s.quiet = false
			return
		}
	}
}

// Design returns the netlist under simulation.
func (s *BatchSim) Design() *netlist.Netlist { return s.d }

// LaneCap returns the admissible lane count (BatchOptions.Lanes, default 64).
func (s *BatchSim) LaneCap() int { return s.laneCap }

// ActiveLanes returns the mask of occupied lanes.
func (s *BatchSim) ActiveLanes() uint64 { return s.active }

// NowLane returns lane lane's current simulation time.
func (s *BatchSim) NowLane(lane int) uint64 { return s.now[lane] }

// CyclesLane returns the clock posedges lane lane has executed since it was
// admitted.
func (s *BatchSim) CyclesLane(lane int) uint64 { return s.cycles[lane] }

// SetMonitorX installs the $monitor_x specification shared by all lanes.
func (s *BatchSim) SetMonitorX(spec *MonitorXSpec) { s.monitorSpc = spec }

// BindStimulus attaches the testbench stimulus shared by all lanes. Unlike
// the scalar BindStimulus it commits no clock value — lanes join at their
// own restore times and RestoreLane establishes each lane's clock phase.
func (s *BatchSim) BindStimulus(st *Stimulus) { s.stim = st }

// LaneValue returns the current value of a net in one lane (never Z — the
// plane encoding folds it to X).
func (s *BatchSim) LaneValue(id netlist.NetID, lane int) logic.Value {
	m := uint64(1) << uint(lane)
	if s.valA[id]&m != 0 {
		return logic.Hi
	}
	if s.valX[id]&m != 0 {
		return logic.X
	}
	return logic.Lo
}

// LaneNetValues copies every net's value in one lane into dst (allocated
// when nil or mis-sized) and returns it.
func (s *BatchSim) LaneNetValues(lane int, dst []logic.Value) []logic.Value {
	if len(dst) != len(s.valA) {
		dst = make([]logic.Value, len(s.valA))
	}
	m := uint64(1) << uint(lane)
	for i := range dst {
		switch {
		case s.valA[i]&m != 0:
			dst[i] = logic.Hi
		case s.valX[i]&m != 0:
			dst[i] = logic.X
		default:
			dst[i] = logic.Lo
		}
	}
	return dst
}

// StartRecordingLane begins toggle profiling for one lane from its current
// state: the lane's profile starts empty and every subsequent lane change
// marks its net — the per-lane analogue of StartRecording, with the same
// contract for a net that is X and never changes.
func (s *BatchSim) StartRecordingLane(lane int) {
	lm := uint64(1) << uint(lane)
	s.recording |= lm
	for id := range s.toggledP {
		s.toggledP[id] &^= lm
	}
}

// ToggledLane packs lane lane's toggle profile into dst (allocated when nil
// or mis-sized) in Simulator.Toggled's layout, net n being bit n&63 of word
// n>>6, and returns it.
func (s *BatchSim) ToggledLane(lane int, dst []uint64) []uint64 {
	if words := (len(s.toggledP) + 63) / 64; len(dst) != words {
		dst = make([]uint64, words)
	} else {
		clear(dst)
	}
	lm := uint64(1) << uint(lane)
	for i, w := range s.toggledP {
		if w&lm != 0 {
			dst[i>>6] |= 1 << (i & 63)
		}
	}
	return dst
}

// MovedLane returns nil: a lane keeps no moved set, so every net counts as
// moved (see Simulator.Toggled).
func (s *BatchSim) MovedLane(int) []uint64 { return nil }

// forceAt returns the position of net id in the sorted forces slice and
// whether a force on id is there; without one, the position is where it
// would be inserted. A hand-written search, because slices.BinarySearchFunc
// would hand its comparator a copy of each batchForce, release times and
// all.
func (s *BatchSim) forceAt(id netlist.NetID) (int, bool) {
	lo, hi := 0, len(s.forces)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); s.forces[mid].net < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.forces) && s.forces[lo].net == id
}

// ForceLane forces net id to v in one lane until the lane's simulation time
// reaches release — the per-lane Verilog force used when continuing down
// one path of a forked branch.
func (s *BatchSim) ForceLane(id netlist.NetID, v logic.Value, lane int, release uint64) {
	i, ok := s.forceAt(id)
	if !ok {
		s.forces = slices.Insert(s.forces, i, batchForce{net: id})
	}
	f := &s.forces[i]
	lm := uint64(1) << uint(lane)
	f.a &^= lm
	f.x &^= lm
	switch v {
	case logic.Hi:
		f.a |= lm
	case logic.Lo:
	default:
		f.x |= lm
	}
	f.mask |= lm
	f.release[lane] = release
	s.commitB(id, f.a, f.x, lm)
}

// ForcedLanes returns the lanes in which net id currently has a force.
func (s *BatchSim) ForcedLanes(id netlist.NetID) uint64 {
	if i, ok := s.forceAt(id); ok {
		return s.forces[i].mask
	}
	return 0
}

// releaseExpiredB drops force lanes whose release time has passed and
// re-dirties the driver so the natural value reasserts. Lanes still forced
// on the same net are protected by the commit-time override.
func (s *BatchSim) releaseExpiredB() {
	if len(s.forces) == 0 {
		return
	}
	kept := s.forces[:0]
	for i := range s.forces {
		f := &s.forces[i]
		var expired uint64
		for lanes := f.mask; lanes != 0; lanes &= lanes - 1 {
			l := bits.TrailingZeros64(lanes)
			if s.now[l] >= f.release[l] {
				expired |= uint64(1) << uint(l)
			}
		}
		if expired != 0 {
			f.mask &^= expired
			s.redirtyNet(f.net)
		}
		if f.mask != 0 {
			kept = append(kept, *f)
		}
	}
	s.forces = kept
}

// redirtyNet schedules the driver and memory fanout of a net so its natural
// value recomputes (force release, lane admission).
func (s *BatchSim) redirtyNet(id netlist.NetID) {
	if d := s.d.Nets[id].Driver; d != netlist.NoGate {
		s.markGate(s.prog.Renum[d])
	}
	for _, m := range s.prog.MemFanOf(id) {
		s.markMem(m)
	}
}

// clearLaneForces removes one lane from every active force (lane retirement
// and admission). The forced value stays on the net, so the net is
// remembered in s.unforced for the lane's next admission to recompute.
func (s *BatchSim) clearLaneForces(lane int) {
	if len(s.forces) == 0 {
		return
	}
	lm := uint64(1) << uint(lane)
	kept := s.forces[:0]
	for i := range s.forces {
		f := &s.forces[i]
		if f.mask&lm != 0 {
			f.mask &^= lm
			s.unforced[lane] = append(s.unforced[lane], f.net)
		}
		if f.mask != 0 {
			kept = append(kept, *f)
		}
	}
	s.forces = kept
}

// commitB assigns plane values to a net under a lane mask, honouring
// per-lane forces, recording per-lane toggles, and scheduling lane-agnostic
// fanout. Lanes outside mask are untouched.
//
//symsim:hotpath
func (s *BatchSim) commitB(id netlist.NetID, a, x, mask uint64) {
	if len(s.forces) != 0 {
		if i, ok := s.forceAt(id); ok {
			f := &s.forces[i]
			fm := f.mask & mask
			a = a&^fm | f.a&fm
			x = x&^fm | f.x&fm
		}
	}
	oldA, oldX := s.valA[id], s.valX[id]
	changed := mask & ((oldA ^ a) | (oldX ^ x))
	if changed == 0 {
		return
	}
	s.valA[id] = oldA&^changed | a&changed
	s.valX[id] = oldX&^changed | x&changed
	if rec := s.recording & changed; rec != 0 {
		s.toggledP[id] |= rec
	}
	if s.prog.SlowCommit(id) {
		// A reset net, a net on a memory pin, or the domain clock, which
		// is slow for the scalar kernel's clock-edge pass alone.
		s.setQuiet()
		for _, m := range s.prog.MemFanOf(id) {
			s.markMem(m)
		}
	}
	s.markFan(id)
}

// markFan schedules the gates reading net id: FanRuns, and unless quiet the
// flip-flops that read it on D or EN alone.
//
//symsim:hotpath
func (s *BatchSim) markFan(id netlist.NetID) {
	s.markRuns(s.prog.FanRuns(id))
	if !s.quiet {
		s.markRuns(s.prog.DataRuns(id))
	}
}

// commitValueLane commits a scalar value into the lanes of mask.
func (s *BatchSim) commitValueLane(id netlist.NetID, v logic.Value, mask uint64) {
	var a, x uint64
	switch v {
	case logic.Hi:
		a = ^uint64(0)
	case logic.Lo:
	default:
		x = ^uint64(0)
	}
	s.commitB(id, a, x, mask)
}

// evalGateB evaluates one gate for all lanes: flip-flops through the
// lane-partitioned evalDFFB, everything else through one EvalPlanes call.
//
//symsim:hotpath
func (s *BatchSim) evalGateB(g netlist.GateID) {
	d := &s.prog.Gates[g]
	if d.Kind == netlist.KindDFF {
		s.evalDFFB(g, d)
		return
	}
	valA, valX := s.valA, s.valX
	oA, oX := netlist.EvalPlanes(d.Kind,
		valA[d.In[0]], valX[d.In[0]],
		valA[d.In[1]], valX[d.In[1]],
		valA[d.In[2]], valX[d.In[2]])
	// No-change fast path over the active lanes; sound with forces for the
	// same reason as the scalar kernel's.
	out := d.Out
	if ((oA^valA[out])|(oX^valX[out]))&s.active == 0 {
		return
	}
	s.commitB(out, oA, oX, s.active)
}

// evalDFFB is stepDFF with the lanes partitioned into disjoint masks:
// reset-asserted (r0), reset-unknown (rU), and clock-edge lanes split into
// exact posedges (pe) and unknown-edge conservative captures (ue). Each
// partition commits plane-wise under its mask; lanes in none of them are
// untouched, so an evaluation triggered by another lane's activity is a
// per-lane no-op — the property the confluence argument rests on.
//
//symsim:hotpath
func (s *BatchSim) evalDFFB(g netlist.GateID, d *netlist.GateDesc) {
	act := s.active
	valA, valX := s.valA, s.valX
	out := d.Out
	dA, dX := valA[d.In[netlist.DFFPinD]], valX[d.In[netlist.DFFPinD]]
	clkA, clkX := valA[d.In[netlist.DFFPinClk]], valX[d.In[netlist.DFFPinClk]]
	enA, enX := valA[d.In[netlist.DFFPinEn]], valX[d.In[netlist.DFFPinEn]]
	rA, rX := valA[d.In[netlist.DFFPinRstn]], valX[d.In[netlist.DFFPinRstn]]
	var initA, initX uint64
	switch d.Init {
	case logic.Hi:
		initA = ^uint64(0)
	case logic.Lo:
	default:
		initX = ^uint64(0)
	}

	// Asynchronous reset dominates: known-low lanes load Init and sample
	// the clock without edge processing.
	r0 := ^rA & ^rX & act
	if r0 != 0 {
		s.commitB(out, initA, initX, r0)
		s.lastClkA[g] = s.lastClkA[g]&^r0 | clkA&r0
		s.lastClkX[g] = s.lastClkX[g]&^r0 | clkX&r0
	}
	// Unknown reset: the output covers both the reset and held value, then
	// falls through to edge processing.
	if rU := rX & act; rU != 0 {
		qA, qX := valA[out], valX[out]
		mA := qA & initA
		m0 := ^qA & ^qX & ^initA & ^initX
		s.commitB(out, mA, ^(mA | m0), rU)
	}
	edge := act &^ r0
	lastA, lastX := s.lastClkA[g], s.lastClkX[g]
	changed := ((clkA ^ lastA) | (clkX ^ lastX)) & edge
	if changed == 0 {
		return
	}
	pe := changed & ^lastA & ^lastX & clkA // exact Lo -> Hi
	ue := changed & (clkX | lastX)         // either clock sample unknown
	if pe|ue != 0 {
		// Mux(en, q, d) plane-wise, q re-read after the rU merge above.
		qA, qX := valA[out], valX[out]
		en0 := ^enA & ^enX
		mA := qA & dA
		m0 := ^qA & ^qX & ^dA & ^dX
		mX := ^(mA | m0)
		muxA := en0&qA | enA&dA | enX&mA
		muxX := en0&qX | enA&dX | enX&mX
		if pe != 0 {
			//symsim:allow SA001 nba reuses its capacity between cycles after the first
			s.nba = append(s.nba, batchAssign{net: out, a: muxA, x: muxX, mask: pe})
		}
		if ue != 0 {
			// Conservative capture: merge the current output with the
			// sampled value.
			gA := qA & muxA
			g0 := ^qA & ^qX & ^muxA & ^muxX
			//symsim:allow SA001 nba reuses its capacity between cycles after the first
			s.nba = append(s.nba, batchAssign{net: out, a: gA, x: ^(gA | g0), mask: ue})
		}
	}
	s.lastClkA[g] = s.lastClkA[g]&^changed | clkA&changed
	s.lastClkX[g] = s.lastClkX[g]&^changed | clkX&changed
}

// evalMemB evaluates one memory for all lanes: per-lane edge-triggered
// writes, then the read port for every active lane.
func (s *BatchSim) evalMemB(id netlist.MemID) {
	m := s.d.Mems[id]
	ms := &s.mem[id]
	if !m.IsROM() {
		clkA, clkX := s.valA[m.Clk], s.valX[m.Clk]
		changed := ((clkA ^ ms.lastClkA) | (clkX ^ ms.lastClkX)) & s.active
		if changed != 0 {
			if pe := changed & ^ms.lastClkA & ^ms.lastClkX & clkA; pe != 0 {
				s.memWriteB(m, ms, pe)
			}
			ms.lastClkA = ms.lastClkA&^changed | clkA&changed
			ms.lastClkX = ms.lastClkX&^changed | clkX&changed
		}
	}
	s.memReadB(m, ms)
}

// laneBits packs lane l's bit of up to 64 nets into one word per plane: bit
// j of a and x is net nets[j]'s valA and valX bit in the lane.
//
//symsim:hotpath
func (s *BatchSim) laneBits(nets []netlist.NetID, l int) (a, x uint64) {
	valA, valX := s.valA, s.valX
	for j, n := range nets {
		a |= valA[n] >> uint(l) & 1 << uint(j)
		x |= valX[n] >> uint(l) & 1 << uint(j)
	}
	return a, x
}

// memWriteB performs the write port for the posedge lanes pe, one lane at a
// time on the lane's own image: a known-0 enable skips, a known-1 enable
// with a known address writes the word exactly, an unknown enable merges it
// conservatively (agreeing known bits kept, X otherwise), and an unknown
// address merges into every word the address could be, as on the scalar
// engines.
//
//symsim:hotpath
func (s *BatchSim) memWriteB(m *netlist.Mem, ms *batchMem, pe uint64) {
	weA, weX := s.valA[m.WEn], s.valX[m.WEn]
	for lanes := pe & (weA | weX); lanes != 0; lanes &= lanes - 1 {
		l := bits.TrailingZeros64(lanes)
		addr, addrX := s.laneBits(m.WAddr, l)
		// The words the ternary address could name: one, or a scan.
		lo, hi := 0, m.Words
		if addrX == 0 {
			lo, hi = int(addr), min(int(addr)+1, m.Words)
		}
		img := &ms.lane[l]
		exact := addrX == 0 && weX>>uint(l)&1 == 0
		for off := 0; off < m.DataBits; off += 64 {
			c := min(64, m.DataBits-off)
			da, dx := s.laneBits(m.WData[off:off+c], l)
			for w := lo; w < hi; w++ {
				if (uint64(w)^addr)&^addrX != 0 {
					continue // a known address bit differs
				}
				if exact {
					img.SetWord(w*m.DataBits+off, c, ^dx, da)
					continue
				}
				k, v := img.Word(w*m.DataBits+off, c)
				agree := k &^ dx &^ (v ^ da)
				img.SetWord(w*m.DataBits+off, c, agree, v)
			}
		}
	}
}

// memReadB recomputes the asynchronous read port for every active lane:
// known in-range addresses scatter their word from the lane's image into
// the read planes, unknown or out-of-range addresses read X.
//
//symsim:hotpath
func (s *BatchSim) memReadB(m *netlist.Mem, ms *batchMem) {
	for b := range ms.rdA {
		ms.rdA[b] = 0
		ms.rdX[b] = 0
	}
	var unknown uint64
	for _, n := range m.RAddr {
		unknown |= s.valX[n]
	}
	act := s.active
	xl := act & unknown
	for lanes := act &^ unknown; lanes != 0; lanes &= lanes - 1 {
		l := bits.TrailingZeros64(lanes)
		addr, _ := s.laneBits(m.RAddr, l)
		if int(addr) >= m.Words {
			xl |= uint64(1) << uint(l)
			continue
		}
		img := ms.image(l)
		for off := 0; off < m.DataBits; off += 64 {
			c := min(64, m.DataBits-off)
			k, v := img.Word(int(addr)*m.DataBits+off, c)
			x := ^k
			rdA, rdX := ms.rdA[off:off+c], ms.rdX[off:off+c]
			for b := range rdA {
				rdA[b] |= v >> uint(b) & 1 << uint(l)
				rdX[b] |= x >> uint(b) & 1 << uint(l)
			}
		}
	}
	for b, dnet := range m.RData {
		s.commitB(dnet, ms.rdA[b], ms.rdX[b]|xl, act)
	}
}

// batchLevel runs one round of level lvl: kernelLevel's walk of the
// claimed words with evalGateB in place of the scalar evaluation, one sweep
// covering every occupied lane.
//
//symsim:hotpath
func (s *BatchSim) batchLevel(lvl int32) error {
	if sw, w0, n := s.claim(lvl); n > 0 {
		for i, w := range sw {
			base := netlist.GateID((w0 + uint32(i)) << 6)
			for ; w != 0; w &= w - 1 {
				s.evalGateB(base + netlist.GateID(bits.TrailingZeros64(w)))
			}
		}
		if err := s.countDeltas(n); err != nil {
			return err
		}
	}
	for _, m := range s.takeMems(lvl) {
		s.evalMemB(m)
	}
	return nil
}

// settleB drains the Active and NBA regions to a fixpoint — the scalar
// settle without the Inactive region (the batch engine exposes no #0
// scheduling API).
func (s *BatchSim) settleB() error {
	s.deltas = 0
	for {
		for lvl := s.nextLevel(0); lvl < s.levels; lvl = s.nextLevel(lvl + 1) {
			if err := s.batchLevel(lvl); err != nil {
				return err
			}
		}
		if len(s.nba) > 0 {
			batch := s.nba
			s.nba = s.nbaBack[:0]
			s.nbaBack = batch
			for _, a := range batch {
				s.commitB(a.net, a.a, a.x, a.mask)
			}
			continue
		}
		return nil
	}
}

// applyStimulusLane commits the stimulus assignments scheduled at lane
// lane's current time and reports whether this step is its clock posedge.
func (s *BatchSim) applyStimulusLane(lane int) bool {
	lm := uint64(1) << uint(lane)
	st := s.stim
	now := s.now[lane]
	posedge := false
	if st.Clock != netlist.NoNet && st.HalfPeriod > 0 && now > 0 && now%st.HalfPeriod == 0 {
		v := st.clockValueAt(now)
		if v == logic.Hi && s.valA[st.Clock]&lm == 0 {
			posedge = true
		}
		s.commitValueLane(st.Clock, v, lm)
	}
	for s.stimCursor[lane] < len(st.Events) && st.Events[s.stimCursor[lane]].Time <= now {
		e := st.Events[s.stimCursor[lane]]
		s.commitValueLane(e.Net, e.Val, lm)
		s.stimCursor[lane]++
	}
	return posedge
}

// StepAll advances every active lane to its own next scheduled time point,
// settles all lanes in one shared pass, and evaluates the symbolic region
// per lane. It returns the lanes whose design finished and the lanes that
// halted on a symbolic branch (disjoint; finish wins within a lane). Both
// masks report lanes still active — the caller retires them.
func (s *BatchSim) StepAll() (finished, halted uint64, err error) {
	if s.stim == nil {
		return 0, 0, fmt.Errorf("vvp: StepAll without stimulus")
	}
	act := s.active
	if act == 0 {
		return 0, 0, nil
	}
	for lanes := act; lanes != 0; lanes &= lanes - 1 {
		l := bits.TrailingZeros64(lanes)
		t, ok := s.stim.nextTime(s.now[l], s.stimCursor[l])
		if !ok {
			return 0, 0, fmt.Errorf("vvp: stimulus exhausted at t=%d (lane %d)", s.now[l], l)
		}
		s.now[l] = t
	}
	s.releaseExpiredB()
	var posedge uint64
	for lanes := act; lanes != 0; lanes &= lanes - 1 {
		l := bits.TrailingZeros64(lanes)
		if s.applyStimulusLane(l) {
			posedge |= uint64(1) << uint(l)
		}
	}
	if err := s.settleB(); err != nil {
		return 0, 0, err
	}
	for lanes := posedge; lanes != 0; lanes &= lanes - 1 {
		s.cycles[bits.TrailingZeros64(lanes)]++
	}

	if s.monitorSpc == nil {
		return 0, 0, nil
	}
	sp := s.monitorSpc
	if sp.Finish != netlist.NoNet {
		finished = s.valA[sp.Finish] & act
	}
	if sp.BranchActive != netlist.NoNet {
		if ba := s.valA[sp.BranchActive] & act &^ s.ForcedLanes(sp.Cond); ba != 0 {
			var xw uint64
			for _, w := range sp.Watch {
				xw |= s.valX[w]
			}
			xw |= s.valX[sp.Cond]
			halted = ba & xw
		}
	}
	halted &^= finished
	return finished, halted, nil
}

// RestoreLane admits one scenario into lane lane: the per-lane analogue of
// the scalar Restore ($initialize_state), and incremental like it. The lane
// already holds a settled fixpoint — its previous occupant's, or the
// time-zero one (see the package comment) — so the saved state's inputs,
// memories and flip-flop outputs are committed under the lane mask and only
// the fanout of what actually differs re-evaluates. Admission must happen
// between StepAll calls, when the NBA queue is empty.
func (s *BatchSim) RestoreLane(sp *StateSpec, st State, lane int) error {
	if s.stim == nil {
		return fmt.Errorf("vvp: RestoreLane without stimulus")
	}
	if lane < 0 || lane >= s.laneCap {
		return fmt.Errorf("vvp: lane %d out of range [0,%d)", lane, s.laneCap)
	}
	if s.initErr != nil {
		return s.initErr
	}
	lm := uint64(1) << uint(lane)
	s.setActive(s.active | lm)
	s.recording &^= lm
	s.now[lane] = st.Time
	s.cycles[lane] = 0
	s.clearLaneForces(lane)
	for i := range s.nba {
		s.nba[i].mask &^= lm
	}
	// Nets that lost a live force hold a value nothing drives: recompute
	// them, and re-evaluate their readers in case the lane left before the
	// forced value ever propagated.
	for _, id := range s.unforced[lane] {
		s.redirtyNet(id)
		s.markFan(id)
	}
	s.unforced[lane] = s.unforced[lane][:0]

	// Primary inputs: clock phase from the stimulus, everything else its
	// latest scheduled value at or before the state's time.
	for _, in := range s.d.Inputs {
		if in == s.stim.Clock {
			s.commitValueLane(in, s.stim.clockValueAt(st.Time), lm)
			continue
		}
		v, _ := s.stim.inputValueAt(in, st.Time)
		s.commitValueLane(in, v, lm)
	}
	s.stimCursor[lane] = 0
	for s.stimCursor[lane] < len(s.stim.Events) && s.stim.Events[s.stimCursor[lane]].Time <= st.Time {
		s.stimCursor[lane]++
	}

	// Memories: the lane's images take the saved words in one copy each and
	// the clock is sampled so no spurious write edge fires. Every read port
	// re-evaluates — the image changed under it, and a read-data net that
	// lost a force has no gate driver to recompute it.
	for mi, m := range s.d.Mems {
		if ms := &s.mem[mi]; !m.IsROM() && ms.lane[lane].Width() == 0 {
			ms.lane[lane] = ms.init.Clone()
		}
		s.markMem(netlist.MemID(mi))
	}
	for k, mid := range sp.Mems {
		m := s.d.Mems[mid]
		ms := &s.mem[mid]
		ms.lane[lane].CopyBitsFrom(0, st.Bits, sp.memBase[k], m.Words*m.DataBits)
		ms.lastClkA = ms.lastClkA&^lm | s.valA[m.Clk]&lm
		ms.lastClkX = ms.lastClkX&^lm | s.valX[m.Clk]&lm
	}

	s.assertLaneState(sp, st, lane)
	if err := s.settleB(); err != nil {
		return err
	}
	// Re-assert: combinational settling may have rippled through DFF
	// evaluation for this lane, but Q values are state and must equal the
	// snapshot exactly — the scalar Restore's second pass, lane-masked.
	s.assertLaneState(sp, st, lane)
	return s.settleB()
}

// assertLaneState commits the saved flip-flop outputs into one lane and
// samples each flip-flop's clock so no spurious edge fires on the next
// settle.
//
//symsim:hotpath
func (s *BatchSim) assertLaneState(sp *StateSpec, st State, lane int) {
	lm := uint64(1) << uint(lane)
	for i := 0; i < len(sp.DFFs); i += 64 {
		dffs := sp.DFFs[i:min(i+64, len(sp.DFFs))]
		known, val := st.Bits.Word(i, len(dffs))
		for j, g := range dffs {
			k := s.prog.Renum[g]
			d := &s.prog.Gates[k]
			clkNet := d.In[netlist.DFFPinClk]
			s.lastClkA[k] = s.lastClkA[k]&^lm | s.valA[clkNet]&lm
			s.lastClkX[k] = s.lastClkX[k]&^lm | s.valX[clkNet]&lm
			// The lane's bit of each plane, spread over the word for
			// commitB; the lane has no force left to override it, so an
			// output already at its saved value needs no commit.
			a, x := -(val >> uint(j) & 1), ^-(known >> uint(j) & 1)
			if ((s.valA[d.Out]^a)|(s.valX[d.Out]^x))&lm != 0 {
				s.commitB(d.Out, a, x, lm)
			}
		}
	}
}

// SnapshotLane captures lane lane's machine state per spec — the per-lane
// Snapshot used when a lane halts on a symbolic branch — into dst's storage
// when it has the spec's width (see Simulator.SnapshotInto).
func (s *BatchSim) SnapshotLane(sp *StateSpec, lane int, dst State) State {
	v := sp.bitsFor(dst)
	var outs [64]netlist.NetID
	for i := 0; i < len(sp.DFFs); i += 64 {
		dffs := sp.DFFs[i:min(i+64, len(sp.DFFs))]
		for j, g := range dffs {
			outs[j] = s.d.Gates[g].Out
		}
		a, x := s.laneBits(outs[:len(dffs)], lane)
		v.SetWord(i, len(dffs), ^x, a)
	}
	for k, mid := range sp.Mems {
		m := s.d.Mems[mid]
		v.CopyBitsFrom(sp.memBase[k], *s.mem[mid].image(lane), 0, m.Words*m.DataBits)
	}
	st := State{Bits: v, Time: s.now[lane]}
	if len(sp.PC) <= 64 {
		if pc, x := s.laneBits(sp.PC, lane); x == 0 {
			st.PC, st.PCKnown = pc, true
		}
	}
	return st
}

// RetireLane frees one lane: it leaves the shared schedule, its forces are
// dropped and its toggle recording stops. Retired lanes are masked out of
// every commit, so the lane's plane bits and memory image stay exactly the
// fixpoint it last settled to — which is what lets the next RestoreLane
// into the slot pay only for what differs. This is the compaction step of
// the core's explorer: freed slots are simply reused.
func (s *BatchSim) RetireLane(lane int) {
	lm := uint64(1) << uint(lane)
	s.setActive(s.active &^ lm)
	s.recording &^= lm
	s.clearLaneForces(lane)
	for i := range s.nba {
		s.nba[i].mask &^= lm
	}
}
