package vvp

import (
	"encoding/binary"
	"math/bits"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

// Replay of a widened segment (DESIGN.md §8 "Replay of a widened segment").
// Under merge-all a branch PC is explored again and again from start states
// that each widen the last by a few X bits, and each run retraces the one
// before it except where the new X bits reach. A Replay drives one kernel
// simulator through path segments, records each segment's trajectory — per
// time step, the nets it changed and their new values — in a ReplayLog, and
// lets a later segment whose start state covers a logged one follow that
// log: a step both runs take on the quiet path writes the logged values of
// the nets that did not differ and evaluates only the flip-flops, memory
// ports and gates with an input that did. Values, memories and the status
// are exact at every step boundary, so anything that reads the simulator
// between steps — the halt check, SnapshotInto, Values — sees what a full
// run would show; a step off the quiet path is a full Step.

// ReplayLog is the recorded trajectory of one segment: its start state and
// branch force, then per time step the nets the step changed with their
// values at the step's end (see writeLogged for the layout).
type ReplayLog struct {
	start logic.Vec
	time  uint64
	// force is the net the segment forced after its restore, NoNet for
	// none; forceVal its value and forceRel its release, relative to time.
	force    netlist.NetID
	forceVal logic.Value
	forceRel uint64
	steps    int
	off      []uint32 // step k's records are data[off[k]:off[k+1]]
	data     []byte
	// est holds per step the gate evaluations a full run of the step made:
	// the step's own when the segment ran it in full, the followed log's
	// when it replayed the step.
	est []uint32
	// quiet has bit k set when step k took the quiet path (quietNext).
	quiet []uint64
	// ok is set once the log holds a recording a segment may follow.
	ok bool
}

// Bytes returns the storage the log holds, in bytes.
func (l *ReplayLog) Bytes() int {
	return (l.start.Width()+63)/64*16 + cap(l.data) + 4*cap(l.off) + 4*cap(l.est) + 8*cap(l.quiet)
}

// reset empties l for a recording that starts from st.
func (l *ReplayLog) reset(st State) {
	if l.start.Width() != st.Bits.Width() {
		l.start = logic.NewVec(st.Bits.Width())
	}
	l.start.CopyFrom(st.Bits)
	l.time = st.Time
	l.force = netlist.NoNet
	l.steps, l.ok = 0, false
	l.off = append(l.off[:0], 0)
	l.data, l.est, l.quiet = l.data[:0], l.est[:0], l.quiet[:0]
}

// quietAt reports whether the logged run took step k on the quiet path.
func (l *ReplayLog) quietAt(k int) bool { return l.quiet[k>>6]>>(k&63)&1 != 0 }

// Replay drives one kernel simulator through path segments, recording each
// and following an earlier recording where it can (see ReplayLog). Like the
// simulator it is not safe for concurrent use.
type Replay struct {
	s *Simulator
	// on is set when s's design has a clock-domain table; without one a
	// Replay records nothing and replays nothing.
	on bool
	// ref holds every net's value in the followed run at the current step
	// boundary; inD marks, one bit per net, the nets whose value in the
	// simulator differs from ref, and d lists them (dn is the next step's
	// list under construction).
	ref   []logic.Value
	inD   []uint64
	d, dn []netlist.NetID
	// step marks the nets the running step committed — the simulator's
	// toggle profile while the step runs — and wrote those a replayed step
	// wrote from its log; both are ORed into the real profile after it.
	step, wrote []uint64
	caps        []nbaAssign
	// log is the recording being followed, nil when none; out the one being
	// written, nil when the segment records nothing. k counts the
	// segment's steps.
	log, out *ReplayLog
	k        int
	// forced is set once the segment has applied its branch force.
	forced bool
	// maxD bounds d: past it the runs have parted too far to be worth
	// following, and the segment goes on in full.
	maxD int
	// replayed counts the steps taken on the replay path over the
	// Replay's life.
	replayed uint64
}

// NewReplay returns a Replay driving s, which must be a kernel simulator.
// A design without a clock-domain table records nothing and replays
// nothing: every step is s.Step.
func NewReplay(s *Simulator) *Replay {
	r := new(Replay)
	r.Reset(s)
	return r
}

// Reset points r at s, reusing r's storage, with no segment running. A nil
// s leaves r driving nothing, holding on to none of the last simulator.
func (r *Replay) Reset(s *Simulator) {
	r.dropD()
	r.s, r.log, r.out, r.k = s, nil, nil, 0
	r.on = s != nil && s.prog != nil && s.prog.Clock != nil
	if !r.on {
		return
	}
	words := len(s.toggled)
	r.ref = resize(r.ref, len(s.val))
	r.inD = resize(r.inD, words)
	r.step = resize(r.step, words)
	r.wrote = resize(r.wrote, words)
	clear(r.inD)
	clear(r.step)
	clear(r.wrote)
	r.maxD = max(64, len(s.val)/16)
}

// resize returns b with length n, reusing its storage when it is large
// enough.
func resize[T any](b []T, n int) []T {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]T, n)
}

// Replayed returns the steps r has taken on the replay path.
func (r *Replay) Replayed() uint64 { return r.replayed }

// Restore is Simulator.Restore for a segment whose trajectory is recorded
// into out (nil: none) and which follows ref (nil: none) when it can: ref is
// a complete recording, st covers its start state, the two start at one
// clock phase with no stimulus event left, and no force outlives the last
// segment. Following starts from ref's own start: the simulator restores it,
// takes its values as the reference, and restores st on top, which commits
// only what differs — the first difference set.
func (r *Replay) Restore(sp *StateSpec, st State, ref, out *ReplayLog) error {
	s := r.s
	r.dropD()
	r.log, r.out, r.k, r.forced = nil, nil, 0, false
	if out != nil {
		out.reset(st)
	}
	if !r.on {
		return s.Restore(sp, st)
	}
	r.out = out
	if ref == nil || !r.canFollow(st, ref) {
		return s.Restore(sp, st)
	}
	if err := s.Restore(sp, State{Bits: ref.start, Time: ref.time}); err != nil {
		return err
	}
	copy(r.ref, s.val)
	toggled, moved := s.toggled, s.moved
	s.toggled, s.moved = r.step, r.step
	err := s.Restore(sp, st)
	s.toggled, s.moved = toggled, moved
	into := moved
	if s.recording {
		into = toggled
	}
	r.dn = r.dn[:0]
	for i, w := range r.step {
		if w == 0 {
			continue
		}
		into[i] |= w
		r.step[i] = 0
		for ; w != 0; w &= w - 1 {
			r.addD(netlist.NetID(i<<6 | bits.TrailingZeros64(w)))
		}
	}
	r.d, r.dn = r.dn, r.d
	r.log = ref
	return err
}

// group reads the eight values of v from b as load8 does, the ones past the
// end of v as 0.
func group(v []logic.Value, b int) uint64 {
	if b+8 <= len(v) {
		return load8(v, b)
	}
	var x uint64
	for j := 0; b+j < len(v); j++ {
		x |= uint64(v[b+j]) << (8 * j)
	}
	return x
}

// canFollow reports whether a segment starting from st may follow ref.
func (r *Replay) canFollow(st State, ref *ReplayLog) bool {
	s, stim := r.s, r.s.stim
	if !ref.ok || len(s.forces) != 0 || !ref.start.Subset(st.Bits) {
		return false
	}
	if hp := 2 * stim.HalfPeriod; hp == 0 || st.Time%hp != ref.time%hp {
		return false
	}
	n := len(stim.Events)
	return n == 0 || stim.Events[n-1].Time <= min(st.Time, ref.time)
}

// Force is Simulator.Force for the branch force a segment applies after its
// Restore. Both runs hold the forced value, so it differs in neither; a log
// forced otherwise, or not at all, is not followed, nor is a forced log by a
// segment that forces nothing.
func (r *Replay) Force(id netlist.NetID, v logic.Value, release uint64) {
	s := r.s
	s.Force(id, v, release)
	r.forced = true
	if out := r.out; out != nil {
		out.force, out.forceVal, out.forceRel = id, v, release-s.now
	}
	if l := r.log; l != nil {
		if l.force != id || l.forceVal != v || l.forceRel != release-s.now {
			r.dropD()
			r.log = nil
			return
		}
		r.ref[id] = s.val[id]
	}
}

// Done ends the segment's recording: out is a log later segments may follow
// from here on. A segment that ended in an error leaves its log unusable.
func (r *Replay) Done() {
	if r.out != nil {
		r.out.ok = true
	}
	r.dropD()
	r.log, r.out = nil, nil
}

// Step is Simulator.Step for the running segment. It replays the step when
// the log it follows took the step on the quiet path, the simulator is about
// to, and the readers of the difference set are no more than the gates the
// logged run's full step evaluated; otherwise it runs Simulator.Step. Either
// way it records the step and brings the difference set up to date. A
// replayed step that evaluates more gates than the logged full step did
// ends the following: the two runs have parted too far for it to pay.
func (r *Replay) Step() (Status, error) {
	s := r.s
	if r.out == nil && r.log == nil {
		return s.Step()
	}
	if !s.recording {
		r.log, r.out = nil, nil
		r.dropD()
		return s.Step()
	}
	k := r.k
	r.k++
	if k == 0 && r.log != nil && r.log.force != netlist.NoNet && !r.forced {
		r.dropD()
		r.log = nil
	}
	t, quiet := s.quietNext()
	following := r.log != nil && k < r.log.steps
	replay := following && quiet && r.log.quietAt(k) && r.seedCost(int(r.log.est[k]))
	e0 := s.evals
	toggled := s.toggled
	s.toggled = r.step
	var st Status
	var err error
	if replay {
		st, err = r.replayStep(k, t)
		r.replayed++
	} else {
		st, err = s.Step()
	}
	s.toggled = toggled
	if err != nil {
		clear(r.step)
		clear(r.wrote)
		r.dropD()
		r.log, r.out = nil, nil
		return st, err
	}
	est := uint32(s.evals - e0)
	if replay {
		if est > r.log.est[k] {
			following = false
			r.dropD()
			r.log = nil
		} else {
			est = r.log.est[k]
		}
	}
	r.finish(k, following, replay, quiet, est)
	return st, nil
}

// seedCost reports whether the readers of the difference set, the most a
// replayed step can seed, number no more than est, the gates the logged
// run's full step evaluated: past that the step cannot pay.
func (r *Replay) seedCost(est int) bool {
	p, n := r.s.prog, 0
	for _, id := range r.d {
		for _, run := range p.FanRuns(id) {
			if n += bits.OnesCount64(run.Mask); n > est {
				return false
			}
		}
	}
	return true
}

// quietNext reports whether the next time step, at t, takes the quiet path:
// a clean edge of a clock that reaches no pin but clock pins, at which no
// memory can write, with no force, no stimulus event and nothing pending.
// Such a step commits the clock and, on a rising edge, the captures, and
// then settles one wave in which no net commits twice.
func (s *Simulator) quietNext() (t uint64, ok bool) {
	st, p := s.stim, s.prog
	if p == nil || p.Clock == nil || !p.Clock.ClockPinsOnly || st.HalfPeriod == 0 || p.Clock.Net != st.Clock {
		return 0, false
	}
	if len(s.forces) != 0 || s.dirtyN != 0 || len(s.nba) != 0 || len(s.inactiveQ) != 0 ||
		s.opts.Trace != nil || s.toggleCount != nil || !s.quiet {
		return 0, false
	}
	t, ok = st.nextTime(s.now, s.stimCursor)
	if !ok || t%st.HalfPeriod != 0 || s.stimCursor < len(st.Events) {
		return 0, false
	}
	clk := s.val[st.Clock]
	v := st.clockValueAt(t)
	if !clk.IsKnown() || v == clk {
		return 0, false
	}
	if v == logic.Hi {
		for _, m := range p.MemFanOf(st.Clock) {
			if s.val[s.d.Mems[m].WEn] != logic.Lo {
				return 0, false
			}
		}
	}
	return t, true
}

// replayStep is time step k at t on the replay path (DESIGN.md §8 "Replay
// of a widened segment"): commit the clock as Step would; on a rising edge,
// compute the captures of the flip-flops with a pin in the difference set;
// write the logged values of every net outside the set; commit the
// captures; mark the readers of the set's nets; and settle. A gate outside
// what the marks and the commits reach has every input at the logged run's
// value, so its output is the logged run's too.
func (r *Replay) replayStep(k int, t uint64) (Status, error) {
	s := r.s
	s.now = t
	posedge := s.applyStimulus()
	caps := r.caps[:0]
	if s.edgePending {
		s.edgePending = false
		caps = r.captures(caps)
	}
	r.caps = caps
	changed := r.writeLogged(k)
	for _, c := range caps {
		s.commit(c.net, c.val, RegionNBA)
	}
	if changed || len(caps) != 0 {
		r.seed()
	}
	if err := s.settle(); err != nil {
		return Running, err
	}
	if posedge {
		s.cycles++
	}
	return s.symbolic(), nil
}

// seed marks, among the readers of the difference set, the gates that must
// be evaluated: those with a pin the step has changed so far — the written
// logged values and the captures. A reader with no such pin has every input
// where it was, so its output is too, and the logged run, whose inputs
// there did not move either, left it alone. The memories reading the set
// are queued whole. The clock's change is masked out while the pins are
// read: it reaches no gate but a flip-flop's clock pin, and a descriptor
// pads its unused pins with net 0, which may be the clock.
func (r *Replay) seed() {
	s, step, wrote := r.s, r.step, r.wrote
	p := s.prog
	gates := p.Gates
	clk := p.Clock.Net
	held := step[clk>>6]
	step[clk>>6] &^= 1 << (clk & 63)
	defer func() { step[clk>>6] = held }()
	for _, id := range r.d {
		for _, run := range p.FanRuns(id) {
			base := run.Word << 6
			for m := run.Mask; m != 0; m &= m - 1 {
				g := base + uint32(bits.TrailingZeros64(m))
				d := &gates[g]
				if (step[d.Out>>6]|wrote[d.Out>>6])>>(d.Out&63)&1|
					(step[d.In[0]>>6]|wrote[d.In[0]>>6])>>(d.In[0]&63)&1|
					(step[d.In[1]>>6]|wrote[d.In[1]>>6])>>(d.In[1]&63)&1|
					(step[d.In[2]>>6]|wrote[d.In[2]>>6])>>(d.In[2]&63)&1 != 0 {
					s.markGate(netlist.GateID(g))
				}
			}
		}
		if p.SlowCommit(id) {
			for _, m := range p.MemFanOf(id) {
				s.markMem(m)
			}
		}
	}
}

// captures appends what the rising edge captures into each flip-flop with
// D, EN or Q in the difference set, read before anything of the step is
// written — the values sampleEdge reads. A net of the set is neither the
// clock nor a reset, both primary inputs, so the flip-flops reading it are
// its DataRuns. A flip-flop may appear twice.
func (r *Replay) captures(caps []nbaAssign) []nbaAssign {
	s := r.s
	p, val := s.prog, s.val
	capture := func(g netlist.GateID) {
		d := &p.Gates[g]
		en, q := val[d.In[netlist.DFFPinEn]], val[d.Out]
		if en != logic.Lo || q == logic.Z {
			q = logic.Mux(en, q, val[d.In[netlist.DFFPinD]])
		}
		//symsim:allow SA001 caps grows to the largest capture set once and is reused
		caps = append(caps, nbaAssign{net: d.Out, val: q})
	}
	for _, id := range r.d {
		for _, run := range p.DataRuns(id) {
			for m := run.Mask; m != 0; m &= m - 1 {
				capture(netlist.GateID(run.Word<<6 | uint32(bits.TrailingZeros64(m))))
			}
		}
		if g := s.d.Nets[id].Driver; g != netlist.NoGate && s.d.Gates[g].Kind == netlist.KindDFF {
			capture(p.Renum[g])
		}
	}
	return caps
}

// A logged step is a run of records, one per 64-net word holding a net the
// step changed, ascending: the word's distance from the previous record as
// a uvarint, a byte with bit g set for each group of eight nets, g the
// word's bits 8g to 8g+7, that holds a changed net, and then per such group
// a byte marking its changed nets and the values of all eight of its nets
// at the step's end, two bits each (pack, unpack), little-endian — about a
// byte and a half a changed net on the processors. A group goes into the
// simulator with one 64-bit load and store (load8, store8), which is what
// makes writing a logged step cheaper than evaluating it.

// groups returns the bytes of m that are not zero as an 8-bit mask.
func groups(m uint64) uint64 {
	t := (m&0x7f7f7f7f7f7f7f7f + 0x7f7f7f7f7f7f7f7f | m) & 0x8080808080808080
	return (t >> 7) * 0x0102040810204080 >> 56
}

// pack gathers the low two bits of each byte of x, byte i to bits 2i;
// unpack spreads them back.
func pack(x uint64) uint16 {
	t := x & 0x0303030303030303
	t = (t | t>>6) & 0x000f000f000f000f
	t = (t | t>>12) & 0x000000ff000000ff
	return uint16(t | t>>24)
}

func unpack(p uint16) uint64 {
	t := uint64(p)
	t = (t | t<<24) & 0x000000ff000000ff
	t = (t | t<<12) & 0x000f000f000f000f
	return (t | t<<6) & 0x0303030303030303
}

// load8 reads the eight values at v[i:i+8] as one word, v[i] in its low
// byte; store8 writes them. The compiler makes each one 64-bit access.
func load8(v []logic.Value, i int) uint64 {
	v = v[i : i+8 : i+8]
	return uint64(v[0]) | uint64(v[1])<<8 | uint64(v[2])<<16 | uint64(v[3])<<24 |
		uint64(v[4])<<32 | uint64(v[5])<<40 | uint64(v[6])<<48 | uint64(v[7])<<56
}

func store8(v []logic.Value, i int, x uint64) {
	v = v[i : i+8 : i+8]
	v[0] = logic.Value(x)
	v[1] = logic.Value(x >> 8)
	v[2] = logic.Value(x >> 16)
	v[3] = logic.Value(x >> 24)
	v[4] = logic.Value(x >> 32)
	v[5] = logic.Value(x >> 40)
	v[6] = logic.Value(x >> 48)
	v[7] = logic.Value(x >> 56)
}

// uvarint decodes the uvarint at data[i] (a record's word distance, which
// fits in a few bytes) and returns it with its length.
func uvarint(data []byte, i int) (v, n int) {
	for shift := 0; ; shift += 7 {
		b := data[i+n]
		n++
		v |= int(b&0x7f) << shift
		if b < 0x80 {
			return v, n
		}
	}
}

// zBytes has a byte's low bit set for each byte of x holding Z.
func zBytes(x uint64) uint64 { return x & (x >> 1) & 0x0101010101010101 }

// writeLogged brings ref to the end of logged step k and writes each net the
// step changed that is outside the difference set, as the logged run left
// it, marking the nets whose value moved written and queueing the memories
// that read them. It reports whether any net's value moved. A group with no
// net in the set is written whole: a net of it the step did not change
// holds the logged value already.
//
//symsim:hotpath
func (r *Replay) writeLogged(k int) bool {
	s, l := r.s, r.log
	val, ref, inD, wrote, slow := s.val, r.ref, r.inD, r.wrote, s.prog.SlowBits()
	data, end := l.data, int(l.off[k+1])
	changed := false
	for i, w := int(l.off[k]), 0; i < end; {
		g, n := uvarint(data, i)
		w += g
		gm := uint64(data[i+n])
		i += n + 1
		skip, base := inD[w], w<<6
		var chg, z uint64
		for ; gm != 0; gm &= gm - 1 {
			gi := bits.TrailingZeros64(gm)
			x := unpack(uint16(data[i+1]) | uint16(data[i+2])<<8)
			i += 3
			b := base + gi<<3
			z |= zBytes(x)
			if byte(skip>>(gi<<3)) == 0 && b+8 <= len(val) {
				old := load8(val, b)
				store8(val, b, x)
				store8(ref, b, x)
				chg |= groups(old^x) << (gi << 3)
				continue
			}
			chg |= r.writeGroup(b, x, skip>>(gi<<3))
		}
		if chg == 0 {
			continue
		}
		wrote[w] |= chg
		changed = true
		if z != 0 {
			s.zSeen = true
		}
		if sl := slow[w] & chg; sl != 0 {
			r.writeSlow(base, sl)
		}
	}
	return changed
}

// writeGroup is writeLogged for a group holding a net of the difference set
// or running past the last net, one net at a time: skip has bit i set for
// net b+i in the set. It returns the moved nets as a mask of the group's
// word.
func (r *Replay) writeGroup(b int, x, skip uint64) uint64 {
	val, ref := r.s.val, r.ref
	var chg uint64
	for i := 0; i < 8 && b+i < len(val); i++ {
		v := logic.Value(x >> (8 * i))
		ref[b+i] = v
		if skip>>i&1 == 0 && val[b+i] != v {
			val[b+i] = v
			chg |= 1 << i
		}
	}
	return chg << (b & 63)
}

// writeSlow is what the written nets of word base>>6 in mask need beyond
// their value: the memory read ports of a net on a memory pin, quiet for a
// reset.
func (r *Replay) writeSlow(base int, mask uint64) {
	s := r.s
	for ; mask != 0; mask &= mask - 1 {
		for _, m := range s.prog.MemFanOf(netlist.NetID(base + bits.TrailingZeros64(mask))) {
			s.markMem(m)
		}
	}
	s.setQuiet()
}

// followFull brings ref to the end of logged step k after the simulator ran
// the step in full, and puts every net the logged run changed up for the
// next difference set.
func (r *Replay) followFull(k int) {
	l, ref := r.log, r.ref
	data, end := l.data, int(l.off[k+1])
	for i, w := int(l.off[k]), 0; i < end; {
		g, n := uvarint(data, i)
		w += g
		gm := uint64(data[i+n])
		i += n + 1
		base := w << 6
		for ; gm != 0; gm &= gm - 1 {
			b := base + bits.TrailingZeros64(gm)<<3
			x := unpack(uint16(data[i+1]) | uint16(data[i+2])<<8)
			for c := uint64(data[i]); c != 0; c &= c - 1 {
				j := bits.TrailingZeros64(c)
				ref[b+j] = logic.Value(x >> (8 * j))
				r.addD(netlist.NetID(b + j))
			}
			i += 3
		}
	}
}

// finish closes step k: it folds the nets the step moved into the toggle
// profile and records them, brings ref to the step's end when the step ran
// in full, and rebuilds the difference set from its sources — the old set,
// the nets the step committed, and after a full step the nets the logged
// run changed. A net a replayed step wrote from the log equals ref.
func (r *Replay) finish(k int, following, replayed, quiet bool, est uint32) {
	s, out := r.s, r.out
	val, inD := s.val, r.inD
	for _, id := range r.d {
		inD[id>>6] &^= 1 << (id & 63)
	}
	r.dn = r.dn[:0]
	if following && !replayed {
		r.followFull(k)
	}
	if following {
		for _, id := range r.d {
			r.addD(id)
		}
	}
	prev := 0
	for i, c := range r.step {
		m := c | r.wrote[i]
		if m == 0 {
			continue
		}
		s.toggled[i] |= m
		r.step[i], r.wrote[i] = 0, 0
		base := i << 6
		if following {
			for ; c != 0; c &= c - 1 {
				r.addD(netlist.NetID(base + bits.TrailingZeros64(c)))
			}
		}
		if out == nil {
			continue
		}
		//symsim:allow SA001 a recording's storage grows to its longest run once and is reused
		out.data = binary.AppendUvarint(out.data, uint64(i-prev))
		gm := groups(m)
		//symsim:allow SA001 a recording's storage grows to its longest run once and is reused
		out.data = append(out.data, byte(gm))
		prev = i
		for ; gm != 0; gm &= gm - 1 {
			gi := bits.TrailingZeros64(gm)
			b := base + gi<<3
			p := pack(group(val, b))
			//symsim:allow SA001 a recording's storage grows to its longest run once and is reused
			out.data = append(out.data, byte(m>>(gi<<3)), byte(p), byte(p>>8))
		}
	}
	r.d, r.dn = r.dn, r.d
	if out != nil {
		out.off = append(out.off, uint32(len(out.data)))
		out.est = append(out.est, est)
		if k>>6 >= len(out.quiet) {
			out.quiet = append(out.quiet, 0)
		}
		if quiet {
			out.quiet[k>>6] |= 1 << (k & 63)
		}
		out.steps++
	}
	if following && (k+1 >= r.log.steps || len(r.d) > r.maxD) {
		r.dropD()
		r.log = nil
	}
}

// addD puts net id into the next difference set when the simulator's value
// differs from the followed run's and it is not there yet.
func (r *Replay) addD(id netlist.NetID) {
	if r.s.val[id] != r.ref[id] && r.inD[id>>6]>>(id&63)&1 == 0 {
		r.inD[id>>6] |= 1 << (id & 63)
		r.dn = append(r.dn, id)
	}
}

// dropD empties the difference set.
func (r *Replay) dropD() {
	for _, id := range r.d {
		r.inD[id>>6] &^= 1 << (id & 63)
	}
	r.d = r.d[:0]
}
