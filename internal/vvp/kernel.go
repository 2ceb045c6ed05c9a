// The compiled simulation kernel: the default engine, executing the
// structure-of-arrays netlist.Program instead of interpreting Gate records.
//
// Four things distinguish it from the reference interpreter, none of them
// semantic:
//
//  1. Gate descriptors are packed (inline pin array, no per-gate slice
//     header) and renumbered level-major, so each topological level is one
//     contiguous descriptor run, and the consumers of one net sit in
//     adjacent bits of the dirty set: a net's fanout is a list of
//     netlist.FanRun — word, level, mask — almost always of length one, and
//     scheduling it is one OR per run (dirtySet.markRuns) where the
//     interpreter walks a [][]GateID one consumer at a time.
//  2. Combinational evaluation is a single branch-free load from
//     netlist.EvalLUT, generated from EvalGate itself; only flip-flops
//     retain control flow (stepDFF, shared verbatim with the interpreter).
//  3. The dirty set is dirtySet (dirtyset.go), the one schedule this
//     engine and the batch engine share: a flat bitmap over the level-major
//     numbering instead of per-level queues. A level round claims the
//     level's bit range in word-sized chunks and sweeps the set bits in
//     ascending ID order — a radix sort in all but name, replacing the
//     interpreter's scratch copy, comparison sort and per-gate queue
//     bookkeeping with a few word operations per 64 gates. What is this
//     engine's own is the walk of the claimed words (kernelLevel): it
//     evaluates in line, and commits in line too where a commit is no more
//     than a store, a toggle mark and one run: through commit it costs
//     about what the evaluation did, and 40–55 % of evaluations end in one.
//  4. A flip-flop is scheduled by its clock and its reset. While every
//     reset net is at 1 (Simulator.quiet) a move of D or EN marks no
//     flip-flop: netlist.Program keeps those pins in a table of their own
//     (DataRuns), which commit marks only while some reset is not at 1.
//     And on a design with a netlist.ClockDomain table a clean edge of the
//     clock does not put the flip-flops on the dirty bitmap either, and
//     costs only the registers it can load: the flip-flops' clock samples
//     follow the clock instead of being stored, a rising edge is captured
//     after the Active region has drained by a pass over the flip-flops
//     whose enable is not 0, and an edge at which no memory can write leaves
//     the memories unqueued (cleanEdge, clockEdge, sampleEdge at the end of
//     this file) — so in the steady state no flip-flop is evaluated at all.
//     Every other clock change walks the fanout like any other commit.
//
// The renumbering is a stable counting sort by level, so ascending kernel
// ID within a level is ascending netlist ID: every round evaluates the
// same gates in the same order as the interpreter's sorted rounds, and a
// bit set while its round is running lands in the already-claimed word's
// live slot — deferred to the next round, exactly like the interpreter's
// emptied bucket. Traces, toggle profiles and halt cycles therefore match
// the interpreter bit for bit — enforced by the differential suite in
// kernel_test.go.
package vvp

import (
	"math/bits"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

// kernelLevel runs one round of level lvl on the compiled kernel: claim
// the level's gates from the dirty set, then evaluate them in ascending
// kernel ID order via trailing-zero iteration. A flip-flop
// goes through stepDFF, shared verbatim with the interpreter; everything
// else is one EvalLUT load — pins beyond the kind's input count are padded
// with net 0 and the LUT ignores their operands, so the loads are
// unconditional — and, when the output changed, a commit.
//
// The commit is made in line when nothing but the value, the toggle mark
// and the fanout is at stake — the run is recording, with no force, trace
// or activity counters, and every reset is at 1, so that FanRuns is all
// there is to mark — and the gate's whole FanRuns is one GateRun: store,
// mark, OR the run. dirtyLo stays as it is because such a run lies above
// lvl, by construction of the table. Every other commit is commit's. Of
// those conditions only quiet can change inside a round, and only where a
// gate drives a reset net: that gate has no GateRun, so quiet is read again
// after the call of commit. (A flip-flop commits in the Active region only
// while its own reset is not at 1, which leaves quiet false as it was.)
//
//symsim:hotpath
func (s *Simulator) kernelLevel(lvl int32) error {
	if sw, w0, n := s.claim(lvl); n > 0 {
		gates, runs := s.prog.Gates, s.prog.GateRun
		val, toggled, dirtyW, lvlW := s.val, s.toggled, s.dirtyW, s.lvlW
		bare := s.recording && len(s.forces) == 0 && s.opts.Trace == nil && s.toggleCount == nil
		inline := bare && s.quiet
		fresh := 0
		for i, w := range sw {
			base := (w0 + uint32(i)) << 6
			for ; w != 0; w &= w - 1 {
				g := base + uint32(bits.TrailingZeros64(w))
				d := &gates[g]
				if d.Kind == netlist.KindDFF {
					// Reached through D or EN alone (a reset elsewhere in the
					// design is not at 1), with its own reset at 1 and the
					// clock sample current, stepDFF does nothing.
					clk, rstn := val[d.In[netlist.DFFPinClk]], val[d.In[netlist.DFFPinRstn]]
					if rstn != logic.Hi || clk != s.clkSample(netlist.GateID(g)) {
						s.stepDFF(netlist.GateID(g), d.Out,
							val[d.In[netlist.DFFPinD]], clk, val[d.In[netlist.DFFPinEn]], rstn, d.Init)
					}
					continue
				}
				v := netlist.EvalLUT[uint32(d.Kind)<<6|
					uint32(val[d.In[0]])<<4|
					uint32(val[d.In[1]])<<2|
					uint32(val[d.In[2]])]
				// No-change fast path. Sound with forces too: a forced net
				// already holds its forced value, so commit would be a
				// no-op either way.
				if v == val[d.Out] {
					continue
				}
				r := &runs[g]
				if !inline || r.Mask == 0 {
					s.commit(d.Out, v, RegionActive)
					inline = bare && s.quiet
					continue
				}
				val[d.Out] = v
				toggled[d.Out] = true
				add := r.Mask &^ dirtyW[r.Word]
				dirtyW[r.Word] |= add
				lvlW[uint32(r.Level)>>6] |= uint64(1) << (uint32(r.Level) & 63)
				fresh += bits.OnesCount64(add)
			}
		}
		s.dirtyN += fresh
		if err := s.countDeltas(n); err != nil {
			return err
		}
	}
	for _, m := range s.takeMems(lvl) {
		s.evalMem(m)
	}
	return nil
}

// FastEdges returns the number of clock toggles the kernel has handled on
// the clock-edge fast path; always zero on the interpreter and on designs
// without a netlist.ClockDomain. Exposed for tests and tuning.
func (s *Simulator) FastEdges() uint64 { return s.edges }

// cleanEdge reports whether the clock toggle Step is about to commit may
// take the fast path: the design has a clock-domain table for this clock
// and, right now, the general path would do nothing with the flip-flops
// but sample a known edge. That needs the old clock level known (the new
// one always is), no flip-flop dirty and nothing queued, no stimulus event
// due in this time step, and every reset net at 1. A flip-flop that is not
// dirty has sampled the current clock level (clkSample; see
// Simulator.quiet), so with none dirty every sample is the old level. Other
// work may be pending — the cone a fork's Force(Cond) left dirty, a memory
// SetMemWord touched: it commits no Q and queues no capture, and the drain
// orders it below the flip-flops that read it either way (DESIGN.md §8).
//
//symsim:hotpath
func (s *Simulator) cleanEdge(st *Stimulus) bool {
	if s.prog == nil {
		return false
	}
	cd := s.prog.Clock
	if cd == nil || cd.Net != st.Clock || !s.val[cd.Net].IsKnown() {
		return false
	}
	if !s.quiet || len(s.nba) != 0 || len(s.inactiveQ) != 0 {
		return false
	}
	if s.stimCursor < len(st.Events) && st.Events[s.stimCursor].Time <= s.now {
		return false
	}
	if s.dirtyN != 0 {
		for i, ff := range s.prog.FFMask {
			if s.dirtyW[i]&ff != 0 {
				return false
			}
		}
	}
	return true
}

// clockEdge is commit's fanout step for a clock toggle cleanEdge accepted.
// The general path would mark every member dirty and evaluate each one
// once, at its level; with reset at 1 that evaluation commits nothing in
// the Active region, so all it leaves behind is the new clock sample and,
// on a rising edge, one NBA entry. clockEdge stores no sample: it sets
// follow, which makes the clock's level every member's sample — and keeps
// "not dirty" meaning "sample current" for the members it does not mark —
// and it leaves the capture to sampleEdge.
//
// The clock's other readers are scheduled as commit would, unless the edge
// can change nothing there: the clock reaches no pin but clock pins, no
// other work is pending, and no memory on the clock can write at this
// edge (it falls, or it rises with every write enable at 0). Evaluating
// the memories then would store their clock samples and re-read the words
// their read ports show, so clockEdge stores the samples and queues none.
// The rule is all or nothing: one memory's write can move another's pins,
// and pending work — the cone of a released force — can move a write
// enable before the memory's level.
//
//symsim:hotpath
func (s *Simulator) clockEdge(cd *netlist.ClockDomain, v logic.Value) {
	s.follow = true
	mems := s.prog.MemFanOf(cd.Net)
	idle := cd.ClockPinsOnly && s.dirtyN == 0
	for _, m := range mems {
		idle = idle && (v == logic.Lo || s.val[s.d.Mems[m].WEn] == logic.Lo)
	}
	if idle {
		for _, m := range mems {
			s.mem[m].lastClk = v
		}
	} else {
		s.markRuns(cd.Fan)
		for _, m := range mems {
			s.markMem(m)
		}
	}
	s.edgePending = v == logic.Hi
	s.edges++
}

// unfollow ends a run of clean edges. commit calls it when the domain clock
// moves from old on the general path, before anything reads a sample: every
// member last sampled old, and from now on lastClk says so.
func (s *Simulator) unfollow(cd *netlist.ClockDomain, old logic.Value) {
	for _, g := range cd.DFFs {
		s.lastClk[g] = old
	}
	s.follow = false
}

// sampleEdge is the capture of a rising edge taken by clockEdge, run by
// settle after the first Active drain of the step. The general path
// samples a member when the drain reaches its level, which lies above its
// whole input cone; nothing the drain does after that can change D or EN
// (DESIGN.md §8 has the argument), so sampling them all here reads the
// same values. A capture that leaves Q as it is would commit nothing, so it
// is not queued; with EN at 0 that is every capture unless Q is Z, which
// Mux folds to X, so until a Z has been committed (zSeen) a group of
// members whose enable is 0 is skipped whole. The drain appends captures in
// ascending kernel ID, and so does this pass: it queues each one under its
// kernel ID, sorts what it queued in place, and then gives each its net.
//
//symsim:hotpath
func (s *Simulator) sampleEdge(cd *netlist.ClockDomain) {
	s.edgePending = false
	val, from := s.val, len(s.nba)
	for k := 1; k < len(cd.Groups); k++ {
		lo, hi := cd.Groups[k-1], cd.Groups[k]
		en := val[cd.Members[lo].En]
		if en == logic.Lo && !s.zSeen {
			continue
		}
		for i := lo; i < hi; i++ {
			m := &cd.Members[i]
			old := val[m.Out]
			if en == logic.Lo && old != logic.Z {
				continue // disabled: Mux(0, Q, D) is Q
			}
			if q := logic.Mux(en, old, val[m.D]); q != old {
				//symsim:allow SA001 nba reuses its capacity between cycles after the first
				s.nba = append(s.nba, nbaAssign{net: netlist.NetID(cd.DFFs[i]), val: q})
			}
		}
	}
	// An insertion sort: the captures of an edge are few and mostly in order
	// (on the Table-4 cells at most 66, with at most 150 pairs out of order).
	captures, gates := s.nba[from:], s.prog.Gates
	for i := 1; i < len(captures); i++ {
		for j := i; j > 0 && captures[j].net < captures[j-1].net; j-- {
			captures[j], captures[j-1] = captures[j-1], captures[j]
		}
	}
	for i := range captures {
		captures[i].net = gates[captures[i].net].Out
	}
}
