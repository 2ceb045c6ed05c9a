// The compiled simulation kernel: the default engine, executing the
// structure-of-arrays netlist.Program instead of interpreting Gate records.
// It evaluates the same gates in the same order as the reference
// interpreter, so traces, toggle profiles and halt cycles match bit for bit
// (the differential suite in kernel_test.go). What is its own is a walk of
// the shared schedule (dirtySet) that evaluates through netlist.EvalLUT,
// and a few fast paths, each a shortcut in front of the one general path
// with a stated precondition — DESIGN.md §8 "The contract" lists what each
// relies on and the check that asserts it:
//
//   - the level round's in-line commit and flip-flop test (kernelLevel; §8
//     "The level round");
//   - data pins off the schedule while every reset is at 1 (commit, quiet;
//     §8 "Data pins off the schedule");
//   - the clean clock edge (cleanEdge, clockEdge; §8 "The clean edge"), with
//     samples that follow the clock (follow, unfollow; §8 "Samples follow
//     the clock"), a capture that visits enabled registers (sampleEdge; §8
//     "Enable-group capture") and memories left unqueued at an edge that
//     cannot write (clockEdge; §8 "The RAM skip").
package vvp

import (
	"math/bits"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

// kernelLevel runs one round of level lvl on the compiled kernel: claim
// the level's gates from the dirty set and evaluate them in ascending
// kernel ID. A flip-flop goes through stepDFF, shared with the
// interpreter, unless its reset is at 1 and its clock sample current;
// everything else is one EvalLUT load (padded pins are ignored by the
// table) and, when the output changed, a commit — in line, as a store, a
// toggle mark and one OR of the gate's GateRun, when the simulator is bare
// and quiet. quiet can change only inside commit, so it is read again after
// each call (DESIGN.md §8 "The level round").
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
					// With its own reset at 1 and the clock sample current,
					// stepDFF would do nothing.
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
// take the fast path: the design has a clock-domain table for this clock,
// the old level is known, every reset is at 1, no flip-flop is dirty,
// both queues are empty and no stimulus event is due in this time step.
// Other work may be pending (DESIGN.md §8 "The clean edge").
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
// It marks no flip-flop and stores no flip-flop sample: it sets follow
// (DESIGN.md §8 "Samples follow the clock") and, on a rising edge, leaves
// the capture to sampleEdge. The clock's other readers are scheduled as
// commit would, except that when the clock reaches clock pins alone,
// nothing else is pending and no memory on the clock can write at this
// edge, every memory only stores its sample (§8 "The RAM skip").
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
// settle after the first Active drain of the step, when D and EN hold what
// the general path would have sampled (DESIGN.md §8 "The clean edge"). It
// queues only captures that move Q, skips an enable group at 0 until a Z
// has been committed, and leaves the queue in ascending kernel ID, the
// drain's order (§8 "Enable-group capture").
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
	// An insertion sort: the captures of an edge are few and mostly in order.
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
