// Package vvp implements the event-driven gate-level simulation engine that
// symsim's co-analysis runs on. It mirrors the structure of iverilog's VVP
// runtime that the paper extends (§3.1, Figure 2): each time step executes
// a sequence of event regions — Active, Inactive, NBA (non-blocking
// assign), Monitor — and this engine adds the paper's new final region,
// Symbolic, in which control-flow signals are checked for X, the simulation
// is halted and its state serialized, and restored states are
// re-initialized. Executing symbolic events after every other region
// guarantees the step's ordinary events have completed, exactly as the
// paper argues.
//
// The engine is four-valued (0/1/X/Z), cycle-accurate, and design-agnostic:
// it simulates any frozen netlist.Netlist. X propagation follows Verilog
// semantics, which is what makes the co-analysis conservative: an X on a
// net means some concrete input could toggle the driving gate.
package vvp

import (
	"cmp"
	"fmt"
	"slices"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

// Region identifies one of the event regions of a time step (Figure 2).
type Region uint8

// Event regions in execution order. Symbolic is the paper's addition and
// always runs last within a time step.
const (
	RegionActive Region = iota
	RegionInactive
	RegionNBA
	RegionMonitor
	RegionSymbolic
)

var regionNames = [...]string{"active", "inactive", "nba", "monitor", "symbolic"}

// String returns the lower-case region name.
func (r Region) String() string {
	if int(r) < len(regionNames) {
		return regionNames[r]
	}
	return fmt.Sprintf("Region(%d)", uint8(r))
}

// Status is the outcome of advancing the simulation by one time step.
type Status uint8

const (
	// Running: the step completed with no symbolic event.
	Running Status = iota
	// HaltX: a monitored control-flow signal was X at a PC-changing
	// instruction; the simulation stopped at the end of the step and its
	// state can be saved (paper §3 step 2).
	HaltX
	// Finished: the design raised its finish net (the application reached
	// its terminating condition).
	Finished
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case Running:
		return "running"
	case HaltX:
		return "halt-x"
	case Finished:
		return "finished"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Engine selects the evaluation machinery a Simulator runs on. Both
// engines implement identical semantics — same commit traces, toggle
// profiles and halt cycles on any design — and differ only in speed; the
// differential suite (FuzzKernelVsInterpreter, the cross-engine analysis
// test) enforces the equivalence.
type Engine uint8

const (
	// EngineKernel is the compiled kernel (the default): the frozen
	// netlist is flattened into structure-of-arrays tables (see
	// netlist.Program), gates evaluate through a branch-free four-valued
	// lookup table, the dirty set is a flat bitmap over a level-major gate
	// numbering whose set bits each level round walks in ascending order,
	// and a clean clock edge captures the enabled flip-flops in one pass
	// instead of one event each (see kernel.go).
	EngineKernel Engine = iota
	// EngineInterp is the scalar reference interpreter: per-gate dispatch
	// through netlist.EvalGate and slice-of-slices fanout walks. It is the
	// oracle the kernel is differentially tested against.
	EngineInterp
	// EngineBatch is the bit-parallel batched kernel: up to 64 independent
	// scenarios packed into two bitplanes per net, swept together over the
	// compiled Program (see BatchSim). The batch data layout lives only in
	// BatchSim: a scalar Simulator asked for it runs the kernel machinery
	// instead. The core does not rely on that — it asks for EngineKernel
	// when it boots a batch run's cold path on a scalar simulator.
	EngineBatch
)

// String returns the engine name used by CLI flags.
func (e Engine) String() string {
	switch e {
	case EngineKernel:
		return "kernel"
	case EngineInterp:
		return "interp"
	case EngineBatch:
		return "batch"
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// MemXPolicy selects the semantics of a memory write whose address contains
// X bits (paper §3.3 discussion; see DESIGN.md substitution table).
type MemXPolicy uint8

const (
	// MemXVerilog drops writes with unknown addresses and reads X, the
	// behaviour of iverilog's reg arrays and therefore of the paper's
	// tool. This is the default.
	MemXVerilog MemXPolicy = iota
	// MemXSound conservatively merges the written data into every word
	// the unknown address could select.
	MemXSound
)

// Options configure a Simulator.
type Options struct {
	// Engine selects the evaluation machinery. The zero value is the
	// compiled kernel; EngineInterp selects the reference interpreter.
	Engine Engine
	// MemX selects X-address write semantics. Default MemXVerilog.
	MemX MemXPolicy
	// Trace, when non-nil, records every net value commit. Used by the
	// baseline-equivalence validation of paper §5.0.1.
	Trace *Trace
	// CountActivity enables per-net toggle counters and per-cycle peak
	// tracking (see ActivityCounts/PeakActivity), the inputs to the
	// switching-power analyses of internal/power.
	CountActivity bool
	// DisableSymbolic turns off the Symbolic event region entirely,
	// reproducing the unmodified iverilog baseline for trace-equality
	// validation.
	DisableSymbolic bool
}

// MonitorXSpec is the argument of the $monitor_x system task (paper §3
// modification 1): the signals whose X-ness at a PC-changing instruction
// must halt the simulation.
type MonitorXSpec struct {
	// BranchActive is high during the cycle in which a PC-changing
	// instruction resolves its direction.
	BranchActive netlist.NetID
	// Cond is the resolved 1-bit branch condition. Forks force this net.
	Cond netlist.NetID
	// Watch lists the control-flow state bits the paper monitors: the
	// NZCV flags for openMSP430, the compare-result register bits for
	// bm32 and dr5. The halt fires when BranchActive is high and any
	// Watch net is X — even when Cond itself would be determinable,
	// matching the paper's §5.0.3 behaviour.
	Watch []netlist.NetID
	// Finish is the design's terminating-condition net. When it goes
	// high the simulation finishes.
	Finish netlist.NetID
}

type force struct {
	net     netlist.NetID
	val     logic.Value
	release uint64 // absolute time at which the force expires
}

// Simulator is one gate-level simulation instance (the analogue of a vvp
// process). It is not safe for concurrent use; parallel co-analysis runs
// one Simulator per goroutine.
type Simulator struct {
	d    *netlist.Netlist
	opts Options

	// prog is the compiled structure-of-arrays form of the design; non-nil
	// exactly when the engine is EngineKernel. Both engines share every
	// piece of mutable state below, so snapshots, restores and forces work
	// identically under either; only the active-region drain, gate
	// evaluation and fanout walk differ.
	prog *netlist.Program

	val     []logic.Value // current net values
	lastClk []logic.Value // previous clock sample per gate (DFFs only); read it through clkSample

	mem []memState
	// forces holds the active Verilog forces sorted by net. Almost every
	// commit runs with no force active, so the hot path is a single length
	// check; with forces present a binary search replaces the old map
	// lookup.
	forces []force

	// Levelized active region: dirty gates and memories are tracked per
	// topological level and processed lowest-first, keeping zero-delay
	// settling linear in design size (a plain LIFO worklist degrades
	// exponentially on deep reconvergent logic such as multiplier
	// arrays). Within a level both engines drain in sorted rounds: the
	// gates dirty at round start evaluate in ascending ID order, gates
	// dirtied during the round defer to the next one. The fixed order is
	// what makes kernel and interpreter traces bit-identical.
	//
	// The kernel schedules gates through the dirtySet's bitmap; the
	// interpreter keeps explicit per-level buckets plus an in-queue flag
	// per gate, and shares the set's memory buckets, dirtyLo and dirtyN.
	dirtySet
	buckets [][]netlist.GateID // interpreter only
	inQ     []bool             // interpreter only

	// The kernel's regime bits, each written only where DESIGN.md §8 "The
	// contract" says. edgeNet is the clock net while Step commits a toggle
	// cleanEdge accepted, NoNet otherwise; edgePending asks settle for
	// sampleEdge once the Active region has drained; edges counts the clean
	// edges. follow makes the domain clock's level every flip-flop's clock
	// sample (clkSample) from a clean edge to the clock's next general
	// commit. zSeen is set by the first commit of a Z and never cleared.
	// quiet is true on the kernel while every net of prog.Resets is at 1,
	// and commit then leaves prog.DataRuns unmarked (setQuiet).
	edgeNet     netlist.NetID
	edgePending bool
	edges       uint64
	follow      bool
	zSeen       bool
	quiet       bool

	// Scratch buffers recycled across settle rounds (steady-state stepping
	// allocates nothing).
	scratchG     []netlist.GateID // interpreter only
	nbaBack      []nbaAssign
	inactiveBack []nbaAssign

	nba        []nbaAssign
	inactiveQ  []nbaAssign // #0-delayed assignments, drained before NBA
	monitorSpc *MonitorXSpec

	now        uint64
	stim       *Stimulus
	stimCursor int

	// Activity profiling (paper Algorithm 1 toggle profile).
	recording bool
	toggled   []bool

	// Switching-activity counters (enabled by Options.CountActivity):
	// per-net commit counts plus per-cycle totals for peak tracking —
	// the raw data behind the power analyses the co-analysis enables
	// (peak power [5], power gating [6]).
	toggleCount  []uint64
	cycleToggles uint64
	peakToggles  uint64
	peakCycle    uint64

	cycles uint64 // posedges of the stimulus clock executed
}

type memState struct {
	// words holds a ROM, and shared marks it as the design's own Mem.Init
	// rather than a copy: a ROM is outside every StateSpec and no gate
	// writes it, so simulators of one view read the same words. Init may
	// stop short of the memory's size; the words past its end read all-X,
	// as unwritten words do. SetMemWord, the only writer, takes a full
	// private copy first.
	words  []logic.Vec
	shared bool
	// image holds a writable memory, as one vector in the StateSpec segment
	// layout (word w at bit w*DataBits) like a batch lane's: Restore and
	// Snapshot move it with one copy, the ports a word at a time.
	image   logic.Vec
	lastClk logic.Value

	// xword stays all-X for the lifetime of the simulator and backs
	// unknown-address and past-the-end reads.
	xword logic.Vec
}

// word returns where word a of the memory is: a vector and the word's bit
// offset in it. A word the memory does not store — out of range, or beyond a
// shared ROM image — is the never-written all-X word.
func (ms *memState) word(m *netlist.Mem, a uint64) (*logic.Vec, int) {
	switch {
	case m.IsROM() && a < uint64(len(ms.words)):
		return &ms.words[a], 0
	case !m.IsROM() && a < uint64(m.Words):
		return &ms.image, int(a) * m.DataBits
	}
	return &ms.xword, 0
}

type nbaAssign struct {
	net netlist.NetID
	val logic.Value
}

// New creates a simulator for the frozen design d. It panics if d is not
// frozen (Freeze validates single drivers and acyclicity, which the engine
// relies on for termination).
func New(d *netlist.Netlist, opts Options) *Simulator {
	s := &Simulator{
		d:       d,
		opts:    opts,
		val:     make([]logic.Value, len(d.Nets)),
		lastClk: make([]logic.Value, len(d.Gates)),
		toggled: make([]bool, len(d.Nets)),
		edgeNet: netlist.NoNet,
	}
	if opts.Engine != EngineInterp {
		s.prog = d.Program()
		s.dirtySet = newDirtySet(d.MaxLevel()+1, s.prog.MemLevel, s.prog)
	} else {
		mlv := make([]int32, len(d.Mems))
		for mi := range mlv {
			mlv[mi] = d.MemLevel(netlist.MemID(mi))
		}
		s.dirtySet = newDirtySet(d.MaxLevel()+1, mlv, nil)
		s.buckets = make([][]netlist.GateID, d.MaxLevel()+1)
		s.inQ = make([]bool, len(d.Gates))
	}
	for i := range s.val {
		s.val[i] = logic.X
	}
	for i := range s.lastClk {
		s.lastClk[i] = logic.X
	}
	s.setQuiet()
	s.mem = make([]memState, len(d.Mems))
	for i, m := range d.Mems {
		ms := memState{
			lastClk: logic.X,
			xword:   logic.NewVec(m.DataBits),
		}
		switch {
		case !m.IsROM():
			ms.image = logic.NewVec(m.Words * m.DataBits)
			for w, init := range m.Init {
				if w < m.Words && init.Width() == m.DataBits {
					ms.image.CopyBitsFrom(w*m.DataBits, init, 0, m.DataBits)
				}
			}
		case wellFormedInit(m):
			ms.words, ms.shared = m.Init, true
		default:
			ms.words = privateWords(m, m.Init)
		}
		s.mem[i] = ms
	}
	// Time-zero initial evaluation: every gate and memory is scheduled
	// once so constant drivers and input-independent cones settle before
	// the first stimulus event, as a Verilog simulator's initialization
	// pass does.
	s.markAll()
	if s.prog == nil {
		for gi := range d.Gates {
			s.dirtyGate(netlist.GateID(gi))
		}
	}
	return s
}

// wellFormedInit reports whether m.Init can stand in for the memory's
// leading words as it is: no more words than the memory has, each of the
// data width (lint's NL000 reports the rest).
func wellFormedInit(m *netlist.Mem) bool {
	if len(m.Init) > m.Words {
		return false
	}
	for _, w := range m.Init {
		if w.Width() != m.DataBits {
			return false
		}
	}
	return true
}

// privateWords returns a simulator-owned copy of a ROM's contents, all
// words in one backing slab: from[w] where it has the data width, all-X
// where it is missing or malformed.
func privateWords(m *netlist.Mem, from []logic.Vec) []logic.Vec {
	words := logic.NewVecs(m.Words, m.DataBits)
	for w := range words {
		if w < len(from) && from[w].Width() == m.DataBits {
			words[w].CopyFrom(from[w])
		}
	}
	return words
}

// Design returns the netlist under simulation.
func (s *Simulator) Design() *netlist.Netlist { return s.d }

// Now returns the current simulation time.
func (s *Simulator) Now() uint64 { return s.now }

// Cycles returns the number of clock posedges executed so far; the
// "simulated cycles" metric of paper Table 4.
func (s *Simulator) Cycles() uint64 { return s.cycles }

// Value returns the current value of a net.
func (s *Simulator) Value(id netlist.NetID) logic.Value { return s.val[id] }

// Values returns the current value of every net, indexed by NetID. Like
// Toggled, the slice aliases simulator storage: it is valid until the next
// step or restore, and callers must not write to it.
func (s *Simulator) Values() []logic.Value { return s.val }

// VecValue reads a bus as a ternary vector, nets[0] being bit 0.
func (s *Simulator) VecValue(nets []netlist.NetID) logic.Vec {
	v := logic.NewVec(len(nets))
	for i, n := range nets {
		v.Set(i, s.val[n])
	}
	return v
}

// Drive assigns a primary input directly, outside the stimulus schedule (a
// testbench convenience; the change propagates at the next settle).
func (s *Simulator) Drive(id netlist.NetID, v logic.Value) {
	s.commit(id, v, RegionActive)
}

// ScheduleZeroDelay queues a Verilog #0 assignment: it commits in the
// Inactive region of the current time step, after the Active events have
// drained but before non-blocking assignments (Figure 2's region order).
func (s *Simulator) ScheduleZeroDelay(id netlist.NetID, v logic.Value) {
	s.inactiveQ = append(s.inactiveQ, nbaAssign{net: id, val: v})
}

// MemWord returns the current contents of one memory word; a word the
// memory does not have reads all-X, as it does through the read port.
func (s *Simulator) MemWord(id netlist.MemID, word int) logic.Vec {
	m := s.d.Mems[id]
	from, off := s.mem[id].word(m, uint64(word))
	v := logic.NewVec(m.DataBits)
	v.CopyBitsFrom(0, *from, off, m.DataBits)
	return v
}

// SetMemWord overwrites one memory word (testbench initialization). It
// panics when the memory has no such word or v is not of its data width.
func (s *Simulator) SetMemWord(id netlist.MemID, word int, v logic.Vec) {
	m, ms := s.d.Mems[id], &s.mem[id]
	if word < 0 || word >= m.Words || v.Width() != m.DataBits {
		panic(fmt.Sprintf("vvp: SetMemWord(%q, %d) of %d bits: the memory has %d words of %d", m.Name, word, v.Width(), m.Words, m.DataBits))
	}
	if ms.shared {
		// Copy on write: the words are the view's Mem.Init, which every
		// other simulator of the view reads.
		ms.words, ms.shared = privateWords(m, ms.words), false
	}
	to, off := ms.word(m, uint64(word))
	to.CopyBitsFrom(off, v, 0, m.DataBits)
	s.markMem(id)
}

// SetMonitorX installs the $monitor_x specification (paper §3.2 step 1).
func (s *Simulator) SetMonitorX(spec *MonitorXSpec) { s.monitorSpc = spec }

// BindStimulus attaches the testbench stimulus (clock, reset and input
// schedule) and drives the clock to its t=0 level. It must be called
// before Step.
func (s *Simulator) BindStimulus(st *Stimulus) {
	s.stim = st
	s.stimCursor = 0
	if st.Clock != netlist.NoNet {
		s.commit(st.Clock, st.clockValueAt(0), RegionActive)
	}
}

// ActivityCounts returns the per-net commit counters accumulated since
// StartRecording (nil unless Options.CountActivity). The slice aliases
// internal state.
func (s *Simulator) ActivityCounts() []uint64 { return s.toggleCount }

// PeakActivity returns the largest number of net toggles observed in any
// single clock cycle since StartRecording, and the cycle it occurred in.
func (s *Simulator) PeakActivity() (toggles, cycle uint64) {
	return s.peakToggles, s.peakCycle
}

// StartRecording begins toggle-activity profiling from the current state:
// the profile starts empty and every subsequent value change marks its net
// toggled. Called once the reset sequence has propagated (Algorithm 1
// line 4–5). A net that is X now is exercisable too — an unknown means some
// input could toggle it — but it needs no mark here: it either changes, and
// is marked then, or is still X at the end of the path, which is where the
// reader of the profile looks (core's absorb).
func (s *Simulator) StartRecording() {
	s.recording = true
	clear(s.toggled)
	if s.opts.CountActivity {
		if len(s.toggleCount) == len(s.d.Nets) {
			clear(s.toggleCount)
		} else {
			s.toggleCount = make([]uint64, len(s.d.Nets))
		}
		s.cycleToggles, s.peakToggles, s.peakCycle = 0, 0, 0
	}
}

// Toggled returns the per-net activity profile accumulated since
// StartRecording: the nets whose value changed. A net that never changed and
// is unknown (see Values) is exercisable all the same. The returned slice
// aliases internal state; callers must copy it if they outlive the
// simulator.
func (s *Simulator) Toggled() []bool { return s.toggled }

// forceAt returns the position of net id in the sorted forces slice and
// whether a force on id is there; without one, the position is where it
// would be inserted.
func (s *Simulator) forceAt(id netlist.NetID) (int, bool) {
	//symsim:allow SA001 force lookup runs only while forces are active; the benchmarked steady state has none
	return slices.BinarySearchFunc(s.forces, id, func(f force, id netlist.NetID) int {
		return cmp.Compare(f.net, id)
	})
}

// Force overrides the value of a net until the given absolute release
// time, the analogue of the Verilog force used when continuing down one
// execution path of a forked branch (paper §3 step 3). The driver's value
// reasserts itself at release.
func (s *Simulator) Force(id netlist.NetID, v logic.Value, release uint64) {
	f := force{net: id, val: v, release: release}
	if i, ok := s.forceAt(id); ok {
		s.forces[i] = f
	} else {
		s.forces = slices.Insert(s.forces, i, f)
	}
	s.commit(id, v, RegionActive)
}

// Forced reports whether net id currently has a force applied.
func (s *Simulator) Forced(id netlist.NetID) bool {
	_, ok := s.forceAt(id)
	return ok
}

func (s *Simulator) releaseExpired() {
	if len(s.forces) == 0 {
		return
	}
	kept := s.forces[:0]
	for _, f := range s.forces {
		if s.now < f.release {
			kept = append(kept, f)
			continue
		}
		// Reassert the driver.
		if d := s.d.Nets[f.net].Driver; d != netlist.NoGate {
			if s.prog != nil {
				s.markGate(s.prog.Renum[d])
			} else {
				s.dirtyGate(d)
			}
		}
		for _, m := range s.d.MemFanout(f.net) {
			s.markMem(m)
		}
	}
	s.forces = kept
}

func (s *Simulator) dirtyGate(g netlist.GateID) {
	if !s.inQ[g] {
		s.inQ[g] = true
		lvl := s.d.GateLevel(g)
		//symsim:allow SA001 level buckets are pre-sized at Freeze; append reuses their capacity
		s.buckets[lvl] = append(s.buckets[lvl], g)
		if lvl < s.dirtyLo {
			s.dirtyLo = lvl
		}
		s.dirtyN++
	}
}

// commit assigns a value to a net, honouring forces, recording activity,
// tracing, and scheduling fanout.
func (s *Simulator) commit(id netlist.NetID, v logic.Value, region Region) {
	if len(s.forces) != 0 {
		// A forced net holds its forced value against driver updates
		// until released (Verilog force/release semantics).
		if i, ok := s.forceAt(id); ok {
			v = s.forces[i].val
		}
	}
	old := s.val[id]
	if old == v {
		return
	}
	s.val[id] = v
	if v == logic.Z {
		s.zSeen = true
	}
	if s.recording {
		s.toggled[id] = true
		if s.toggleCount != nil {
			s.toggleCount[id]++
			s.cycleToggles++
		}
	}
	if s.opts.Trace != nil {
		s.opts.Trace.record(s.now, region, id, old, v)
	}
	if p := s.prog; p != nil {
		if id == s.edgeNet {
			s.clockEdge(p.Clock, v)
			return
		}
		if p.SlowCommit(id) {
			// A reset net, a net on a memory pin, the domain clock: quiet
			// follows the first, and the last ends a run of clean edges
			// when it commits here.
			if s.follow && id == p.Clock.Net {
				s.unfollow(p.Clock, old)
			}
			s.setQuiet()
			for _, m := range p.MemFanOf(id) {
				s.markMem(m)
			}
		}
		s.markRuns(p.FanRuns(id))
		if !s.quiet {
			s.markRuns(p.DataRuns(id))
		}
		return
	}
	for _, g := range s.d.Fanout(id) {
		s.dirtyGate(g)
	}
	for _, m := range s.d.MemFanout(id) {
		s.markMem(m)
	}
}

// setQuiet recomputes quiet, and is the one place that writes it: true on
// the kernel exactly while every net of prog.Resets is at 1 (a design with
// no flip-flop has no reset to wait for).
//
//symsim:hotpath
func (s *Simulator) setQuiet() {
	s.quiet = s.prog != nil
	if s.quiet {
		for _, r := range s.prog.Resets {
			if s.val[r] != logic.Hi {
				s.quiet = false
				return
			}
		}
	}
}

// evalGate processes one dirty gate in the Active region.
func (s *Simulator) evalGate(g netlist.GateID) {
	gt := &s.d.Gates[g]
	if gt.Kind == netlist.KindDFF {
		s.evalDFF(g, gt)
		return
	}
	var buf [3]logic.Value
	in := buf[:len(gt.In)]
	for i, n := range gt.In {
		in[i] = s.val[n]
	}
	s.commit(gt.Out, netlist.EvalGate(gt.Kind, in), RegionActive)
}

func (s *Simulator) evalDFF(g netlist.GateID, gt *netlist.Gate) {
	s.stepDFF(g, gt.Out,
		s.val[gt.In[netlist.DFFPinD]],
		s.val[gt.In[netlist.DFFPinClk]],
		s.val[gt.In[netlist.DFFPinEn]],
		s.val[gt.In[netlist.DFFPinRstn]],
		gt.Init)
}

// stepDFF is the flip-flop update shared by both engines, parameterized on
// the sampled pin values so the kernel can feed it from packed descriptors.
func (s *Simulator) stepDFF(g netlist.GateID, out netlist.NetID, d, clk, en, rstn, init logic.Value) {
	switch rstn {
	case logic.Lo:
		// Asynchronous reset dominates.
		s.commit(out, init, RegionActive)
		s.lastClk[g] = clk
		return
	case logic.X, logic.Z:
		// Unknown reset: output covers both the reset and held value.
		s.commit(out, logic.MergeValue(s.val[out], init), RegionActive)
	}
	last := s.clkSample(g)
	if clk != last {
		if last == logic.Lo && clk == logic.Hi {
			// Positive edge: sample D gated by EN. Mux merges when the
			// enable is unknown — the conservative register update.
			q := logic.Mux(en, s.val[out], d)
			//symsim:allow SA001 nba reuses its capacity between cycles after the first
			s.nba = append(s.nba, nbaAssign{net: out, val: q})
		} else if !clk.IsKnown() || !last.IsKnown() {
			// An unknown clock sample could be an edge: conservatively
			// merge the captured value into the output.
			q := logic.Mux(en, s.val[out], d)
			//symsim:allow SA001 nba reuses its capacity between cycles after the first
			s.nba = append(s.nba, nbaAssign{net: out, val: logic.MergeValue(s.val[out], q)})
		}
		s.lastClk[g] = clk
	}
}

// clkSample returns the clock level flip-flop g last sampled (a kernel ID
// on the kernel, a netlist ID on the interpreter): lastClk[g], or the
// domain clock's current level while the samples follow it.
//
//symsim:hotpath
func (s *Simulator) clkSample(g netlist.GateID) logic.Value {
	if s.follow {
		return s.val[s.prog.Clock.Net]
	}
	return s.lastClk[g]
}

// evalMem processes one dirty memory: recompute the read port and perform
// edge-triggered writes.
func (s *Simulator) evalMem(id netlist.MemID) {
	m := s.d.Mems[id]
	ms := &s.mem[id]
	if !m.IsROM() {
		clk := s.val[m.Clk]
		last := ms.lastClk
		if clk != last {
			if last == logic.Lo && clk == logic.Hi {
				s.memWrite(m, ms)
			}
			ms.lastClk = clk
		}
	}
	s.memRead(m, ms)
}

// memWrite performs the write port on a rising clock: a known-0 enable
// skips, a known-1 enable with a known address writes the word exactly, an
// unknown enable merges into it (agreeing known bits kept, X otherwise), and
// an unknown address follows the MemX policy — dropped, or merged into every
// word the address could name. Address and data come straight from val, the
// data in chunks of at most 64 bits (netlist.AddMem keeps an address under
// 63).
//
//symsim:hotpath
func (s *Simulator) memWrite(m *netlist.Mem, ms *memState) {
	we := s.val[m.WEn]
	if we == logic.Lo {
		return
	}
	addr, addrX := s.busBits(m.WAddr)
	if addrX != 0 && s.opts.MemX == MemXVerilog {
		return // iverilog reg-array semantics: the write is dropped
	}
	lo, hi := uint64(0), uint64(m.Words)
	if addrX == 0 {
		lo, hi = addr, min(addr+1, hi)
	}
	exact := addrX == 0 && we == logic.Hi
	for off := 0; off < m.DataBits; off += 64 {
		c := min(64, m.DataBits-off)
		da, dx := s.busBits(m.WData[off : off+c])
		for w := lo; w < hi; w++ {
			if (w^addr)&^addrX != 0 {
				continue // a known address bit differs
			}
			at := int(w)*m.DataBits + off
			if exact {
				ms.image.SetWord(at, c, ^dx, da)
				continue
			}
			k, v := ms.image.Word(at, c)
			ms.image.SetWord(at, c, k&^dx&^(v^da), v)
		}
	}
}

// memRead recomputes the asynchronous read port. An unknown or out-of-range
// address reads X (Verilog semantics; xword is the simulator's never-written
// all-X word). Only data bits that differ from their net are committed — a
// forced net holds its forced value, so commit would do nothing there either.
//
//symsim:hotpath
func (s *Simulator) memRead(m *netlist.Mem, ms *memState) {
	word, base := &ms.xword, 0
	if addr, addrX := s.busBits(m.RAddr); addrX == 0 {
		word, base = ms.word(m, addr)
	}
	val := s.val
	for off := 0; off < m.DataBits; off += 64 {
		c := min(64, m.DataBits-off)
		known, level := word.Word(base+off, c)
		for j, d := range m.RData[off : off+c] {
			if q := logic.PlaneBit(known, level, j); val[d] != q {
				s.commit(d, q, RegionActive)
			}
		}
	}
}

// settle drains the Active, Inactive and NBA regions until the time step is
// stable. Dirty gates are evaluated in topological level order, so every
// gate is visited a bounded number of times per wave; combinational edges
// only ever dirty strictly higher levels, and the rare lower-level commit
// (a flip-flop's asynchronous reset rippling back to its own input cone)
// just rewinds the cursor. The Inactive and NBA queues drain through
// double-buffered backing arrays so steady-state stepping never allocates.
func (s *Simulator) settle() error {
	s.deltas = 0
	for {
		if err := s.drainActive(); err != nil {
			return fmt.Errorf("%w at t=%d", err, s.now)
		}
		if s.edgePending {
			s.sampleEdge(s.prog.Clock)
		}
		if len(s.inactiveQ) > 0 {
			batch := s.inactiveQ
			s.inactiveQ = s.inactiveBack[:0]
			s.inactiveBack = batch
			for _, a := range batch {
				s.commit(a.net, a.val, RegionInactive)
			}
			continue
		}
		if len(s.nba) > 0 {
			batch := s.nba
			s.nba = s.nbaBack[:0]
			s.nbaBack = batch
			for _, a := range batch {
				s.commit(a.net, a.val, RegionNBA)
			}
			continue
		}
		return nil
	}
}

// drainActive empties the Active region. Each level drains in sorted
// rounds — see interpLevel/kernelLevel — and a commit that dirties the
// current or a lower level rewinds the cursor. Both engines follow the same
// order, which the differential suite relies on: the kernel jumps from
// marked level to marked level (dirtySet.nextLevel), the interpreter walks
// every level from dirtyLo up.
func (s *Simulator) drainActive() error {
	if s.prog != nil {
		for lvl := s.nextLevel(0); lvl < s.levels; lvl = s.nextLevel(lvl + 1) {
			if err := s.kernelLevel(lvl); err != nil {
				return err
			}
		}
		return nil
	}
	for s.dirtyN > 0 {
		lvl := s.dirtyLo
		s.dirtyLo = s.levels // lowered back by dirtyGate and markMem
		for ; lvl < s.levels; lvl++ {
			if err := s.interpLevel(lvl); err != nil {
				return err
			}
			if s.dirtyLo <= lvl {
				// A commit dirtied this or a lower level; rewind.
				lvl = s.dirtyLo - 1
				s.dirtyLo = s.levels
			}
		}
	}
	return nil
}

// interpLevel runs one sorted round of level lvl on the interpreter: the
// gates (then memories) dirty at round start evaluate in ascending ID
// order; anything dirtied during the round lands in the emptied bucket and
// is picked up by the rewind as the next round.
func (s *Simulator) interpLevel(lvl int32) error {
	if b := s.buckets[lvl]; len(b) > 0 {
		s.scratchG = append(s.scratchG[:0], b...)
		s.buckets[lvl] = b[:0]
		if !slices.IsSorted(s.scratchG) {
			slices.Sort(s.scratchG)
		}
		for _, g := range s.scratchG {
			s.inQ[g] = false
			s.dirtyN--
			s.evalGate(g)
		}
		if err := s.countDeltas(len(s.scratchG)); err != nil {
			return err
		}
	}
	for _, m := range s.takeMems(lvl) {
		s.evalMem(m)
	}
	return nil
}

// Step advances simulation to the next scheduled time point, runs all event
// regions, and returns the resulting status. With no stimulus bound or no
// events remaining it returns an error.
func (s *Simulator) Step() (Status, error) {
	if s.stim == nil {
		return Running, fmt.Errorf("vvp: Step without stimulus")
	}
	t, ok := s.stim.nextTime(s.now, s.stimCursor)
	if !ok {
		return Running, fmt.Errorf("vvp: stimulus exhausted at t=%d", s.now)
	}
	s.now = t
	s.releaseExpired()

	// Active region: apply stimulus assignments scheduled for this time.
	wasPosedge := s.applyStimulus()
	if err := s.settle(); err != nil {
		return Running, err
	}
	if wasPosedge {
		s.cycles++
		if s.toggleCount != nil {
			if s.cycleToggles > s.peakToggles {
				s.peakToggles = s.cycleToggles
				s.peakCycle = s.cycles - 1
			}
			s.cycleToggles = 0
		}
	}

	// Monitor region: value-change recording happens eagerly in commit;
	// the region boundary exists so traces order records before symbolic
	// events, as in Figure 2.

	// Symbolic region (the paper's extension; always last).
	if s.opts.DisableSymbolic || s.monitorSpc == nil {
		return Running, nil
	}
	sp := s.monitorSpc
	if sp.Finish != netlist.NoNet && s.val[sp.Finish] == logic.Hi {
		return Finished, nil
	}
	if sp.BranchActive != netlist.NoNet && s.val[sp.BranchActive] == logic.Hi && !s.Forced(sp.Cond) {
		for _, w := range sp.Watch {
			if !s.val[w].IsKnown() {
				return HaltX, nil
			}
		}
		// The decision wire itself may be X even when every watched bit
		// is known (e.g. a condition derived from an X flag that is not
		// watched); halt then too, or the fork below would capture X.
		if !s.val[sp.Cond].IsKnown() {
			return HaltX, nil
		}
	}
	return Running, nil
}

// applyStimulus commits all input assignments scheduled at the current
// time. It reports whether this step is a clock posedge.
func (s *Simulator) applyStimulus() bool {
	posedge := false
	st := s.stim
	if st.Clock != netlist.NoNet && st.HalfPeriod > 0 && s.now > 0 && s.now%st.HalfPeriod == 0 {
		v := st.clockValueAt(s.now)
		if v == logic.Hi && s.val[st.Clock] != logic.Hi {
			posedge = true
		}
		if s.cleanEdge(st) {
			s.edgeNet = st.Clock
		}
		s.commit(st.Clock, v, RegionActive)
		s.edgeNet = netlist.NoNet
	}
	for s.stimCursor < len(st.Events) && st.Events[s.stimCursor].Time <= s.now {
		// Events at the current time fire normally. Events whose time has
		// already passed — a simulation joining a schedule late, e.g. a
		// restored state re-binding a stimulus mid-run — commit too, in
		// schedule order, so the inputs take their latest scheduled
		// values instead of silently staying X (late-join semantics; the
		// last assignment to a net wins, matching what an on-time run
		// would have left on the wire).
		e := st.Events[s.stimCursor]
		s.commit(e.Net, e.Val, RegionActive)
		s.stimCursor++
	}
	return posedge
}

// Run steps the simulation until a non-Running status, the time limit, or
// an error. maxCycles bounds the clock cycles executed by this call.
func (s *Simulator) Run(maxCycles uint64) (Status, error) {
	start := s.cycles
	for {
		st, err := s.Step()
		if err != nil {
			return st, err
		}
		if st != Running {
			return st, nil
		}
		if s.cycles-start >= maxCycles {
			return Running, fmt.Errorf("vvp: cycle limit %d reached at t=%d", maxCycles, s.now)
		}
	}
}
