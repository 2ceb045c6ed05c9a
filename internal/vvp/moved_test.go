package vvp

import (
	"fmt"
	"math/rand"
	"testing"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

// The moved contract (DESIGN.md §8 "The moved set"): a reader that consumed
// the profile — zeroed Toggled and Moved — saw every net's value then, and
// from then on every net whose value differs from what the reader saw is in
// Toggled | Moved, however many restores, forces, steps and unread profiles
// come between. core's absorb reads only those nets.

// movedReader is a reader of the profile: it consumes it the way absorb
// does and keeps the values the nets held then. Before its first
// consumption it has seen nothing, so every net differs from its shadow and
// a fresh simulator must name every net.
type movedReader struct{ shadow []logic.Value }

func newMovedReader(s *Simulator) *movedReader {
	r := &movedReader{shadow: make([]logic.Value, len(s.Values()))}
	for n := range r.shadow {
		r.shadow[n] = logic.Z + 1 // no net's value
	}
	return r
}

// consume zeroes the profile and the moved set and records every value.
func (r *movedReader) consume(s *Simulator) {
	toggled, moved := s.Toggled(), s.Moved()
	for i := range toggled {
		toggled[i], moved[i] = 0, 0
	}
	r.shadow = append(r.shadow[:0], s.Values()...)
}

// check asserts the kernel's contract (checkInvariants, which holds the
// two bitmaps to one bit per net) and the moved contract: every net that
// moved since the consumption is named.
func (r *movedReader) check(t testing.TB, ctx string, s *Simulator) {
	t.Helper()
	s.checkInvariants(t, ctx)
	toggled, moved := s.Toggled(), s.Moved()
	for n, v := range s.Values() {
		if v != r.shadow[n] && (toggled[n>>6]|moved[n>>6])>>(n&63)&1 == 0 {
			t.Fatalf("%s: net %s moved %v -> %v since the profile was consumed, and is neither toggled nor moved",
				ctx, s.Design().NetName(netlist.NetID(n)), r.shadow[n], v)
		}
	}
}

// movedTrial drives s through segments the way an explorer drives its
// simulator, and holds it to the moved contract after every operation from
// construction on, with a first consumption before anything records. A
// segment restores one of states, forces net force (when it is one) for
// three half-periods of hp half the time, starts recording and steps up to
// steps times; two segments in three end absorbed — the reader consumes —
// and the rest are dropped unread. s must have its stimulus bound and
// nothing else done to it.
func movedTrial(t testing.TB, ctx string, r *rand.Rand, s *Simulator, sp *StateSpec, states []State, force netlist.NetID, hp uint64, segments, steps int) {
	t.Helper()
	reader := newMovedReader(s)
	reader.check(t, ctx+": fresh", s)
	// A reader may consume before anything records: what commits from then
	// on is moved until StartRecording.
	reader.consume(s)
	for seg := 0; seg < segments; seg++ {
		at := fmt.Sprintf("%s: segment %d", ctx, seg)
		if err := s.Restore(sp, states[r.Intn(len(states))]); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		reader.check(t, at+" restored", s)
		if force != netlist.NoNet && r.Intn(2) == 0 {
			s.Force(force, logic.Value(r.Intn(2)), s.Now()+3*hp)
			reader.check(t, at+" forced", s)
		}
		s.StartRecording()
		reader.check(t, at+" recording", s)
		for i := r.Intn(steps + 1); i > 0; i-- {
			if _, err := s.Step(); err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			reader.check(t, fmt.Sprintf("%s t=%d", at, s.Now()), s)
		}
		if r.Intn(3) != 0 {
			reader.consume(s)
		}
	}
}

// TestMovedCoversEveryChange holds both scalar engines to the moved
// contract on random circuits of every shape and stimulus twist: the
// restored states are snapshots of a run of the same circuit, taken in and
// out of reset, across forces and twisted clocks. The processors are
// TestMovedCoversEveryChangeOnProcessors.
func TestMovedCoversEveryChange(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		shape, stim := drawShapes(r)
		n, ins := randCircuit(r, 2+r.Intn(3), 2+r.Intn(4), 10+r.Intn(40), r.Intn(2) == 0, shape)
		st := randStimulus(r, n, ins, 10)
		twistStimulus(r, st, n, ins, 10, stim)
		sp, err := SpecFor(n, "")
		if err != nil {
			t.Fatal(err)
		}
		ref := New(n, Options{})
		ref.BindStimulus(st)
		var states []State
		for step := 0; step < 60; step++ {
			if _, err := ref.Step(); err != nil {
				t.Fatal(err)
			}
			if step%7 == 3 {
				states = append(states, ref.Snapshot(sp))
			}
		}
		for _, eng := range []Engine{EngineKernel, EngineInterp} {
			s := New(n, Options{Engine: eng})
			s.BindStimulus(st)
			movedTrial(t, fmt.Sprintf("seed %d shape %#x stim %#x %v", seed, shape, stim, eng),
				r, s, sp, states, n.Outputs[0], hp, 12, 12)
		}
	}
}
