package vvp

import (
	"testing"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

func TestStimulusNextTime(t *testing.T) {
	st := NewStimulus(0, 5)
	st.At(7, 1, logic.Hi)
	st.At(3, 1, logic.Lo)
	st.Finalize()
	// Events must be sorted by Finalize.
	if st.Events[0].Time != 3 {
		t.Fatalf("Finalize did not sort: %+v", st.Events)
	}
	// From t=0 the next event is the t=3 input, before the t=5 toggle.
	if next, ok := st.nextTime(0, 0); !ok || next != 3 {
		t.Errorf("nextTime(0) = %d, %v", next, ok)
	}
	// From t=3 the clock toggle at 5 comes first.
	if next, ok := st.nextTime(3, 1); !ok || next != 5 {
		t.Errorf("nextTime(3) = %d, %v", next, ok)
	}
	// From t=5 the t=7 event precedes the t=10 toggle.
	if next, ok := st.nextTime(5, 1); !ok || next != 7 {
		t.Errorf("nextTime(5) = %d, %v", next, ok)
	}
}

func TestStimulusWithoutClockExhausts(t *testing.T) {
	st := NewStimulus(netlist.NoNet, 0)
	st.At(2, 0, logic.Hi)
	st.Finalize()
	if next, ok := st.nextTime(0, 0); !ok || next != 2 {
		t.Errorf("nextTime = %d, %v", next, ok)
	}
	if _, ok := st.nextTime(2, 1); ok {
		t.Error("exhausted stimulus still has events")
	}
}

func TestStimulusClockPhase(t *testing.T) {
	st := NewStimulus(0, 5)
	cases := map[uint64]logic.Value{0: logic.Lo, 4: logic.Lo, 5: logic.Hi, 9: logic.Hi, 10: logic.Lo, 15: logic.Hi}
	for tm, want := range cases {
		if got := st.clockValueAt(tm); got != want {
			t.Errorf("clock at %d = %v, want %v", tm, got, want)
		}
	}
}

func TestStimulusInputValueAt(t *testing.T) {
	st := NewStimulus(0, 5)
	st.At(1, 2, logic.Lo)
	st.At(11, 2, logic.Hi)
	st.Finalize()
	if v, ok := st.inputValueAt(2, 0); ok || v != logic.X {
		t.Errorf("before first event: %v, %v", v, ok)
	}
	if v, ok := st.inputValueAt(2, 5); !ok || v != logic.Lo {
		t.Errorf("between events: %v, %v", v, ok)
	}
	if v, ok := st.inputValueAt(2, 11); !ok || v != logic.Hi {
		t.Errorf("at second event: %v, %v", v, ok)
	}
	if v, ok := st.inputValueAt(3, 99); ok || v != logic.X {
		t.Errorf("unknown net: %v, %v", v, ok)
	}
}

// TestInactiveRegionOrdering verifies the Figure 2 region order: a #0
// assignment lands after the Active events of the step but before NBA
// flip-flop updates are visible to it.
func TestInactiveRegionOrdering(t *testing.T) {
	m := newTestCounter(t)
	tr := &Trace{}
	s := New(m.d, Options{Trace: tr})
	s.BindStimulus(m.stim)
	// Step past the reset release so a #0 reset reassertion is a change.
	for s.Cycles() < 3 {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Queue a #0 assignment on a primary input and step: the trace must
	// show the inactive-region commit after active commits of that step.
	s.ScheduleZeroDelay(m.d.Inputs[1], logic.Lo) // reassert reset via #0
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	sawInactive := false
	for _, e := range tr.Events {
		if e.Region == RegionInactive {
			sawInactive = true
		}
	}
	if !sawInactive {
		t.Fatal("no inactive-region event recorded")
	}
	// The #0 reset must have cleared the counter (reset is asynchronous).
	if v, ok := s.VecValue(m.q).Uint64(); !ok || v != 0 {
		t.Fatalf("counter after #0 reset = %s", s.VecValue(m.q))
	}
}

// newTestCounter wraps counterDesign with a standard stimulus.
type testCounter struct {
	d    *netlist.Netlist
	q    []netlist.NetID
	stim *Stimulus
}

func newTestCounter(t *testing.T) *testCounter {
	t.Helper()
	d, q := counterDesign(t)
	st := NewStimulus(d.Inputs[0], hp)
	st.At(1, d.Inputs[1], logic.Lo)
	st.At(2*hp+1, d.Inputs[1], logic.Hi)
	st.Finalize()
	return &testCounter{d: d, q: q, stim: st}
}

// TestStimulusFinalizeAllocatesNothing: Platform.Stimulus finalizes one
// stimulus per analysis, so the sort must not allocate (sort.SliceStable
// made a reflect swapper each call). The stimulus is long enough for the
// stable sort to merge blocks, and its ties must keep insertion order.
func TestStimulusFinalizeAllocatesNothing(t *testing.T) {
	st := NewStimulus(0, 5)
	for i := 0; i < 50; i++ {
		st.At(uint64(50-i)%7, netlist.NetID(i), logic.Hi)
	}
	if n := testing.AllocsPerRun(10, st.Finalize); n != 0 {
		t.Errorf("Finalize allocates %v times, want 0", n)
	}
	for i := 1; i < len(st.Events); i++ {
		a, b := st.Events[i-1], st.Events[i]
		if a.Time > b.Time || a.Time == b.Time && a.Net > b.Net {
			t.Fatalf("events %d and %d out of stable order: %+v, %+v", i-1, i, a, b)
		}
	}
}
