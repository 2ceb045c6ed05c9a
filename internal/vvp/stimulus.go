package vvp

import (
	"cmp"
	"slices"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

// InputEvent schedules one assignment to a primary input.
type InputEvent struct {
	Time uint64
	Net  netlist.NetID
	Val  logic.Value
}

// Stimulus is the testbench schedule bound to a simulator: a free-running
// clock plus a sorted list of input assignments (reset sequence, X
// initialization of application inputs — the Listing 1 testbench of the
// paper, expressed as data).
type Stimulus struct {
	// Clock is the clock net, toggling every HalfPeriod time units,
	// starting low at t=0 (first posedge at t=HalfPeriod).
	Clock      netlist.NetID
	HalfPeriod uint64
	// Events holds input assignments sorted by time.
	Events []InputEvent
}

// NewStimulus returns a stimulus with the given clock. Call At to schedule
// input events, then Finalize (or rely on BindStimulus order) before use.
func NewStimulus(clock netlist.NetID, halfPeriod uint64) *Stimulus {
	return &Stimulus{Clock: clock, HalfPeriod: halfPeriod}
}

// At schedules net := val at the given time.
func (st *Stimulus) At(time uint64, net netlist.NetID, val logic.Value) {
	st.Events = append(st.Events, InputEvent{Time: time, Net: net, Val: val})
}

// Finalize sorts the event schedule by time (stable, preserving insertion
// order within one time point). It allocates nothing.
func (st *Stimulus) Finalize() {
	slices.SortStableFunc(st.Events, func(a, b InputEvent) int { return cmp.Compare(a.Time, b.Time) })
}

// clockValueAt returns the clock level for times in [t, t+HalfPeriod) where
// t is a multiple of HalfPeriod: low on even half-periods, high on odd.
func (st *Stimulus) clockValueAt(t uint64) logic.Value {
	if st.HalfPeriod == 0 {
		return logic.Lo
	}
	if (t/st.HalfPeriod)%2 == 1 {
		return logic.Hi
	}
	return logic.Lo
}

// nextTime returns the next event time strictly after now: the earlier of
// the next clock toggle and the next scheduled input event.
func (st *Stimulus) nextTime(now uint64, cursor int) (uint64, bool) {
	var next uint64
	have := false
	if st.Clock != netlist.NoNet && st.HalfPeriod > 0 {
		next = (now/st.HalfPeriod + 1) * st.HalfPeriod
		have = true
	}
	for i := cursor; i < len(st.Events); i++ {
		if st.Events[i].Time > now {
			if !have || st.Events[i].Time < next {
				next = st.Events[i].Time
			}
			have = true
			break
		}
	}
	return next, have
}

// inputValueAt returns the last value scheduled for net at or before time t,
// and whether any assignment existed. Used when restoring saved states to
// re-establish primary-input levels.
func (st *Stimulus) inputValueAt(net netlist.NetID, t uint64) (logic.Value, bool) {
	val, ok := logic.X, false
	for _, e := range st.Events {
		if e.Time > t {
			break
		}
		if e.Net == net {
			val, ok = e.Val, true
		}
	}
	return val, ok
}
