package csm

import (
	"symsim/internal/vvp"
)

// DecisionEvent describes the outcome of one Observe call for observers:
// the decision log entry behind `symsim explain` and the per-PC
// merge/skip metrics.
type DecisionEvent struct {
	// PC is the program counter the observed state is indexed by.
	PC uint64
	// Verdict is "subsumed" (covered by a stored state, path skipped),
	// "new" (stored as an additional conservative state) or "merged"
	// (absorbed into an existing state, producing a superstate).
	Verdict string
	// XGained is the number of known bits the merge turned unknown —
	// the over-approximation cost of this decision. Zero unless Verdict
	// is "merged".
	XGained int
	// States is the number of conservative states stored after the call.
	States int
}

// Decision verdict values.
const (
	VerdictSubsumed = "subsumed"
	VerdictNew      = "new"
	VerdictMerged   = "merged"
)

// instrumented wraps a Manager and reports every Observe outcome to a
// hook. It derives the verdict from the table size and the bit-count
// delta, so it works across all four policies without touching their
// internals; Name delegates, so checkpoint policy validation still sees
// the inner policy's identity.
//
// The verdict derivation reads States() around Observe, which is only
// meaningful when Observe calls are externally serialized — true in core,
// where classification runs under the scheduler lock (the same discipline
// that makes checkpoint cuts consistent).
type instrumented struct {
	inner Manager
	hook  func(DecisionEvent)
}

// Instrument wraps mgr so every Observe reports a DecisionEvent to hook.
// A nil hook returns mgr unchanged.
func Instrument(mgr Manager, hook func(DecisionEvent)) Manager {
	if hook == nil {
		return mgr
	}
	return &instrumented{inner: mgr, hook: hook}
}

func (i *instrumented) Name() string                     { return i.inner.Name() }
func (i *instrumented) States() int                      { return i.inner.States() }
func (i *instrumented) Export() []SavedState             { return i.inner.Export() }
func (i *instrumented) Import(states []SavedState) error { return i.inner.Import(states) }

func (i *instrumented) Observe(st vvp.State) Decision {
	before := i.inner.States()
	xBefore := st.Bits.CountX()
	d := i.inner.Observe(st)
	after := i.inner.States()

	ev := DecisionEvent{PC: st.PC, States: after}
	switch {
	case d.Subsumed:
		ev.Verdict = VerdictSubsumed
	case after > before:
		ev.Verdict = VerdictNew
	default:
		ev.Verdict = VerdictMerged
		ev.XGained = d.Explore.Bits.CountX() - xBefore
	}
	i.hook(ev)
	return d
}
