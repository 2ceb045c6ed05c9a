package core

import (
	"fmt"
	"time"

	"symsim/internal/netlist"
	"symsim/internal/vvp"
)

// This file holds the run-governance layer: budgets, graceful degradation,
// crash containment and progress reporting. The governing principle is the
// same over-approximation argument as the CSM's conservative merge (paper
// Fig. 3): a run that cannot finish — budget exhausted, context canceled,
// a path segment crashed — must still return a *sound* dichotomy, where
// every gate the full exploration could have exercised is reported
// exercisable. Degradation therefore only ever moves gates from the
// never-exercisable set into the exercisable set, never the other way.

// Budget bounds one co-analysis run. Zero-valued fields are unlimited.
// When a budget trips the run does not error: exploration stops, every
// pending path is force-merged into the CSM, the design's dynamic cone is
// conservatively marked exercisable, and the Result carries Complete=false
// plus a Degradation report describing what happened.
type Budget struct {
	// WallClock bounds elapsed analysis time.
	WallClock time.Duration
	// MaxCycles bounds the total simulated cycles summed over all paths.
	MaxCycles uint64
	// MaxCSMStates bounds the live conservative states in the policy.
	MaxCSMStates int
	// MaxForks bounds the number of X-branch forks taken.
	MaxForks int
}

// Trip identifies what ended exploration early.
type Trip uint8

const (
	// TripNone: no budget tripped (a degraded result with TripNone has
	// quarantined paths instead).
	TripNone Trip = iota
	// TripCanceled: the caller's context was canceled.
	TripCanceled
	// TripWallClock: Budget.WallClock elapsed.
	TripWallClock
	// TripCycles: Budget.MaxCycles simulated cycles were spent.
	TripCycles
	// TripCSMStates: the policy exceeded Budget.MaxCSMStates live states.
	TripCSMStates
	// TripForks: Budget.MaxForks X-branch forks were taken.
	TripForks
)

// String returns a short name for the trip cause.
func (t Trip) String() string {
	switch t {
	case TripNone:
		return "none"
	case TripCanceled:
		return "canceled"
	case TripWallClock:
		return "wall-clock"
	case TripCycles:
		return "cycle-budget"
	case TripCSMStates:
		return "csm-state-budget"
	case TripForks:
		return "fork-budget"
	}
	return fmt.Sprintf("Trip(%d)", uint8(t))
}

// Quarantine records one path segment lost to a panic in its engine or in
// the OnHalt hook. The path is contained — its starting state, panic value
// and stack are preserved for post-mortem — and the run continues;
// soundness is restored by the degradation drain, which over-approximates
// whatever the lost path would have exercised. The lanes of a batch engine
// share its state, so one panic there quarantines every occupied lane.
type Quarantine struct {
	// PathID is the worklist ID of the crashed path segment.
	PathID int
	// PC and Time locate the segment's starting state (both zero for the
	// cold-boot path).
	PC   uint64
	Time uint64
	// Panic is the stringified panic value.
	Panic string
	// Stack is the crashed goroutine's stack trace.
	Stack string
}

// Degradation reports how an incomplete run was kept sound.
type Degradation struct {
	// Trip is the budget (or cancellation) that ended exploration;
	// TripNone when only quarantined paths degraded the run.
	Trip Trip
	// PendingPaths is the number of worklist entries left unexplored when
	// exploration stopped (interrupted in-flight segments included).
	PendingPaths int
	// ForcedMerges counts pending states force-merged into the CSM
	// conservative superstate for their PC.
	ForcedMerges int
	// ConeNets is the number of nets conservatively marked exercisable by
	// the drain (the dynamic cone minus everything already observed
	// toggling).
	ConeNets int
	// ConeGates is the number of gates that became exercisable only
	// through the conservative cone marking.
	ConeGates int
	// Quarantined lists the crashed, contained path segments.
	Quarantined []Quarantine
}

// Progress is one heartbeat snapshot of a running analysis, delivered to
// Config.Progress.
type Progress struct {
	// Elapsed is the time since Analyze started exploring.
	Elapsed time.Duration
	// PathsDone counts absorbed path segments; PathsPending the worklist
	// backlog; PathsInFlight the segments currently simulating.
	PathsDone, PathsPending, PathsInFlight int
	// SimulatedCycles is the running cycle total, including partial
	// progress of in-flight segments.
	SimulatedCycles uint64
	// CSMStates is the number of conservative states currently live.
	CSMStates int
}

// ValidationError reports an invalid Platform or Config field, detected
// up front so a misconfigured run fails with a typed error instead of a
// silent default or a panic deep inside a path worker.
type ValidationError struct {
	// Field names the offending field, e.g. "Platform.HalfPeriod".
	Field string
	// Reason says what is wrong with it.
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("core: invalid %s: %s", e.Field, e.Reason)
}

// validate rejects Platform/Config values that previously produced silent
// defaults or downstream panics. It runs before the lint pre-check, the
// design freeze and any simulator construction.
func validate(p *Platform, cfg *Config) error {
	if p == nil {
		return &ValidationError{Field: "Platform", Reason: "nil"}
	}
	if p.Design == nil {
		return &ValidationError{Field: "Platform.Design", Reason: "nil netlist"}
	}
	if p.Spec == nil {
		return &ValidationError{Field: "Platform.Spec", Reason: "nil state specification"}
	}
	if p.HalfPeriod == 0 {
		return &ValidationError{Field: "Platform.HalfPeriod", Reason: "zero clock half-period"}
	}
	if p.ResetCycles < 0 {
		return &ValidationError{Field: "Platform.ResetCycles", Reason: fmt.Sprintf("negative (%d)", p.ResetCycles)}
	}
	if len(p.Design.Inputs) < 2 {
		return &ValidationError{Field: "Platform.Design", Reason: "fewer than two primary inputs (clock and rst_n required)"}
	}
	if cfg.Workers < 0 {
		return &ValidationError{Field: "Config.Workers", Reason: fmt.Sprintf("negative (%d)", cfg.Workers)}
	}
	if cfg.Budget.WallClock < 0 {
		return &ValidationError{Field: "Config.Budget.WallClock", Reason: "negative duration"}
	}
	if cfg.Budget.MaxCSMStates < 0 {
		return &ValidationError{Field: "Config.Budget.MaxCSMStates", Reason: fmt.Sprintf("negative (%d)", cfg.Budget.MaxCSMStates)}
	}
	if cfg.Budget.MaxForks < 0 {
		return &ValidationError{Field: "Config.Budget.MaxForks", Reason: fmt.Sprintf("negative (%d)", cfg.Budget.MaxForks)}
	}
	if cfg.Checkpoint != nil {
		if cfg.Checkpoint.Path == "" {
			return &ValidationError{Field: "Config.Checkpoint.Path", Reason: "empty path"}
		}
		if cfg.Checkpoint.Interval < 0 {
			return &ValidationError{Field: "Config.Checkpoint.Interval", Reason: "negative duration"}
		}
	}
	if cfg.ProgressEvery < 0 {
		return &ValidationError{Field: "Config.ProgressEvery", Reason: "negative duration"}
	}
	if cfg.Engine != vvp.EngineKernel && cfg.Engine != vvp.EngineInterp && cfg.Engine != vvp.EngineBatch {
		return &ValidationError{Field: "Config.Engine", Reason: fmt.Sprintf("unknown engine %d", cfg.Engine)}
	}
	return nil
}

// dynamicCone marks every net whose value can still change after the
// design has settled: the forward cone of all primary inputs (the clock
// and reset among them), all flip-flop outputs and all writable-memory
// read ports. Everything outside the cone is driven purely by constant
// logic and cannot toggle in ANY execution, so marking the whole cone
// exercisable is a sound over-approximation of every unexplored path's
// toggle activity — the degradation drain's counterpart of the CSM's
// conservative merge. Requires a frozen design (fanout tables).
func dynamicCone(d *netlist.Netlist) []bool {
	cone := make([]bool, len(d.Nets))
	var queue []netlist.NetID
	mark := func(n netlist.NetID) {
		if n != netlist.NoNet && !cone[n] {
			cone[n] = true
			queue = append(queue, n)
		}
	}
	for _, in := range d.Inputs {
		mark(in)
	}
	for gi := range d.Gates {
		if d.Gates[gi].Kind == netlist.KindDFF {
			mark(d.Gates[gi].Out)
		}
	}
	for _, m := range d.Mems {
		if !m.IsROM() {
			for _, rd := range m.RData {
				mark(rd)
			}
		}
	}
	memMarked := make([]bool, len(d.Mems))
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, g := range d.Fanout(n) {
			mark(d.Gates[g].Out)
		}
		for _, mi := range d.MemFanout(n) {
			// Any pin in the cone (address, write data, clock, enable)
			// conservatively taints the memory's read data.
			if !memMarked[mi] {
				memMarked[mi] = true
				for _, rd := range d.Mems[mi].RData {
					mark(rd)
				}
			}
		}
	}
	return cone
}
