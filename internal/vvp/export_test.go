package vvp

import (
	"math/rand"
	"testing"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

// CheckInvariants is checkInvariants for the external tests, which reach
// the processors.
func (s *Simulator) CheckInvariants(t testing.TB, ctx string) { s.checkInvariants(t, ctx) }

// CheckInvariants is checkInvariants for the external tests.
func (s *BatchSim) CheckInvariants(t testing.TB, ctx string) { s.checkInvariants(t, ctx) }

// MovedTrial is movedTrial for the external tests, which reach the
// processors.
func MovedTrial(t testing.TB, ctx string, r *rand.Rand, s *Simulator, sp *StateSpec, states []State, force netlist.NetID, hp uint64, segments, steps int) {
	t.Helper()
	movedTrial(t, ctx, r, s, sp, states, force, hp, segments, steps)
}

// ReplayTrial is replayTrial for the external tests, which reach the
// processors.
func ReplayTrial(t testing.TB, ctx string, r *rand.Rand, mk func() *Simulator, sp *StateSpec, base State, force netlist.NetID, v logic.Value, hp uint64, gens, steps int) uint64 {
	t.Helper()
	return replayTrial(t, ctx, r, mk, sp, base, force, v, hp, gens, steps)
}
