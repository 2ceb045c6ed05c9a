package vvp

import "testing"

// CheckInvariants is checkInvariants for the external tests, which reach
// the processors.
func (s *Simulator) CheckInvariants(t testing.TB, ctx string) { s.checkInvariants(t, ctx) }

// CheckInvariants is checkInvariants for the external tests.
func (s *BatchSim) CheckInvariants(t testing.TB, ctx string) { s.checkInvariants(t, ctx) }
