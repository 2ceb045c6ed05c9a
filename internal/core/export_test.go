package core

import (
	"symsim/internal/logic"
	"symsim/internal/vvp"
)

// KeepSuperseded returns cfg with frontier supersession turned off, so a
// test can compare a run against plain Algorithm 1.
func KeepSuperseded(cfg Config) Config {
	cfg.keepSuperseded = true
	return cfg
}

// DisablePrune returns cfg with constraint-aware fork pruning turned off,
// so a test can compare a constrained run against the unpruned one.
func DisablePrune(cfg Config) Config {
	cfg.disablePrune = true
	return cfg
}

// SkipLint returns cfg with the structural pre-check turned off, so a test
// can reach what Freeze and the engines do with a design lint rejects.
func SkipLint(cfg Config) Config {
	cfg.skipLint = true
	return cfg
}

// MaxCyclesPerPath returns cfg with the per-path cycle limit lowered to n,
// so a test can trip it on a short program.
func MaxCyclesPerPath(cfg Config, n uint64) Config {
	cfg.maxCyclesPerPath = n
	return cfg
}

// MaxPaths returns cfg with the created-path cap lowered to n, so a test
// can exhaust it on a short program.
func MaxPaths(cfg Config, n int) Config {
	cfg.maxPaths = n
	return cfg
}

// Lanes returns cfg with the batch engine's lane cap set to n (1..64), so
// a test can drive the explorer with fewer lanes than segments.
func Lanes(cfg Config, n int) Config {
	cfg.lanes = n
	return cfg
}

// StrandSuperseded replaces r's frontier with one forked child that a
// strictly wider sibling — already popped — supersedes: the next Admit
// drops it and finds the run exhausted.
func StrandSuperseded(r *Run) {
	a := r.a
	a.mu.Lock()
	defer a.mu.Unlock()
	narrow := vvp.State{Bits: logic.MustVec("01"), PC: 0x40, PCKnown: true}
	a.front = frontier{}
	a.front.pushFork(entry{state: narrow, forced: logic.Hi, hasForce: true})
	a.front.latest[forkKey{narrow.PC, logic.Hi}] = logic.MustVec("XX")
}
