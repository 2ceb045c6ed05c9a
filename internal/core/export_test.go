package core

import (
	"context"
	"time"

	"symsim/internal/logic"
	"symsim/internal/vvp"
)

// KeepSuperseded returns cfg with frontier supersession turned off, so a
// test can compare a run against plain Algorithm 1.
func KeepSuperseded(cfg Config) Config {
	cfg.keepSuperseded = true
	return cfg
}

// AllMoved returns cfg with every segment's outcome naming every net moved,
// so a test can compare absorb over the moved set against absorb over
// every net that is not yet exercisable.
func AllMoved(cfg Config) Config {
	cfg.allMoved = true
	return cfg
}

// NoReplay returns cfg with the replay of widened segments turned off, so a
// test can compare every segment run in full against the replay.
func NoReplay(cfg Config) Config {
	cfg.noReplay = true
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

// dropSource is an analysis as the source of its one explorer, except that
// the segment with path ID drop is put back, as a lapsed lease puts one
// back, just before its first settle: that settle finds it no longer in
// flight and drops its outcome unabsorbed. The entry is admitted again
// under its ID and simulated anew.
type dropSource struct {
	*analysis
	drop    int
	dropped bool
}

func (d *dropSource) settle(out *pathOutcome, wall time.Duration) bool {
	if out.stat.ID == d.drop && !d.dropped {
		d.dropped = true
		d.mu.Lock()
		d.putBack(out.stat.ID)
		d.mu.Unlock()
	}
	return d.analysis.settle(out, wall)
}

// AnalyzeDropping is Analyze with one explorer that drops the outcome of
// path drop unabsorbed once (dropSource), and reports whether it did.
func AnalyzeDropping(p *Platform, cfg Config, drop int) (*Result, bool, error) {
	r, err := Open(context.Background(), p, cfg)
	if err != nil {
		return nil, false, err
	}
	src := &dropSource{analysis: r.a, drop: drop}
	x := explorer{p: p, cfg: &r.a.cfg, src: src, replays: true}
	if err := x.explore(); err != nil {
		r.a.fail(err)
	}
	res, err := r.Wait()
	return res, src.dropped, err
}

// ReplayBytes returns the log storage each replay store the pool of p's
// design holds keeps.
func ReplayBytes(p *Platform) []int {
	rp := p.replays()
	rp.mu.Lock()
	defer rp.mu.Unlock()
	var out []int
	for _, rs := range rp.free {
		n := 0
		for _, l := range rs.all {
			n += l.Bytes()
		}
		out = append(out, n)
	}
	return out
}
