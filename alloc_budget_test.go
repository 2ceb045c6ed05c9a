package symsim_test

import (
	"runtime"
	"testing"

	"symsim"
	"symsim/internal/obs"
	"symsim/internal/vvp"
)

// measureAllocs returns the bytes and heap objects f allocates, the smallest
// of three runs: the first pays lazy one-offs (the frozen design's compiled
// Program, metric families), and a background goroutine may allocate beside
// any single one.
func measureAllocs(f func()) (bytes, mallocs uint64) {
	bytes, mallocs = ^uint64(0), ^uint64(0)
	for i := 0; i < 3; i++ {
		var a, b runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		bytes = min(bytes, b.TotalAlloc-a.TotalAlloc)
		mallocs = min(mallocs, b.Mallocs-a.Mallocs)
	}
	return bytes, mallocs
}

// TestAllocationBudget pins what one Analyze allocates (kernel engine, one
// worker, merge-all) on the fork-heavy inSort cells and on bm32's single
// path: a segment allocates what the frontier and the CSM keep — one state
// vector per fork, two where the platform specializes its children — and a
// run builds one simulator. The byte budgets sit ~7 % above what a run
// measures (the race detector adds ~3 %), below what a second simulator per
// run or a second state copy per fork would add, so either coming back
// fails here. Before the fork path stopped re-allocating the machine the
// four cells measured 1,811,056 B / 7,250 objects, 613,360 / 6,251,
// 1,519,072 / 7,249 and 258,032 / 2,646.
func TestAllocationBudget(t *testing.T) {
	for _, c := range []struct {
		design         symsim.Design
		bench          string
		bytes, mallocs uint64
	}{
		{symsim.BM32, "inSort", 560_000, 1_100},
		{symsim.OMSP430, "inSort", 255_000, 650},
		{symsim.DR5, "inSort", 408_000, 1_100},
		{symsim.BM32, "tea8", 180_000, 100},
	} {
		p, err := symsim.BuildPlatform(c.design, c.bench)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		bytes, mallocs := measureAllocs(func() {
			if _, err := symsim.Analyze(p, symsim.Config{Metrics: reg}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s/%s: %d B, %d mallocs per Analyze", c.design, c.bench, bytes, mallocs)
		if bytes > c.bytes || mallocs > c.mallocs {
			t.Errorf("%s/%s: Analyze allocated %d B in %d objects, budget %d B in %d",
				c.design, c.bench, bytes, mallocs, c.bytes, c.mallocs)
		}
	}

	// A simulator is the machine's mutable state and nothing else: net
	// values, flip-flop clocks, dirty bitmaps, the RAM slab. The ROM is the
	// view's own Init, shared (160,360 B in 2,588 objects when every ROM and
	// RAM word was cloned on its own).
	p, err := symsim.BuildPlatform(symsim.BM32, "tea8")
	if err != nil {
		t.Fatal(err)
	}
	bytes, mallocs := measureAllocs(func() { vvp.New(p.Design, vvp.Options{}) })
	t.Logf("vvp.New on bm32: %d B, %d mallocs", bytes, mallocs)
	if bytes > 100<<10 || mallocs > 40 {
		t.Errorf("vvp.New on bm32 allocated %d B in %d objects, budget %d B in 40", bytes, mallocs, 100<<10)
	}
}
