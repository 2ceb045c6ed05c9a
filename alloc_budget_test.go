package symsim_test

import (
	"reflect"
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

// reachable returns the bytes v points to beyond its own storage: backing
// arrays at their capacity, pointees, and whatever those reach in turn.
func reachable(v reflect.Value) uintptr {
	var n uintptr
	switch v.Kind() {
	case reflect.Slice:
		n = uintptr(v.Cap()) * v.Type().Elem().Size()
		for i := 0; i < v.Len(); i++ {
			n += reachable(v.Index(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			n = v.Type().Elem().Size() + reachable(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += reachable(v.Field(i))
		}
	}
	return n
}

// TestProgramFootprint pins the size of the compiled tables of each
// processor — what every process that touches the design keeps for good,
// and so the part of peak RSS that compile decides. The fanout runs (one
// 16-byte run where the per-gate CSR had 1.8 four-byte entries, and a
// second copy per gate for the level round's in-line commit) took bm32 from
// 963,220 B to 1,435,772, openMSP430 from 318,844 to 478,068 and dr5 from
// 249,268 to 368,788; the flip-flops' data pins in a table of their own (a
// four-byte index per net, and the runs moved there) and one flip-flop mask
// bit per gate took them to 1,503,072, 500,148 and 383,032; the clock
// domain's enable groups, with its member table built at exact capacity,
// to 1,500,636, 499,456 and 379,700; dropping the per-level memory lists,
// which nothing read, to 1,499,780, 498,900 and 379,304. The budgets sit
// 2 % above that, so another fanout table, or runs built with slack
// capacity, fails here.
func TestProgramFootprint(t *testing.T) {
	for _, c := range []struct {
		design symsim.Design
		bytes  uintptr
	}{
		{symsim.BM32, 1_529_800},
		{symsim.OMSP430, 508_900},
		{symsim.DR5, 386_900},
	} {
		p, err := symsim.BuildPlatform(c.design, "tea8")
		if err != nil {
			t.Fatal(err)
		}
		bytes := reachable(reflect.ValueOf(p.Design.Program()))
		t.Logf("%s: compiled tables %d B", c.design, bytes)
		if bytes > c.bytes {
			t.Errorf("%s: compiled tables take %d B, budget %d", c.design, bytes, c.bytes)
		}
	}
}
