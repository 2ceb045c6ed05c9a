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

// The sinks keep a measured allocation reachable, so the compiler cannot
// drop it; they are typed, so storing into them boxes nothing.
var (
	tieSink  []symsim.TieOff
	byteSink []byte
)

// TestAllocationBudget pins what one Analyze allocates (kernel engine, one
// worker, merge-all) on the fork-heavy inSort cells and on bm32's single
// path: its Result, one simulator, and what the frontier and the CSM keep —
// one state vector per fork, two where the platform specializes its
// children. A segment allocates nothing else: no trace record without a
// tracer, no outcome on the heap. The budgets sit ~7 % above what a run
// measures (the race detector adds ~3 % to the bytes), below what a second
// simulator per run, a second state copy per fork or one heap object per
// segment (191, 95 and 191 segments on the inSort cells) would add, so any
// of them coming back fails here. Before the fork path stopped
// re-allocating the machine the four cells measured 1,811,056 B / 7,250
// objects, 613,360 / 6,251, 1,519,072 / 7,249 and 258,032 / 2,646; before
// the trace records and the outcome left the segment's heap, 503,376 /
// 668, 216,512 / 423, 363,984 / 667 and 147,104 / 71; before the toggle
// profile and the analysis's net sets became bitmaps, 438,320 / 182,
// 184,224 / 177, 299,024 / 182 and 146,864 / 63.
//
// The tie-off list is one slice of its final length: Result.TieOffs makes
// one allocation of at most 8 B per tie-off, rounded up as the allocator
// rounds a request of that size.
func TestAllocationBudget(t *testing.T) {
	for _, c := range []struct {
		design         symsim.Design
		bench          string
		bytes, mallocs uint64
	}{
		{symsim.BM32, "inSort", 440_000, 195},
		{symsim.OMSP430, "inSort", 187_000, 190},
		{symsim.DR5, "inSort", 312_000, 195},
		{symsim.BM32, "tea8", 128_000, 68},
	} {
		p, err := symsim.BuildPlatform(c.design, c.bench)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		var res *symsim.Result
		bytes, mallocs := measureAllocs(func() {
			if res, err = symsim.Analyze(p, symsim.Config{Metrics: reg}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s/%s: %d B, %d mallocs per Analyze", c.design, c.bench, bytes, mallocs)
		if bytes > c.bytes || mallocs > c.mallocs {
			t.Errorf("%s/%s: Analyze allocated %d B in %d objects, budget %d B in %d",
				c.design, c.bench, bytes, mallocs, c.bytes, c.mallocs)
		}

		n := res.TotalGates - res.ExercisableCount
		want, _ := measureAllocs(func() { byteSink = make([]byte, 8*n) })
		bytes, mallocs = measureAllocs(func() { tieSink = res.TieOffs() })
		t.Logf("%s/%s: TieOffs %d B, %d mallocs for %d tie-offs", c.design, c.bench, bytes, mallocs, n)
		if got := len(res.TieOffs()); got != n || mallocs != 1 || bytes > want {
			t.Errorf("%s/%s: TieOffs listed %d of %d tie-offs in %d B and %d objects, budget %d B in 1",
				c.design, c.bench, got, n, bytes, mallocs, want)
		}
	}

	// A simulator is the machine's mutable state and nothing else: net
	// values, flip-flop clocks, dirty bitmaps, the toggle profile and moved
	// set at a bit per net, the RAM slab. The ROM is the view's own Init,
	// shared (160,360 B in 2,588 objects when every ROM and RAM word was
	// cloned on its own; 68,000 B in 15 when the profile took a byte per
	// net).
	p, err := symsim.BuildPlatform(symsim.BM32, "tea8")
	if err != nil {
		t.Fatal(err)
	}
	bytes, mallocs := measureAllocs(func() { vvp.New(p.Design, vvp.Options{}) })
	t.Logf("vvp.New on bm32: %d B, %d mallocs", bytes, mallocs)
	if bytes > 58_000 || mallocs > 40 {
		t.Errorf("vvp.New on bm32 allocated %d B in %d objects, budget %d B in 40", bytes, mallocs, 58_000)
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
