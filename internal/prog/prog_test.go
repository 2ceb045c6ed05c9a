package prog

import (
	"fmt"
	"sort"
	"testing"

	"symsim/internal/core"
	"symsim/internal/cpu/bm32"
	"symsim/internal/cpu/cputest"
	"symsim/internal/cpu/dr5"
	"symsim/internal/cpu/omsp430"
	"symsim/internal/isa"
	"symsim/internal/logic"
	"symsim/internal/vvp"
)

// buildPlatform assembles benchmark b for target and elaborates the core.
func buildPlatform(t *testing.T, b string, target ISA, concrete map[int]uint64) (*core.Platform, int) {
	t.Helper()
	img, err := Build(b, target)
	if err != nil {
		t.Fatal(err)
	}
	width := 32
	if target == ISAMsp430 {
		width = 16
	}
	if concrete != nil {
		img.XWords = nil
		for w, v := range concrete {
			img.Data[w] = logic.NewVecUint64(width, v)
		}
	}
	var p *core.Platform
	switch target {
	case ISARV32:
		p, err = dr5.Build(img)
	case ISAMips:
		p, err = bm32.Build(img)
	case ISAMsp430:
		p, err = omsp430.Build(img)
	default:
		t.Fatalf("unknown ISA %s", target)
	}
	if err != nil {
		t.Fatal(err)
	}
	return p, width
}

// runConcrete executes benchmark b with pinned inputs and returns a reader
// for data-memory words.
func runConcrete(t *testing.T, b string, target ISA, in map[int]uint64) func(i int) uint64 {
	t.Helper()
	p, _ := buildPlatform(t, b, target, in)
	sim, err := p.RunConcrete(vvp.Options{}, nil, 500000, nil)
	if err != nil {
		t.Fatalf("%s/%s: %v", b, target, err)
	}
	return func(i int) uint64 {
		v, err := cputest.MemUint(sim, "dmem", i)
		if err != nil {
			t.Fatalf("%s/%s: %v", b, target, err)
		}
		return v
	}
}

var allISAs = []ISA{ISARV32, ISAMips, ISAMsp430}

func TestAllBenchmarksAssemble(t *testing.T) {
	for _, b := range Benchmarks {
		for _, target := range allISAs {
			img, err := Build(b.Name, target)
			if err != nil {
				t.Errorf("%s/%s: %v", b.Name, target, err)
				continue
			}
			if len(img.ROM) == 0 {
				t.Errorf("%s/%s: empty ROM", b.Name, target)
			}
			if len(img.XWords) == 0 {
				t.Errorf("%s/%s: no input words marked X", b.Name, target)
			}
		}
	}
}

func TestBuildRejectsUnknown(t *testing.T) {
	if _, err := Build("nope", ISARV32); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestDivConcrete(t *testing.T) {
	for _, target := range allISAs {
		mem := runConcrete(t, "Div", target, map[int]uint64{0: 1000, 1: 7})
		if q := mem(2); q != 142 {
			t.Errorf("%s: quotient = %d, want 142", target, q)
		}
		if r := mem(3); r != 6 {
			t.Errorf("%s: remainder = %d, want 6", target, r)
		}
	}
}

func TestInSortConcrete(t *testing.T) {
	in := []uint64{903, 12, 500, 77}
	want := append([]uint64(nil), in...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for _, target := range allISAs {
		inputs := map[int]uint64{}
		for i, v := range in {
			inputs[i] = v
		}
		mem := runConcrete(t, "inSort", target, inputs)
		for i, w := range want {
			if got := mem(i); got != w {
				t.Errorf("%s: a[%d] = %d, want %d", target, i, got, w)
			}
		}
	}
}

func TestBinSearchConcrete(t *testing.T) {
	arr := []uint64{3, 9, 14, 27, 40, 58, 77, 90}
	for _, target := range allISAs {
		for _, tc := range []struct {
			key  uint64
			want uint64
		}{{27, 3}, {3, 0}, {90, 7}, {50, mask(target)}} {
			inputs := map[int]uint64{}
			for i, v := range arr {
				inputs[i] = v
			}
			inputs[SearchN] = tc.key
			mem := runConcrete(t, "binSearch", target, inputs)
			if got := mem(SearchN + 1); got != tc.want {
				t.Errorf("%s: search(%d) = %#x, want %#x", target, tc.key, got, tc.want)
			}
		}
	}
}

// mask returns the benchmark's "not found" sentinel (-1) in the target's
// word width.
func mask(target ISA) uint64 {
	if target == ISAMsp430 {
		return 0xFFFF
	}
	return 0xFFFFFFFF
}

func TestTHoldConcrete(t *testing.T) {
	in := []uint64{150, 3, 100, 101, 250, 99, 0, 777} // four strictly above 100
	for _, target := range allISAs {
		inputs := map[int]uint64{}
		for i, v := range in {
			inputs[i] = v
		}
		mem := runConcrete(t, "tHold", target, inputs)
		if got := mem(THoldN); got != 4 {
			t.Errorf("%s: count = %d, want 4", target, got)
		}
	}
}

func TestMultConcrete(t *testing.T) {
	for _, target := range allISAs {
		mem := runConcrete(t, "mult", target, map[int]uint64{0: 1234, 1: 567})
		want := uint64(1234 * 567)
		if target == ISAMsp430 {
			// RESLO holds the low 16 bits, RESHI the high.
			if lo := mem(2); lo != want&0xFFFF {
				t.Errorf("%s: RESLO = %#x, want %#x", target, lo, want&0xFFFF)
			}
			if hi := mem(3); hi != want>>16 {
				t.Errorf("%s: RESHI = %#x, want %#x", target, hi, want>>16)
			}
			continue
		}
		if got := mem(2); got != want {
			t.Errorf("%s: product = %d, want %d", target, got, want)
		}
	}
}

// teaRef32 is the 32-bit TEA reference for the fixed key/round parameters
// of the benchmark.
func teaRef32(v0, v1 uint32) (uint32, uint32) {
	const delta = 0x9E3779B9
	key := [4]uint32{0x0123, 0x4567, 0x89AB, 0xCDEF}
	var sum uint32
	for i := 0; i < TeaRounds; i++ {
		sum += delta
		v0 += ((v1 << 4) + key[0]) ^ (v1 + sum) ^ ((v1 >> 5) + key[1])
		v1 += ((v0 << 4) + key[2]) ^ (v0 + sum) ^ ((v0 >> 5) + key[3])
	}
	return v0, v1
}

// teaRef16 is the 16-bit variant used on the MSP430.
func teaRef16(v0, v1 uint16) (uint16, uint16) {
	const delta = 0x9E37
	key := [4]uint16{0x0123, 0x4567, 0x89AB, 0xCDEF}
	var sum uint16
	for i := 0; i < TeaRounds; i++ {
		sum += delta
		v0 += ((v1 << 4) + key[0]) ^ (v1 + sum) ^ ((v1 >> 5) + key[1])
		v1 += ((v0 << 4) + key[2]) ^ (v0 + sum) ^ ((v0 >> 5) + key[3])
	}
	return v0, v1
}

func TestTea8Concrete(t *testing.T) {
	for _, target := range allISAs {
		mem := runConcrete(t, "tea8", target, map[int]uint64{0: 0x1234, 1: 0xBEEF})
		if target == ISAMsp430 {
			w0, w1 := teaRef16(0x1234, 0xBEEF)
			if got := mem(2); got != uint64(w0) {
				t.Errorf("%s: v0 = %#x, want %#x", target, got, w0)
			}
			if got := mem(3); got != uint64(w1) {
				t.Errorf("%s: v1 = %#x, want %#x", target, got, w1)
			}
			continue
		}
		w0, w1 := teaRef32(0x1234, 0xBEEF)
		if got := mem(2); got != uint64(w0) {
			t.Errorf("%s: v0 = %#x, want %#x", target, got, w0)
		}
		if got := mem(3); got != uint64(w1) {
			t.Errorf("%s: v1 = %#x, want %#x", target, got, w1)
		}
	}
}

// TestSymbolicPathShapes verifies the headline path-count shapes of paper
// Table 4 on the fast benchmarks: mult is a single path on the two designs
// with a hardware multiplier and multiple paths on dr5; tea8 is a single
// path everywhere.
func TestSymbolicPathShapes(t *testing.T) {
	paths := func(b string, target ISA) *core.Result {
		p, _ := buildPlatform(t, b, target, nil)
		res, err := core.Analyze(p, core.Config{})
		if err != nil {
			t.Fatalf("%s/%s: %v", b, target, err)
		}
		return res
	}
	for _, target := range allISAs {
		if res := paths("tea8", target); res.PathsCreated != 1 {
			t.Errorf("tea8/%s: %d paths, want 1", target, res.PathsCreated)
		}
	}
	if res := paths("mult", ISAMips); res.PathsCreated != 1 {
		t.Errorf("mult/bm32: %d paths, want 1", res.PathsCreated)
	}
	if res := paths("mult", ISAMsp430); res.PathsCreated != 1 {
		t.Errorf("mult/omsp430: %d paths, want 1", res.PathsCreated)
	}
	if res := paths("mult", ISARV32); res.PathsCreated <= 1 {
		t.Errorf("mult/dr5: %d paths, want > 1 (software multiply)", res.PathsCreated)
	}
}

// Symbolic runs of every benchmark on every design must converge. This is
// the slowest test in the package; it is the Table 3/4 sweep in miniature.
func TestSymbolicConvergenceAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full symbolic sweep skipped in -short mode")
	}
	for _, b := range Benchmarks {
		for _, target := range allISAs {
			b, target := b, target
			t.Run(fmt.Sprintf("%s-%s", b.Name, target), func(t *testing.T) {
				t.Parallel()
				p, _ := buildPlatform(t, b.Name, target, nil)
				res, err := core.Analyze(p, core.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if res.ExercisableCount == 0 {
					t.Error("no exercisable gates")
				}
				t.Logf("%s/%s: %d/%d gates (%.1f%% reduction), %d paths (%d skipped), %d cycles",
					b.Name, target, res.ExercisableCount, res.TotalGates, res.ReductionPct(),
					res.PathsCreated, res.PathsSkipped, res.SimulatedCycles)
			})
		}
	}
}

var _ = isa.Image{}
