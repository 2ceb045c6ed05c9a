package prog

import (
	"testing"

	"symsim/internal/core"
)

func TestCrc8Concrete(t *testing.T) {
	data := []uint8{0x12, 0x34, 0x56, 0x78}
	want := uint64(Crc8Ref(data))
	for _, target := range allISAs {
		inputs := map[int]uint64{}
		for i, b := range data {
			inputs[i] = uint64(b)
		}
		mem := runConcrete(t, "crc8", target, inputs)
		if got := mem(CRC8N); got != want {
			t.Errorf("%s: crc8 = %#x, want %#x", target, got, want)
		}
	}
}

func TestFir4Concrete(t *testing.T) {
	x := []uint32{100, 7, 55, 1000}
	for _, target := range allISAs {
		mask := uint32(0xFFFFFFFF)
		if target == ISAMsp430 {
			mask = 0xFFFF
		}
		want := Fir4Ref(x, mask)
		inputs := map[int]uint64{}
		for i, v := range x {
			inputs[i] = uint64(v)
		}
		mem := runConcrete(t, "fir4", target, inputs)
		for n, w := range want {
			if got := mem(FIRN + n); got != uint64(w) {
				t.Errorf("%s: y[%d] = %d, want %d", target, n, got, w)
			}
		}
	}
}

// The extension workloads must show the same structural split the paper's
// benchmarks do: crc8 is fork-heavy and converges; fir4 is input
// independent and runs in a single path on every design.
func TestExtendedSymbolicShapes(t *testing.T) {
	for _, target := range allISAs {
		p, _ := buildPlatform(t, "fir4", target, nil)
		res, err := core.Analyze(p, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res.PathsCreated != 1 {
			t.Errorf("fir4/%s: %d paths, want 1", target, res.PathsCreated)
		}
	}
	for _, target := range allISAs {
		p, _ := buildPlatform(t, "crc8", target, nil)
		res, err := core.Analyze(p, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res.PathsCreated <= 1 {
			t.Errorf("crc8/%s: %d paths, want forking", target, res.PathsCreated)
		}
		if res.PathsSkipped == 0 {
			t.Errorf("crc8/%s: no CSM subsumption", target)
		}
		t.Logf("crc8/%s: %d paths (%d skipped), %.1f%% reduction",
			target, res.PathsCreated, res.PathsSkipped, res.ReductionPct())
	}
}
