package dr5

import (
	"testing"

	"symsim/internal/prog"
)

// The core is elaborated once per process, however many programs are
// bound to it — by this test's six and by every other test of the package.
func TestBuildElaboratesOnce(t *testing.T) {
	for _, b := range prog.Benchmarks {
		img, err := prog.Build(b.Name, prog.ISARV32)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Build(img); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
	}
	if n := elaborations.Load(); n != 1 {
		t.Errorf("%d elaborations after %d Build calls, want 1", n, len(prog.Benchmarks))
	}
}
