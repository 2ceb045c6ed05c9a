package analysis_test

import (
	"strings"
	"sync"
	"testing"

	"symsim/internal/analysis"
)

// repoProg loads the real repository once for the self-hosting tests.
var repoProg = sync.OnceValues(func() (*analysis.Program, error) {
	return analysis.Load("../..")
})

// TestRepoIsClean is the suite's own gate run as a test: the tree that
// ships symsimvet must pass symsimvet. Every finding in the repository is
// either fixed or carries a //symsim:allow with a reason, so anything
// reported here is a regression.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repository")
	}
	prog, err := repoProg()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	rep := analysis.Vet(prog)
	for _, d := range rep.Diags {
		t.Errorf("finding in clean tree: %s", d.String())
	}
}

// TestKernelSweepIsHot pins the SA001 coverage contract: the compiled
// kernel's sweep, the logic primitives it leans on and the per-segment
// loops of a restore, a recording start and an absorb must be in the
// hotpath-reachable set, so a future allocation there is caught at vet
// time, not at benchmark time.
func TestKernelSweepIsHot(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repository")
	}
	prog, err := repoProg()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	hot := analysis.HotFunctions(prog)
	for _, want := range []string{
		"symsim/internal/vvp.(Simulator).kernelLevel",
		"symsim/internal/vvp.(BatchSim).batchLevel",
		"symsim/internal/vvp.(dirtySet).claim",
		"symsim/internal/vvp.(dirtySet).markRuns",
		"symsim/internal/vvp.(dirtySet).markGate",
		"symsim/internal/vvp.(Simulator).commit",
		"symsim/internal/vvp.(Simulator).StartRecording",
		"symsim/internal/vvp.(Simulator).assertState",
		"symsim/internal/core.(analysis).absorbProfile",
		"symsim/internal/logic.(Vec).Get",
		"symsim/internal/logic.(Vec).Set",
	} {
		found := false
		for _, fn := range hot {
			if fn == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s is not in the hot set; have:\n  %s", want, strings.Join(hot, "\n  "))
		}
	}
}
