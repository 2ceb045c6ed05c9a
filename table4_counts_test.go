package symsim_test

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"symsim"
)

var updateCounts = flag.Bool("update", false, "rewrite testdata/table4_counts*.json from this run")

// cell is one benchmark x design cell of the Table-4 matrix.
type cell struct {
	Bench  string
	Design symsim.Design
}

// cells enumerates the 18 cells, benchmark-major.
func cells() []cell {
	var out []cell
	for _, bench := range symsim.Benchmarks() {
		for _, d := range []symsim.Design{symsim.BM32, symsim.OMSP430, symsim.DR5} {
			out = append(out, cell{bench, d})
		}
	}
	return out
}

// cellCounts are the deterministic exploration counts of one Table-4 cell
// (kernel engine, one worker) under one CSM policy. Policy is empty for
// merge-all, the default. Gates is the exercisable-gate count, recorded on
// the policy rows only: merge-all's dichotomy is pinned gate by gate in
// benchmark/golden.json.
type cellCounts struct {
	Bench      string `json:"bench"`
	Design     string `json:"design"`
	Policy     string `json:"policy,omitempty"`
	Created    int    `json:"created"`
	Skipped    int    `json:"skipped"`
	Superseded int    `json:"superseded"`
	Cycles     uint64 `json:"cycles"`
	Gates      int    `json:"gates,omitempty"`
}

// pinnedCounts are the pinned files and the policy columns each holds. The
// merge-all file has other readers (the cluster's one-slot leg, the shared-
// design oracle) that run every row under the default policy, so the points
// further along the CSM's capacity axis — k states per PC; every state, 64
// in total — live in a file of their own.
var pinnedCounts = []struct {
	path     string
	policies []pinnedPolicy
}{
	{"testdata/table4_counts.json", []pinnedPolicy{
		{"", func() symsim.Policy { return nil }},
	}},
	{"testdata/table4_counts_policies.json", []pinnedPolicy{
		{"clustered-4", func() symsim.Policy { return symsim.ClusteredPolicy(4) }},
		{"exact-64", func() symsim.Policy { return symsim.ExactPolicy(64) }},
	}},
}

type pinnedPolicy struct {
	name string
	make func() symsim.Policy
}

// TestTable4CountsPinned pins the path and cycle counts of the 18 Table-4
// cells, per policy, to testdata/table4_counts*.json. With one worker the
// exploration is deterministic, so any change that moves a count — a
// scheduler order, a CSM rule, a frontier rule — shows up here and has to be
// accepted on purpose with `go test -run TestTable4CountsPinned -update .`.
func TestTable4CountsPinned(t *testing.T) {
	for _, file := range pinnedCounts {
		var got []cellCounts
		for _, pol := range file.policies {
			for _, c := range cells() {
				p, err := symsim.BuildPlatform(c.Design, c.Bench)
				if err != nil {
					t.Fatal(err)
				}
				res, err := symsim.Analyze(p, symsim.Config{Policy: pol.make()})
				if err != nil {
					t.Fatalf("%s/%s %s: %v", c.Design, c.Bench, pol.name, err)
				}
				row := cellCounts{Bench: c.Bench, Design: string(c.Design), Policy: pol.name,
					Created: res.PathsCreated, Skipped: res.PathsSkipped,
					Superseded: res.PathsSuperseded, Cycles: res.SimulatedCycles}
				if pol.name != "" {
					row.Gates = res.ExercisableCount
				}
				got = append(got, row)
			}
		}
		if *updateCounts {
			b, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file.path, append(b, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		b, err := os.ReadFile(file.path)
		if err != nil {
			t.Fatal(err)
		}
		var want []cellCounts
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("%s: %v", file.path, err)
		}
		if len(want) != len(got) {
			t.Fatalf("%s pins %d cells, the matrix has %d", file.path, len(want), len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("counts moved (rerun with -update to accept):\n got %+v\nwant %+v", got[i], want[i])
			}
		}
	}
}
