package symsim_test

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"symsim"
)

var updateCounts = flag.Bool("update", false, "rewrite testdata/table4_counts.json from this run")

// cellCounts are the deterministic exploration counts of one Table-4 cell
// (kernel engine, one worker, merge-all).
type cellCounts struct {
	Bench      string `json:"bench"`
	Design     string `json:"design"`
	Created    int    `json:"created"`
	Skipped    int    `json:"skipped"`
	Superseded int    `json:"superseded"`
	Cycles     uint64 `json:"cycles"`
}

// TestTable4CountsPinned pins the path and cycle counts of the 18 Table-4
// cells to testdata/table4_counts.json. With one worker the exploration is
// deterministic, so any change that moves a count — a scheduler order, a
// CSM rule, a frontier rule — shows up here and has to be accepted on
// purpose with `go test -run TestTable4CountsPinned -update .`.
func TestTable4CountsPinned(t *testing.T) {
	const path = "testdata/table4_counts.json"
	var got []cellCounts
	for _, c := range cells() {
		p, err := symsim.BuildPlatform(c.Design, c.Bench)
		if err != nil {
			t.Fatal(err)
		}
		res, err := symsim.Analyze(p, symsim.Config{})
		if err != nil {
			t.Fatalf("%s/%s: %v", c.Design, c.Bench, err)
		}
		got = append(got, cellCounts{c.Bench, string(c.Design),
			res.PathsCreated, res.PathsSkipped, res.PathsSuperseded, res.SimulatedCycles})
	}
	if *updateCounts {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []cellCounts
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s pins %d cells, the matrix has %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("counts moved (rerun with -update to accept):\n got %+v\nwant %+v", got[i], want[i])
		}
	}
}
