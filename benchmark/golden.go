package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"symsim/internal/core"
	"symsim/internal/netlist"
	"symsim/internal/obs"
	"symsim/internal/prog"
	"symsim/internal/report"
	"symsim/internal/vvp"
)

// cell is one entry of the paper's Table-4 matrix.
type cell struct {
	Design report.Design
	Bench  string
}

func (c cell) String() string { return c.Bench + "/" + string(c.Design) }

// table4 is the full matrix in the paper's order: 6 benchmarks x 3 CPUs.
func table4() []cell {
	var out []cell
	for _, b := range prog.Benchmarks {
		for _, d := range report.Designs {
			out = append(out, cell{d, b.Name})
		}
	}
	return out
}

// goldenEntry is the product's soundness claim for one cell under
// merge-all and MemX verilog: how many gates are exercisable, and the
// digest of the rendered tie-off list. Both are invariant across engine,
// worker count and topology; path and cycle counts are not pinned, so a
// later change may legitimately lower them.
type goldenEntry struct {
	Gates   int    `json:"exercisable_gates"`
	TieOffs string `json:"tieoffs_sha256"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]goldenEntry, error) {
	g := make(map[string]goldenEntry)
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// digestTieOffs hashes a tie-off list rendered one "net=value" line per
// tie, the form the service persists (service.TieOffView), so results from
// Analyze, the fleet and the job API all digest alike.
func digestTieOffs(n int, at func(i int) (net, value string)) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		net, v := at(i)
		h.Write([]byte(net))
		h.Write([]byte{'='})
		h.Write([]byte(v))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// outcome is what every kind of operation reduces to for the check.
type outcome struct {
	Complete bool
	Gates    int
	Digest   string
	Paths    int
	Cycles   uint64
}

// outcomeOf derives the outcome of a core result from its tie-off list;
// producing that list is the product's last step and is timed by the caller.
func outcomeOf(res *core.Result, ties []netlist.TieOff) outcome {
	d := res.Design
	return outcome{
		Complete: res.Complete,
		Gates:    res.ExercisableCount,
		Paths:    res.PathsCreated,
		Cycles:   res.SimulatedCycles,
		Digest: digestTieOffs(len(ties), func(i int) (string, string) {
			return d.NetName(d.Gates[ties[i].Gate].Out), ties[i].Value.String()
		}),
	}
}

// check returns "" when o matches golden for c, else the reason the
// operation failed.
func check(golden map[string]goldenEntry, c cell, o outcome) string {
	g, ok := golden[c.String()]
	switch {
	case !ok:
		return "no golden entry"
	case !o.Complete:
		return "result incomplete"
	case o.Gates != g.Gates:
		return fmt.Sprintf("exercisable gates %d, golden %d", o.Gates, g.Gates)
	case o.Digest != g.TieOffs:
		return "tie-off list differs from golden"
	}
	return ""
}

// updateGolden regenerates golden.json from the reference interpreter,
// the oracle the faster engines are differentially tested against.
func updateGolden(dir string) error {
	g := make(map[string]goldenEntry)
	for _, c := range table4() {
		p, err := report.BuildPlatform(c.Design, c.Bench)
		if err != nil {
			return err
		}
		res, err := core.Analyze(p, core.Config{Engine: vvp.EngineInterp, Metrics: obs.NewRegistry()})
		if err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
		if !res.Complete {
			return fmt.Errorf("%s: oracle run incomplete", c)
		}
		o := outcomeOf(res, res.TieOffs())
		g[c.String()] = goldenEntry{Gates: o.Gates, TieOffs: o.Digest}
		fmt.Printf("%-20s gates=%d ties=%s\n", c, o.Gates, o.Digest[:12])
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "golden.json"), append(data, '\n'), 0o644)
}
