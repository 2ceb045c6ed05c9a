package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"symsim/internal/core"
	"symsim/internal/csm"
	"symsim/internal/netlist"
	"symsim/internal/obs"
	"symsim/internal/report"
	"symsim/internal/vvp"
)

// halts records every state OnHalt hands out, in order.
type halts struct {
	mu     sync.Mutex
	ids    []int
	states []vvp.State
}

func (h *halts) hook(id int, st vvp.State) {
	h.mu.Lock()
	h.ids = append(h.ids, id)
	h.states = append(h.states, st)
	h.mu.Unlock()
}

// same reports whether two runs handed out the same halts, or where not.
func (h *halts) same(o *halts) string {
	if !reflect.DeepEqual(h.ids, o.ids) {
		return fmt.Sprintf("halt paths %v vs %v", h.ids, o.ids)
	}
	for i := range h.states {
		a, b := h.states[i], o.states[i]
		if a.PC != b.PC || a.Time != b.Time || a.PCKnown != b.PCKnown || !a.Bits.Equal(b.Bits) {
			return fmt.Sprintf("halt %d of path %d", i, h.ids[i])
		}
	}
	return ""
}

// TestReplayABOracle is the whole-stack A/B check of the replay of widened
// segments (DESIGN.md §8 "Replay of a widened segment"): every cell runs
// once with every segment simulated in full (core.NoReplay) and once
// replaying. Under merge-all, exact-64 and constrained — the sr_z fact of
// openMSP430/tHold there, pc[0] = 0 elsewhere — the replay may change no
// result: at one worker the two runs absorb the same outcomes in the same
// order, so ToggledNets, ConstNets, the tie-offs, every PathStat, the
// created/skipped/superseded counts and every halt state OnHalt sees must
// be identical; at two workers the order is a race and the dichotomy must
// be (sameDichotomy). The last row drops one outcome unabsorbed, whose log
// no later segment may follow. The fork-heavy cells must actually replay.
func TestReplayABOracle(t *testing.T) {
	designs := report.Designs
	if raceDetector {
		designs = []report.Design{report.OMSP430}
	}
	mergeAll := func(*core.Platform) (csm.Manager, error) { return csm.NewMergeAll(), nil }
	exact := func(*core.Platform) (csm.Manager, error) { return csm.NewExact(64), nil }
	for _, d := range designs {
		for _, bench := range []string{"tHold", "Div", "inSort", "binSearch", "mult", "tea8"} {
			d, bench := d, bench
			t.Run(fmt.Sprintf("%s/%s", d, bench), func(t *testing.T) {
				t.Parallel()
				p, err := report.BuildPlatform(d, bench)
				if err != nil {
					t.Fatal(err)
				}
				constrained := abPolicies[3].mk
				if d == report.OMSP430 && bench == "tHold" {
					constrained = func(p *core.Platform) (csm.Manager, error) {
						return csm.NewConstrained(p.Spec.Bits(), tHoldPruneFacts(t, p))
					}
				}
				for _, row := range []struct {
					name    string
					mk      func(*core.Platform) (csm.Manager, error)
					workers int
				}{
					{"merge-all", mergeAll, 1},
					{"merge-all/workers=2", mergeAll, 2},
					{"exact-64", exact, 1},
					{"exact-64/workers=2", exact, 2},
					{"constrained", constrained, 1},
					{"constrained/workers=2", constrained, 2},
				} {
					var offHalts, onHalts halts
					var trace bytes.Buffer
					cfg := core.Config{Workers: row.workers, OnHalt: offHalts.hook}
					off, _ := abRun(t, p, core.NoReplay(cfg), row.mk)
					cfg.OnHalt = onHalts.hook
					if row.workers == 1 {
						cfg.Tracer = obs.NewTracer(&trace)
					}
					on, _ := abRun(t, p, cfg, row.mk)
					if row.workers != 1 {
						if field := sameDichotomy(off, on); field != "" {
							t.Errorf("%s: %s differs with replay", row.name, field)
						}
						continue
					}
					if field := sameBytes(off, on); field != "" {
						t.Errorf("%s: %s differs with replay", row.name, field)
					}
					if !reflect.DeepEqual(off.Paths, on.Paths) {
						t.Errorf("%s: the path statistics differ with replay", row.name)
					}
					if off.PathsSkipped != on.PathsSkipped || off.PathsSuperseded != on.PathsSuperseded {
						t.Errorf("%s: skipped %d/%d, superseded %d/%d without/with replay", row.name,
							off.PathsSkipped, on.PathsSkipped, off.PathsSuperseded, on.PathsSuperseded)
					}
					if where := offHalts.same(&onHalts); where != "" {
						t.Errorf("%s: %s differs with replay", row.name, where)
					}
					if err := cfg.Tracer.Flush(); err != nil {
						t.Fatal(err)
					}
					log, err := obs.ReadTrace(&trace)
					if err != nil {
						t.Fatal(err)
					}
					var replayed uint64
					for _, sp := range log.Spans {
						replayed += sp.Replay
					}
					if fork := bench == "tHold" || bench == "Div" || bench == "inSort"; fork && row.name == "merge-all" && replayed == 0 {
						t.Errorf("%s: no step was replayed", row.name)
					}
				}

				// Drop the middle segment's outcome once.
				ref, _ := abRun(t, p, core.NoReplay(core.Config{}), mergeAll)
				drop := len(ref.Paths) / 2
				res, dropped, err := core.AnalyzeDropping(p, core.Config{Policy: csm.NewMergeAll()}, drop)
				if err != nil {
					t.Fatal(err)
				}
				if !dropped || !res.Complete {
					t.Fatalf("drop: path %d dropped %v, complete %v", drop, dropped, res.Complete)
				}
				if field := sameBytes(ref, res); field != "" {
					t.Errorf("drop path %d: %s differs with replay", drop, field)
				}
			})
		}
	}
}

// TestConcurrentAnalyzeOnOnePlatform runs two analyses of one platform at
// once, each taking its replay store from the pool the platform's design
// keeps and handing it back (core's replay.go): under the race detector a
// store shared between them is a race, and either way both must reach the
// tie-offs one analysis reaches alone.
func TestConcurrentAnalyzeOnOnePlatform(t *testing.T) {
	p, err := report.BuildPlatform(report.OMSP430, "inSort")
	if err != nil {
		t.Fatal(err)
	}
	alone, err := core.Analyze(p, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		res := make([]*core.Result, 2)
		errs := make([]error, 2)
		for i := range res {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[i], errs[i] = core.Analyze(p, core.Config{Workers: 1 + i})
			}()
		}
		wg.Wait()
		for i, r := range res {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if field := sameDichotomy(alone, r); field != "" {
				t.Errorf("round %d, analysis %d: %s differs from the analysis alone", round, i, field)
			}
		}
		if field := sameBytes(alone, res[0]); field != "" {
			t.Errorf("round %d: the one-worker analysis: %s differs from the analysis alone", round, field)
		}
	}
}

// TestReplayLogBytes bounds the logs the replay keeps for bm32/inSort, the
// largest cell's: a byte and a half a changed net, with the slices' growth
// slack, stays under 256 KiB. The platform is rebuilt on a private copy of
// the design, whose replay stores no other analysis shares.
func TestReplayLogBytes(t *testing.T) {
	p, err := report.BuildPlatform(report.BM32, "inSort")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Design.Write(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := netlist.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := vvp.SpecFor(n, "pc")
	if err != nil {
		t.Fatal(err)
	}
	own := &core.Platform{Name: p.Name, Design: n, Spec: spec, Monitor: p.Monitor, HalfPeriod: p.HalfPeriod,
		ResetCycles: p.ResetCycles, Inputs: p.Inputs, Specialize: p.Specialize}
	for i := 0; i < 2; i++ {
		if _, err := core.Analyze(own, core.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	held := core.ReplayBytes(own)
	if len(held) != 1 {
		t.Fatalf("the design keeps %d replay stores after two analyses one after the other, want 1", len(held))
	}
	t.Logf("bm32/inSort: the replay store holds %d bytes", held[0])
	if held[0] > 256<<10 {
		t.Errorf("the replay store holds %d bytes of logs, over 256 KiB", held[0])
	}
}
