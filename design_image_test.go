package symsim_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"symsim"
	"symsim/internal/lint"
	"symsim/internal/netlist"
	"symsim/internal/report"
	"symsim/internal/vvp"
)

// unshared returns p over an independent netlist: p's view written out
// and read back, so nothing — tables, Program, digests, lint result — is
// shared with the design p was bound to. It is what BuildPlatform returned
// when every benchmark elaborated its own processor.
func unshared(t *testing.T, p *symsim.Platform) *symsim.Platform {
	t.Helper()
	var ser bytes.Buffer
	if err := p.Design.Write(&ser); err != nil {
		t.Fatal(err)
	}
	n, err := netlist.Read(&ser)
	if err != nil {
		t.Fatal(err)
	}
	q := *p
	q.Design = n
	if q.Spec, err = vvp.SpecFor(n, "pc"); err != nil {
		t.Fatal(err)
	}
	return &q
}

// TestDesignImageOracle is the A/B check of the design × image split, with
// the serialised netlist as the second implementation instead of a second
// code path: for every Table-4 cell the view must hash and lint exactly
// like an unshared netlist holding the same image, and on the three
// straight-line tea8 cells plus one forking cell per processor the
// analysis must produce byte-identical tie-offs on it, under both
// engines that read the image differently (kernel: the view's own ROM
// words, shared, and a copy of its RAM; batch: one packed power-on image).
func TestDesignImageOracle(t *testing.T) {
	for _, c := range cells() {
		p, err := symsim.BuildPlatform(c.Design, c.Bench)
		if err != nil {
			t.Fatal(err)
		}
		q := unshared(t, p)
		if p.Design.Hash() != q.Design.Hash() {
			t.Errorf("%s/%s: view hashes %s, unshared copy %s", c.Design, c.Bench, p.Design.Hash(), q.Design.Hash())
		}
		want := lint.Run(q.Design, q.LintOptions())
		got := p.Lint()
		if !reflect.DeepEqual(got.Diags, want.Diags) || !reflect.DeepEqual(got.Counts, want.Counts) ||
			!reflect.DeepEqual(got.XReachable, want.XReachable) {
			t.Errorf("%s/%s: shared lint result differs from a run on the unshared copy:\n got %v\nwant %v",
				c.Design, c.Bench, got.Diags, want.Diags)
		}
		if c.Bench != "tea8" && c.Bench != "tHold" {
			continue
		}
		for _, eng := range []symsim.SimEngine{symsim.EngineKernel, symsim.EngineBatch} {
			rp, err := symsim.Analyze(p, symsim.Config{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			rq, err := symsim.Analyze(q, symsim.Config{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rp.TieOffs(), rq.TieOffs()) || rp.ExercisableCount != rq.ExercisableCount {
				t.Errorf("%s/%s engine %v: tie-offs differ between the view and the unshared copy (%d vs %d exercisable)",
					c.Design, c.Bench, eng, rp.ExercisableCount, rq.ExercisableCount)
			}
			if rp.PathsCreated != rq.PathsCreated || rp.SimulatedCycles != rq.SimulatedCycles {
				t.Errorf("%s/%s engine %v: %d paths / %d cycles on the view, %d / %d on the copy",
					c.Design, c.Bench, eng, rp.PathsCreated, rp.SimulatedCycles, rq.PathsCreated, rq.SimulatedCycles)
			}
		}
	}
}

// A design loaded from a file runs a second program by binding the image
// to it (README "Bringing your own design"): the dr5/tea8 netlist read
// back from its serialisation, bound to mult's memories, is dr5/mult.
func TestBindSecondImageToLoadedNetlist(t *testing.T) {
	tea8, err := symsim.BuildPlatform(symsim.DR5, "tea8")
	if err != nil {
		t.Fatal(err)
	}
	mult, err := symsim.BuildPlatform(symsim.DR5, "mult")
	if err != nil {
		t.Fatal(err)
	}
	loaded := unshared(t, tea8)
	image := map[string][]symsim.Vec{}
	for _, m := range mult.Design.Mems {
		image[m.Name] = m.Init
	}
	if loaded.Design, err = loaded.Design.Bind(image); err != nil {
		t.Fatal(err)
	}
	if loaded.Design.Hash() != mult.Design.Hash() {
		t.Errorf("bound netlist hashes %s, dr5/mult %s", loaded.Design.Hash(), mult.Design.Hash())
	}
	want, err := symsim.Analyze(mult, symsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := symsim.Analyze(loaded, symsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.TieOffs(), want.TieOffs()) || got.PathsCreated != want.PathsCreated {
		t.Errorf("bound netlist: %d paths, %d exercisable; dr5/mult: %d paths, %d exercisable",
			got.PathsCreated, got.ExercisableCount, want.PathsCreated, want.ExercisableCount)
	}
}

// The six benchmarks of a processor are views of one design: one compiled
// Program, one state specification, the same net and gate tables, and
// netlists that differ in Mems[*].Init alone — each view's own.
func TestPlatformsShareDesign(t *testing.T) {
	for _, d := range []symsim.Design{symsim.BM32, symsim.OMSP430, symsim.DR5} {
		var first *symsim.Platform
		inits := map[*symsim.Vec]string{}
		for _, bench := range symsim.Benchmarks() {
			p, err := symsim.BuildPlatform(d, bench)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range p.Design.Mems {
				if len(m.Init) == 0 {
					t.Fatalf("%s/%s: memory %s bound without contents", d, bench, m.Name)
				}
				if prev, dup := inits[&m.Init[0]]; dup {
					t.Errorf("%s/%s: memory %s shares its Init backing array with %s", d, bench, m.Name, prev)
				}
				inits[&m.Init[0]] = bench + "/" + m.Name
			}
			if first == nil {
				first = p
				continue
			}
			if p.Design == first.Design {
				t.Fatalf("%s: two benchmarks returned the same netlist", d)
			}
			if p.Design.Program() != first.Design.Program() {
				t.Errorf("%s/%s: Program is not the one %s runs on", d, bench, first.Bench)
			}
			if p.Spec != first.Spec {
				t.Errorf("%s/%s: state specification not shared", d, bench)
			}
			a, b := *p.Design, *first.Design
			if &a.Nets[0] != &b.Nets[0] || &a.Gates[0] != &b.Gates[0] {
				t.Errorf("%s/%s: net or gate table copied", d, bench)
			}
			if len(a.Mems) != len(b.Mems) {
				t.Fatalf("%s/%s: %d memories, %s has %d", d, bench, len(a.Mems), first.Bench, len(b.Mems))
			}
			for i := range a.Mems {
				ma, mb := *a.Mems[i], *b.Mems[i]
				ma.Init, mb.Init = nil, nil
				if !reflect.DeepEqual(ma, mb) {
					t.Errorf("%s/%s: memory %d differs from %s's beyond Init", d, bench, i, first.Bench)
				}
			}
			a.Mems, b.Mems = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%s: netlist differs from %s's beyond Mems", d, bench, first.Bench)
			}
		}
	}
}

// TestTwoViewsTwoSimulators guards what scalar simulators share: the ROM
// words of a simulator are its view's Mem.Init, not a copy. Two views of
// each processor get two simulators apiece, all four running at once: each
// must read its own view's ROM, and a testbench write in one — SetMemWord on
// a ROM word, which copies the ROM first, or on a RAM word — must reach
// neither the view's Init, nor the simulator beside it on the same view,
// nor the other view. Under the race detector a write through to a shared
// Init word is a race with the reader stepping on it.
func TestTwoViewsTwoSimulators(t *testing.T) {
	newSim := func(p *symsim.Platform) *vvp.Simulator {
		sim := vvp.New(p.Design, vvp.Options{})
		sim.SetMonitorX(&p.Monitor)
		sim.BindStimulus(p.Stimulus())
		return sim
	}
	for _, d := range []symsim.Design{symsim.BM32, symsim.OMSP430, symsim.DR5} {
		var views [2]*symsim.Platform
		var inits [2][][]symsim.Vec // per view, per memory: Init as bound
		for v, bench := range []string{"tea8", "mult"} {
			p, err := symsim.BuildPlatform(d, bench)
			if err != nil {
				t.Fatal(err)
			}
			views[v] = p
			for _, m := range p.Design.Mems {
				var words []symsim.Vec
				for _, w := range m.Init {
					words = append(words, w.Clone())
				}
				inits[v] = append(inits[v], words)
			}
		}
		rom, ram := netlist.MemID(-1), netlist.MemID(-1)
		for mi, m := range views[0].Design.Mems {
			if m.IsROM() {
				rom = netlist.MemID(mi)
			} else {
				ram = netlist.MemID(mi)
			}
		}
		if rom < 0 || ram < 0 {
			t.Fatalf("%s: want a ROM and a RAM", d)
		}
		differ := len(inits[0][rom]) != len(inits[1][rom])
		for w := 0; !differ && w < len(inits[0][rom]); w++ {
			differ = !inits[0][rom][w].Equal(inits[1][rom][w])
		}
		if !differ {
			t.Fatalf("%s: the two images hold the same ROM", d)
		}
		width := views[0].Design.Mems[rom].DataBits
		poison := symsim.NewVecUint64(width, 0x5a5a)

		// sims[v][0] writes, sims[v][1] only runs.
		var sims [2][2]*vvp.Simulator
		var wg sync.WaitGroup
		for v := range views {
			for k := 0; k < 2; k++ {
				wg.Add(1)
				go func(v, k int) {
					defer wg.Done()
					sim := newSim(views[v])
					sims[v][k] = sim
					for i := 0; i < 40; i++ {
						if i == 10 && k == 0 {
							sim.SetMemWord(rom, 0, poison)
							sim.SetMemWord(ram, 3, poison)
						}
						if _, err := sim.Step(); err != nil {
							t.Error(err)
							return
						}
					}
				}(v, k)
			}
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for v, p := range views {
			for mi, m := range p.Design.Mems {
				for w := range m.Init {
					if !m.Init[w].Equal(inits[v][mi][w]) {
						t.Fatalf("%s/%s: a simulator wrote through to %s.Init[%d]", d, p.Bench, m.Name, w)
					}
				}
			}
			writer, reader := sims[v][0], sims[v][1]
			if got := writer.MemWord(rom, 0); !got.Equal(poison) {
				t.Errorf("%s/%s: SetMemWord on the ROM did not take: %v", d, p.Bench, got)
			}
			for _, sim := range []*vvp.Simulator{reader, newSim(p)} {
				for w, want := range inits[v][rom] {
					if got := sim.MemWord(rom, w); !got.Equal(want) {
						t.Fatalf("%s/%s: ROM word %d reads %v, the view holds %v", d, p.Bench, w, got, want)
					}
				}
				if last := p.Design.Mems[rom].Words - 1; last >= len(inits[v][rom]) && sim.MemWord(rom, last).CountX() != width {
					t.Errorf("%s/%s: ROM word %d, past the image, is not all-X", d, p.Bench, last)
				}
			}
			if got := writer.MemWord(rom, 1); !got.Equal(inits[v][rom][1]) {
				t.Errorf("%s/%s: the writer's ROM copy lost word 1: %v", d, p.Bench, got)
			}
			if reader.MemWord(ram, 3).Equal(poison) {
				t.Errorf("%s/%s: a RAM write in one simulator shows in another", d, p.Bench)
			}
		}
	}
}

// TestSharedDesignConcurrent puts the shared tables under the race
// detector the way a service or a sweep uses them: 8 goroutines build all
// 18 platforms at once — run by name, as CI does, that includes the first
// use, so the elaborations, the lazily built structure digest and the
// shared lint results themselves — and then two images of each processor
// are analysed at the same time on every engine. Counts are checked
// against testdata/table4_counts.json where the engine reproduces them
// (interp and kernel; the batch engine's merge order may differ, its
// dichotomy may not). A write to anything a view shares is a race here.
func TestSharedDesignConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	hashes := make([]map[string]netlist.Digest, 8)
	for g := range hashes {
		hashes[g] = map[string]netlist.Digest{}
		wg.Add(1)
		go func(seen map[string]netlist.Digest) {
			defer wg.Done()
			for _, c := range cells() {
				p, err := report.BuildPlatform(c.Design, c.Bench)
				if err != nil {
					t.Error(err)
					return
				}
				seen[string(c.Design)+"/"+c.Bench] = p.Design.Hash()
			}
		}(hashes[g])
	}
	wg.Wait()
	for g := 1; g < len(hashes); g++ {
		if !reflect.DeepEqual(hashes[g], hashes[0]) {
			t.Errorf("goroutine %d saw different design hashes than goroutine 0", g)
		}
	}

	b, err := os.ReadFile("testdata/table4_counts.json")
	if err != nil {
		t.Fatal(err)
	}
	var pinned []cellCounts
	if err := json.Unmarshal(b, &pinned); err != nil {
		t.Fatal(err)
	}
	want := map[string]cellCounts{}
	for _, c := range pinned {
		want[c.Design+"/"+c.Bench] = c
	}
	benches := []string{"binSearch", "mult"}
	for _, d := range []symsim.Design{symsim.BM32, symsim.OMSP430, symsim.DR5} {
		kernel := make([]*symsim.Result, len(benches))
		for _, eng := range []symsim.SimEngine{symsim.EngineKernel, symsim.EngineInterp, symsim.EngineBatch} {
			res := make([]*symsim.Result, len(benches))
			for i, bench := range benches {
				wg.Add(1)
				go func(i int, bench string) {
					defer wg.Done()
					p, err := report.BuildPlatform(d, bench)
					if err != nil {
						t.Error(err)
						return
					}
					if res[i], err = symsim.Analyze(p, symsim.Config{Engine: eng}); err != nil {
						t.Errorf("%s/%s engine %v: %v", d, bench, eng, err)
					}
				}(i, bench)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for i, bench := range benches {
				r, w := res[i], want[string(d)+"/"+bench]
				if eng == symsim.EngineKernel {
					kernel[i] = r
				}
				if eng != symsim.EngineBatch && (r.PathsCreated != w.Created || r.PathsSkipped != w.Skipped ||
					r.PathsSuperseded != w.Superseded || r.SimulatedCycles != w.Cycles) {
					t.Errorf("%s/%s engine %v: %d created, %d skipped, %d superseded, %d cycles; pinned %+v",
						d, bench, eng, r.PathsCreated, r.PathsSkipped, r.PathsSuperseded, r.SimulatedCycles, w)
				}
				if !reflect.DeepEqual(r.TieOffs(), kernel[i].TieOffs()) {
					t.Errorf("%s/%s engine %v: tie-offs differ from the kernel's", d, bench, eng)
				}
			}
		}
	}
}

// hashOutEnv names the file a child process of
// TestDesignHashStableAcrossProcesses writes its hashes to.
const hashOutEnv = "SYMSIM_DESIGN_HASH_OUT"

// TestDesignHashStableAcrossProcesses: the hash is positional, so a cache
// entry or a checkpoint trailer written by one process matches a design
// another process elaborated only because elaboration is deterministic.
// The test re-runs its own binary, which elaborates all 18 cells afresh
// and writes their hashes to a file, and compares them with this
// process's.
func TestDesignHashStableAcrossProcesses(t *testing.T) {
	hashes := map[string]string{}
	for _, c := range cells() {
		p, err := symsim.BuildPlatform(c.Design, c.Bench)
		if err != nil {
			t.Fatal(err)
		}
		hashes[string(c.Design)+"/"+c.Bench] = p.Design.Hash().String()
	}
	b, err := json.Marshal(hashes)
	if err != nil {
		t.Fatal(err)
	}
	if out := os.Getenv(hashOutEnv); out != "" {
		if err := os.WriteFile(out, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	out := filepath.Join(t.TempDir(), "hashes.json")
	cmd := exec.Command(os.Args[0], "-test.run=^TestDesignHashStableAcrossProcesses$", "-test.count=1")
	cmd.Env = append(os.Environ(), hashOutEnv+"="+out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child process: %v\n%s", err, msg)
	}
	child, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]string
	if err := json.Unmarshal(child, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(hashes) {
		t.Errorf("child process hashed %d cells, this one %d", len(got), len(hashes))
	}
	for cell, h := range hashes {
		if got[cell] != h {
			t.Errorf("%s: hashes %s here, %s in a second process", cell, h, got[cell])
		}
	}
}
