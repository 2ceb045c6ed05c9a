package symsim_test

import (
	"testing"

	"symsim"
	"symsim/internal/logic"
	"symsim/internal/vvp"
)

// warmState builds the platform, runs a scalar simulator past reset and
// returns everything needed to admit lanes at that state.
func warmState(b testing.TB, d symsim.Design, bench string) (*symsim.Platform, vvp.State) {
	b.Helper()
	p, err := symsim.BuildPlatform(d, bench)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Design.Freeze(); err != nil {
		b.Fatal(err)
	}
	warm := vvp.New(p.Design, vvp.Options{DisableSymbolic: true})
	warm.SetMonitorX(&p.Monitor)
	warm.BindStimulus(p.Stimulus())
	for warm.Now() <= uint64(2*p.ResetCycles)*p.HalfPeriod+1 {
		if _, err := warm.Step(); err != nil {
			b.Fatal(err)
		}
	}
	return p, warm.Snapshot(p.Spec)
}

// stateCyclesLater restores st into a scalar kernel simulator, free-runs it
// for the given number of clock cycles and returns the state it reached.
func stateCyclesLater(t testing.TB, p *symsim.Platform, st vvp.State, cycles uint64) vvp.State {
	t.Helper()
	sim := vvp.New(p.Design, vvp.Options{Engine: vvp.EngineKernel, DisableSymbolic: true})
	sim.BindStimulus(p.Stimulus())
	if err := sim.Restore(p.Spec, st); err != nil {
		t.Fatal(err)
	}
	for sim.Cycles() < cycles {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return sim.Snapshot(p.Spec)
}

// TestBatchLaneTurnoverCounts pins incremental admission by a count, on
// bm32/tHold through BatchSim.Evals: building the simulator and admitting
// the first lane each evaluate the design once at most, re-admitting the
// state a retired lane still holds evaluates next to nothing, and
// re-admitting a state ten cycles away evaluates only the cone of what
// differs — never the whole design again.
func TestBatchLaneTurnoverCounts(t *testing.T) {
	p, st := warmState(t, symsim.BM32, "tHold")
	away := stateCyclesLater(t, p, st, 10)
	gates := uint64(len(p.Design.Gates))

	bs := vvp.NewBatchSim(p.Design, vvp.BatchOptions{})
	bs.BindStimulus(p.Stimulus())
	if e := bs.Evals(); e > gates {
		t.Errorf("time-zero evaluation visited %d gates, design has %d", e, gates)
	}
	admit := func(st vvp.State) uint64 {
		e0 := bs.Evals()
		if err := bs.RestoreLane(p.Spec, st, 0); err != nil {
			t.Fatal(err)
		}
		return bs.Evals() - e0
	}
	if e := admit(st); e > gates {
		t.Errorf("first admission visited %d gates, want at most the design's %d", e, gates)
	}
	bs.RetireLane(0)
	if e := admit(st); e*20 >= gates {
		t.Errorf("re-admitting the same state visited %d gates, want under 5%% of %d", e, gates)
	}
	bs.RetireLane(0)
	if e := admit(away); e == 0 || e >= gates {
		t.Errorf("re-admitting a state 10 cycles away visited %d gates, want some but fewer than %d", e, gates)
	}
}

// TestRestoreTurnoverCounts is the scalar analogue: Restore re-evaluates the
// cone of what differs between the state the simulator holds and the state
// it is given, and nothing else. Restoring the state already held evaluates
// no gate and commits nothing; restoring a state ten cycles away evaluates,
// in either direction, a pinned number of gates. The interpreter's counts are
// those of the commit at which Restore still committed every flip-flop
// without comparing first; the kernel's are lower by the flip-flops that
// only a D or EN pin reached (reset is at 1 throughout: bm32 7,359 → 7,211,
// openMSP430 357 → 288, dr5 2,597 → 2,506), which is why the two engines are
// held to the same commit trace and not to the same count.
func TestRestoreTurnoverCounts(t *testing.T) {
	for _, c := range []struct {
		design         symsim.Design
		kernel, interp uint64 // gate evaluations between post-reset and ten cycles on
	}{
		{symsim.BM32, 7211, 7359},
		{symsim.OMSP430, 288, 357},
		{symsim.DR5, 2506, 2597},
	} {
		p, st := warmState(t, c.design, "tHold")
		away := stateCyclesLater(t, p, st, 10)
		var traces []*vvp.Trace
		for _, eng := range []vvp.Engine{vvp.EngineKernel, vvp.EngineInterp} {
			want := c.kernel
			if eng == vvp.EngineInterp {
				want = c.interp
			}
			tr := &vvp.Trace{}
			traces = append(traces, tr)
			sim := vvp.New(p.Design, vvp.Options{Engine: eng, Trace: tr})
			sim.BindStimulus(p.Stimulus())
			restore := func(st vvp.State) (evals uint64, commits int) {
				e0, c0 := sim.Evals(), len(tr.Events)
				if err := sim.Restore(p.Spec, st); err != nil {
					t.Fatal(err)
				}
				if got := sim.Snapshot(p.Spec); !got.Bits.Equal(st.Bits) || got.Time != st.Time {
					t.Fatalf("%v/%v: snapshot of the restored simulator differs from the state restored", c.design, eng)
				}
				return sim.Evals() - e0, len(tr.Events) - c0
			}
			restore(st)
			if e, n := restore(st); e != 0 || n != 0 {
				t.Errorf("%v/%v: restoring the state already held evaluated %d gates and committed %d values, want 0 and 0", c.design, eng, e, n)
			}
			if e, _ := restore(away); e != want {
				t.Errorf("%v/%v: restoring a state 10 cycles on evaluated %d gates, want %d", c.design, eng, e, want)
			}
			if e, _ := restore(st); e != want {
				t.Errorf("%v/%v: restoring the state 10 cycles back evaluated %d gates, want %d", c.design, eng, e, want)
			}
		}
		if !traces[0].Equal(traces[1]) {
			t.Errorf("%v: the four restores committed different traces on the kernel and on the interpreter", c.design)
		}
	}
}

// TestBatchSnapshotOfRestoreIsIdentity checks, on all three processors,
// that a state survives RestoreLane + SnapshotLane bit for bit — with a RAM
// image of known and X bits that the word-chunked transplant must carry in
// both directions — in a fresh lane and over a previous occupant.
func TestBatchSnapshotOfRestoreIsIdentity(t *testing.T) {
	for _, d := range []symsim.Design{symsim.BM32, symsim.OMSP430, symsim.DR5} {
		p, st := warmState(t, d, "tHold")
		patterned := st.Clone()
		for i := len(p.Spec.DFFs); i < p.Spec.Bits(); i++ {
			patterned.Bits.Set(i, []logic.Value{logic.Lo, logic.Hi, logic.X, logic.Hi, logic.X}[i%5])
		}
		bs := vvp.NewBatchSim(p.Design, vvp.BatchOptions{})
		bs.BindStimulus(p.Stimulus())
		for _, c := range []struct {
			name string
			st   vvp.State
			lane int
		}{
			{"post-reset state, fresh lane", st, 37},
			{"patterned RAM over an occupant", patterned, 37},
			{"patterned RAM, fresh lane", patterned, 63},
			{"post-reset state over patterned RAM", st, 63},
		} {
			if err := bs.RestoreLane(p.Spec, c.st, c.lane); err != nil {
				t.Fatal(err)
			}
			got := bs.SnapshotLane(p.Spec, c.lane, vvp.State{})
			if !got.Bits.Equal(c.st.Bits) || got.Time != c.st.Time || got.PC != c.st.PC || got.PCKnown != c.st.PCKnown {
				t.Errorf("%v: %s: snapshot of the restored lane differs from the state restored", d, c.name)
			}
		}
	}
}
