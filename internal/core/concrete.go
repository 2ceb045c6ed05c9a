package core

import (
	"fmt"

	"symsim/internal/logic"
	"symsim/internal/vvp"
)

// MemInit pins one memory word to a concrete value before a concrete run:
// the "fixed known inputs" of paper §5.0.1, written into the
// application-input words the symbolic analysis leaves X.
type MemInit struct {
	Mem  string
	Word int
	Val  logic.Vec
}

// RunConcrete runs the platform's application on known inputs (paper
// §5.0.1): a simulator built with opts and bound to the platform's monitor
// and stimulus, the inputs pinned, stepped through reset and then, recording
// from the application's initial state as an analysis path does, to the
// finish net. It fails on an X halt, on an error, or when more than maxCycles
// cycles pass after reset release. each, when non-nil, runs after every
// clock cycle from reset release on, so it sees the cycles PathStat.Cycles
// counts. It returns the simulator at the finish step.
func (p *Platform) RunConcrete(opts vvp.Options, inputs []MemInit, maxCycles uint64, each func(*vvp.Simulator)) (*vvp.Simulator, error) {
	if err := p.Design.Freeze(); err != nil {
		return nil, err
	}
	sim := vvp.New(p.Design, opts)
	sim.SetMonitorX(&p.Monitor)
	sim.BindStimulus(p.Stimulus())
	for _, in := range inputs {
		id, ok := p.Design.MemByName(in.Mem)
		if !ok {
			return nil, fmt.Errorf("core: no memory %q", in.Mem)
		}
		if m := p.Design.Mems[id]; in.Word < 0 || in.Word >= m.Words || in.Val.Width() != m.DataBits {
			return nil, fmt.Errorf("core: input %s[%d] of %d bits: the memory has %d words of %d bits",
				in.Mem, in.Word, in.Val.Width(), m.Words, m.DataBits)
		}
		sim.SetMemWord(id, in.Word, in.Val)
	}
	if err := p.stepReset(sim); err != nil {
		return nil, err
	}
	sim.StartRecording()
	start, last := sim.Cycles(), sim.Cycles()
	for {
		status, err := sim.Step()
		if err != nil {
			return nil, err
		}
		if sim.Cycles() != last {
			last = sim.Cycles()
			if each != nil {
				each(sim)
			}
		}
		switch status {
		case vvp.Finished:
			return sim, nil
		case vvp.HaltX:
			return nil, fmt.Errorf("core: %s halted on X at t=%d", p.Name, sim.Now())
		}
		if last-start > maxCycles {
			return nil, fmt.Errorf("core: %s did not finish within %d cycles", p.Name, maxCycles)
		}
	}
}

// stepReset steps sim through the reset sequence to the application's
// initial state (Algorithm 1 lines 4–5), where an analysis's cold boot and
// every concrete run begin.
func (p *Platform) stepReset(sim *vvp.Simulator) error {
	for end := p.resetEndTime(); sim.Now() <= end; {
		if _, err := sim.Step(); err != nil {
			return err
		}
	}
	return nil
}
