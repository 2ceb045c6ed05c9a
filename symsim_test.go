package symsim_test

import (
	"strings"
	"testing"

	"symsim"
	"symsim/internal/vvp"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	p, err := symsim.BuildPlatform(symsim.DR5, "tea8")
	if err != nil {
		t.Fatal(err)
	}
	res, err := symsim.Analyze(p, symsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PathsCreated != 1 {
		t.Errorf("tea8 paths = %d", res.PathsCreated)
	}
	bsp, err := symsim.Bespoke(res)
	if err != nil {
		t.Fatal(err)
	}
	if bsp.BespokeGates >= bsp.OriginalGates {
		t.Errorf("bespoke did not shrink: %d -> %d", bsp.OriginalGates, bsp.BespokeGates)
	}
	inputs := []symsim.MemInit{
		{Mem: "dmem", Word: 0, Val: symsim.NewVecUint64(32, 0x1234)},
		{Mem: "dmem", Word: 1, Val: symsim.NewVecUint64(32, 0x5678)},
	}
	rep, err := symsim.ValidateBespoke(res, bsp, p, inputs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SubsetViolations != 0 {
		t.Errorf("violations: %d", rep.SubsetViolations)
	}
}

func TestBenchmarksList(t *testing.T) {
	bs := symsim.Benchmarks()
	if len(bs) != 6 || bs[0] != "Div" || bs[5] != "tea8" {
		t.Errorf("benchmarks = %v", bs)
	}
}

func TestTables(t *testing.T) {
	if !strings.Contains(symsim.Table1(), "binSearch") {
		t.Error("Table1 incomplete")
	}
	t2, err := symsim.Table2()
	if err != nil || !strings.Contains(t2, "omsp430") {
		t.Errorf("Table2: %v", err)
	}
}

// TestCustomDesignAnalysis is the design-agnosticism proof at the public
// API level: a user-built sequencer — not one of the three bundled
// processors — goes through the same co-analysis. The design is a 2-bit-PC
// microcoded FSM with a branch on an unknown input; the analysis must fork
// at the branch and cover both sides.
func TestCustomDesignAnalysis(t *testing.T) {
	p, _ := seqPlatform(t)
	res, err := symsim.Analyze(p, symsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PathsCreated < 3 {
		t.Errorf("custom design paths = %d, want >= 3 (one fork)", res.PathsCreated)
	}
	finished := 0
	for _, ps := range res.Paths {
		if ps.End.String() == "finished" {
			finished++
		}
	}
	if finished < 2 {
		t.Errorf("finished paths = %d, want both branch directions", finished)
	}
}

// seqPlatform builds the sequencer of TestCustomDesignAnalysis and returns
// its platform and the 2-bit input bus in.
func seqPlatform(t *testing.T) (*symsim.Platform, symsim.Bus) {
	t.Helper()
	m := symsim.NewModule("seq")
	b := func(name string, width int) symsim.Bus {
		out := make(symsim.Bus, width)
		for i := range out {
			n := name
			if width > 1 {
				n = name + "[" + string(rune('0'+i)) + "]"
			}
			out[i] = m.N.AddNet(n)
		}
		return out
	}
	// Microcode: 4 words x 4 bits; [1:0] op, [3:2] arg.
	// 0: LOADIN      reg <- in
	// 1: BR  arg     if reg[0]
	// 2: JMP arg
	// 3: HALT
	rom := []uint64{
		0 | 0<<2, // 0: LOADIN
		1 | 3<<2, // 1: BR 3
		3 | 0<<2, // 2: HALT
		3 | 0<<2, // 3: HALT
	}
	romInit := make([]symsim.Vec, len(rom))
	for i, w := range rom {
		romInit[i] = symsim.NewVecUint64(4, w)
	}

	in := m.Input("in", 2)

	pcD := b("pc_d", 2)
	pcEn := b("pc_en", 1)
	pc := m.Reg("pc", pcD, pcEn[0], 0)
	ph := m.Reg("ph", b("ph_d", 1), m.Hi(), 0)
	phD, _ := m.N.NetByName("ph_d")
	m.N.AddGate(symsim.KindNot, phD, ph[0])
	exec := ph[0]

	insn := m.ROM("urom", pc, 4, 4, romInit)
	op := insn[0:2]
	arg := insn[2:4]

	regD := b("reg_d", 2)
	regEn := b("reg_en", 1)
	reg := m.Reg("reg", regD, regEn[0], 0)
	isLoad := m.EqConst(op, 0)
	isBR := m.EqConst(op, 1)
	isJMP := m.EqConst(op, 2)
	isHALT := m.EqConst(op, 3)
	for i := range regD {
		m.N.AddGate(symsim.KindBuf, regD[i], in[i])
	}
	m.N.AddGate(symsim.KindAnd, regEn[0], exec, isLoad)

	cond := m.Named("branch_cond", symsim.Bus{reg[0]})[0]
	m.Named("branch_active", symsim.Bus{m.AndBit(exec, isBR)})
	m.Named("watch0", symsim.Bus{reg[0]})
	m.Named("watch1", symsim.Bus{reg[1]})

	pcInc := m.Inc(pc)
	taken := m.OrBit(m.AndBit(isBR, cond), isJMP)
	next := m.Mux(taken, pcInc, arg)
	for i := range pcD {
		m.N.AddGate(symsim.KindBuf, pcD[i], next[i])
	}
	m.N.AddGate(symsim.KindBuf, pcEn[0], exec)

	haltD := b("halt_d", 1)
	haltEn := b("halt_en", 1)
	halted := m.Reg("halted_q", haltD, haltEn[0], 0)
	m.N.AddGate(symsim.KindBuf, haltD[0], m.Hi())
	m.N.AddGate(symsim.KindAnd, haltEn[0], exec, isHALT)
	m.Output("halted", m.Named("halted", halted))
	m.Output("pc_o", pc)

	if err := m.N.Freeze(); err != nil {
		t.Fatal(err)
	}
	spec, err := symsim.StateSpecFor(m.N, "pc")
	if err != nil {
		t.Fatal(err)
	}
	var mon symsim.MonitorXSpec
	ba, _ := m.N.NetByName("branch_active")
	fin, _ := m.N.NetByName("halted")
	w0, _ := m.N.NetByName("watch0")
	w1, _ := m.N.NetByName("watch1")
	cn, _ := m.N.NetByName("branch_cond")
	mon.BranchActive, mon.Cond, mon.Finish = ba, cn, fin
	mon.Watch = append(mon.Watch, w0, w1)

	return &symsim.Platform{
		Name: "seq", Design: m.N, Spec: spec, Monitor: mon,
		HalfPeriod: 5, ResetCycles: 2,
	}, in
}

// Validation drives the bespoke netlist's inputs by position: re-synthesis
// keeps the primary inputs in order but renumbers them, so an input event
// must reach the bespoke run's own input, not the net that has the
// original's ID there. The events land after recording starts (the first
// clock edge after reset release, t=25) and before the sequencer loads in
// (t=35), so in toggles and the logic it drives survives pruning.
func TestValidateBespokeDrivesInputsByPosition(t *testing.T) {
	p, in := seqPlatform(t)
	for i, v := range []symsim.Value{symsim.Hi, symsim.Lo} {
		p.Inputs = append(p.Inputs, vvp.InputEvent{Time: 27, Net: in[i], Val: v})
	}
	res, err := symsim.Analyze(p, symsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bsp, err := symsim.Bespoke(res)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := symsim.ValidateBespoke(res, bsp, p, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OutputsCompared == 0 {
		t.Error("validation compared no outputs")
	}
}

// A malformed input word is an error naming the memory, the word and both
// widths, not a panic inside the simulator, on both public concrete runs.
func TestMalformedMemInitIsAnError(t *testing.T) {
	p, err := symsim.BuildPlatform(symsim.DR5, "tea8")
	if err != nil {
		t.Fatal(err)
	}
	res, err := symsim.Analyze(p, symsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bsp, err := symsim.Bespoke(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		in   symsim.MemInit
		want []string
	}{
		{"unknown memory", symsim.MemInit{Mem: "nomem", Word: 0, Val: symsim.NewVecUint64(32, 1)}, []string{`no memory "nomem"`}},
		{"narrow value", symsim.MemInit{Mem: "dmem", Word: 0, Val: symsim.NewVecUint64(16, 1)}, []string{"dmem[0] of 16 bits", "words of 32 bits"}},
		{"word past the end", symsim.MemInit{Mem: "dmem", Word: 1 << 20, Val: symsim.NewVecUint64(32, 1)}, []string{"dmem[1048576] of 32 bits", "words of 32 bits"}},
	} {
		inputs := []symsim.MemInit{c.in}
		_, verr := symsim.ValidateBespoke(res, bsp, p, inputs, 1<<20)
		_, perr := symsim.MeasurePower(p, inputs, 1<<20)
		for _, err := range []error{verr, perr} {
			for _, w := range c.want {
				if err == nil || !strings.Contains(err.Error(), w) {
					t.Errorf("%s: error %v, want one containing %q", c.name, err, w)
				}
			}
		}
	}
}
