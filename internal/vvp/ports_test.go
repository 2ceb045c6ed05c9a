package vvp

import (
	"fmt"
	"math/rand"
	"testing"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

// portModel is the memory-port semantics written one bit at a time, the
// reference the word-at-a-time ports are checked against: every pin of the
// RAM under test is a primary input, so the model needs no gates.
type portModel struct {
	words [][]logic.Value
	memx  MemXPolicy
}

func foldZ(v logic.Value) logic.Value {
	if v == logic.Z {
		return logic.X
	}
	return v
}

func mergeBit(a, b logic.Value) logic.Value {
	if a == b && a.IsKnown() {
		return a
	}
	return logic.X
}

// matches reports whether the ternary address could name word w.
func matches(addr []logic.Value, w int) bool {
	for i, b := range addr {
		if b.IsKnown() && b != logic.Bool(w>>uint(i)&1 == 1) {
			return false
		}
	}
	return true
}

func allKnown(vs []logic.Value) bool {
	for _, v := range vs {
		if !v.IsKnown() {
			return false
		}
	}
	return true
}

func (pm *portModel) write(we logic.Value, addr, data []logic.Value) {
	if we == logic.Lo || (!allKnown(addr) && pm.memx == MemXVerilog) {
		return
	}
	exact := we == logic.Hi && allKnown(addr)
	for w, word := range pm.words {
		if !matches(addr, w) {
			continue
		}
		for i := range word {
			if exact {
				word[i] = foldZ(data[i])
			} else {
				word[i] = mergeBit(word[i], data[i])
			}
		}
	}
}

func (pm *portModel) read(addr []logic.Value) []logic.Value {
	if allKnown(addr) {
		for w, word := range pm.words {
			if matches(addr, w) {
				return word
			}
		}
	}
	x := make([]logic.Value, len(pm.words[0]))
	for i := range x {
		x[i] = logic.X
	}
	return x
}

// TestPortsAgainstBitwiseModel drives a RAM whose every pin is a primary
// input with random 0/1/X/Z and compares read data and contents with the
// bitwise model after every step, under both X-address policies and on both
// engines. The geometries cover a word of several 64-bit chunks with a
// ragged tail, an address space larger than the word count, and the shipped
// shape.
func TestPortsAgainstBitwiseModel(t *testing.T) {
	for _, g := range []struct{ addrBits, words, dataBits int }{
		{3, 5, 72}, {2, 4, 64}, {4, 9, 130}, {5, 32, 16},
	} {
		n := netlist.New("ports")
		clk := n.AddInput("clk")
		bus := func(name string, w int) []netlist.NetID {
			var b []netlist.NetID
			for i := 0; i < w; i++ {
				b = append(b, n.AddInput(fmt.Sprintf("%s%d", name, i)))
			}
			return b
		}
		we := n.AddInput("we")
		raddr, waddr, wdata := bus("ra", g.addrBits), bus("wa", g.addrBits), bus("wd", g.dataBits)
		var rdata []netlist.NetID
		for i := 0; i < g.dataBits; i++ {
			rdata = append(rdata, n.AddNet(fmt.Sprintf("rd%d", i)))
		}
		n.AddMem(&netlist.Mem{Name: "ram", AddrBits: g.addrBits, DataBits: g.dataBits, Words: g.words,
			RAddr: raddr, RData: rdata, Clk: clk, WEn: we, WAddr: waddr, WData: wdata})
		n.MarkOutput(rdata[0])
		if err := n.Freeze(); err != nil {
			t.Fatal(err)
		}
		for _, memx := range []MemXPolicy{MemXVerilog, MemXSound} {
			for _, eng := range []Engine{EngineKernel, EngineInterp} {
				ctx := fmt.Sprintf("%dx%d/%d memx=%d %v", g.words, g.dataBits, g.addrBits, memx, eng)
				r := rand.New(rand.NewSource(int64(g.dataBits)))
				// Mostly known values, so writes land and addresses resolve,
				// with enough X and Z to reach every branch.
				draw := func() logic.Value {
					return []logic.Value{logic.Lo, logic.Hi, logic.Lo, logic.Hi, logic.Lo, logic.Hi, logic.X, logic.Z}[r.Intn(8)]
				}
				const cycles = 300
				st := NewStimulus(clk, hp)
				for c := 0; c < cycles; c++ {
					at := uint64(2*hp*c) + 1 // while the clock is low
					st.At(at, we, draw())
					for _, pin := range [][]netlist.NetID{raddr, waddr, wdata} {
						for _, in := range pin {
							st.At(at, in, draw())
						}
					}
				}
				st.Finalize()
				s := New(n, Options{Engine: eng, MemX: memx})
				s.BindStimulus(st)
				pm := &portModel{memx: memx}
				for w := 0; w < g.words; w++ {
					word := make([]logic.Value, g.dataBits)
					for i := range word {
						word[i] = logic.X
					}
					pm.words = append(pm.words, word)
				}
				vals := func(nets []netlist.NetID) []logic.Value {
					var vs []logic.Value
					for _, id := range nets {
						vs = append(vs, s.Value(id))
					}
					return vs
				}
				writes := 0
				for step := 0; step < 3*cycles-1; step++ {
					wasLow := s.Value(clk) == logic.Lo
					if _, err := s.Step(); err != nil {
						t.Fatal(err)
					}
					if wasLow && s.Value(clk) == logic.Hi {
						pm.write(s.Value(we), vals(waddr), vals(wdata))
						writes++
					}
					want := pm.read(vals(raddr))
					for i, d := range rdata {
						if got := s.Value(d); got != want[i] {
							t.Fatalf("%s step %d: read data bit %d = %v, model says %v", ctx, step, i, got, want[i])
						}
					}
					for w, word := range pm.words {
						got := s.MemWord(0, w)
						for i := range word {
							if got.Get(i) != word[i] {
								t.Fatalf("%s step %d: word %d bit %d = %v, model says %v", ctx, step, w, i, got.Get(i), word[i])
							}
						}
					}
				}
				if writes < cycles-1 {
					t.Fatalf("%s: saw %d rising edges, want %d", ctx, writes, cycles-1)
				}
			}
		}
	}
}
