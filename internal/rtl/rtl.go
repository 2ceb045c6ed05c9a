// Package rtl is a structural hardware-construction DSL that elaborates
// word-level register-transfer descriptions into primitive-gate netlists.
// It plays the role Synopsys Design Compiler plays in the paper's flow:
// the three evaluation processors are described with this package and
// "synthesized" into the gate-level form the symbolic co-analysis needs.
// Everything elaborates to 1- and 2-input cells, 2:1 muxes and DFFs, so
// resulting gate counts are comparable to a technology-mapped netlist.
package rtl

import (
	"fmt"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

// Bus is an ordered set of nets forming a word; index 0 is bit 0 (LSB).
type Bus []netlist.NetID

// Module wraps a netlist under construction together with the global
// clock/reset infrastructure every sequential element shares.
type Module struct {
	N *netlist.Netlist

	// Clk and Rstn are the primary clock and active-low reset inputs.
	Clk  netlist.NetID
	Rstn netlist.NetID

	zero netlist.NetID
	one  netlist.NetID
	tmp  int
}

// NewModule creates a module with clk/rst_n inputs and constant nets.
func NewModule(name string) *Module {
	n := netlist.New(name)
	m := &Module{N: n}
	m.Clk = n.AddInput("clk")
	m.Rstn = n.AddInput("rst_n")
	m.zero = n.AddNet("tie0")
	n.AddGate(netlist.KindConst0, m.zero)
	m.one = n.AddNet("tie1")
	n.AddGate(netlist.KindConst1, m.one)
	return m
}

// Lo returns the constant-0 net.
func (m *Module) Lo() netlist.NetID { return m.zero }

// Hi returns the constant-1 net.
func (m *Module) Hi() netlist.NetID { return m.one }

func (m *Module) fresh(prefix string) netlist.NetID {
	m.tmp++
	return m.N.AddNet(fmt.Sprintf("%s$%d", prefix, m.tmp))
}

// Input declares a width-bit primary input bus named name (bit i is
// "name[i]"; a 1-bit bus is just "name").
func (m *Module) Input(name string, width int) Bus {
	b := make(Bus, width)
	for i := range b {
		b[i] = m.N.AddInput(busBit(name, width, i))
	}
	return b
}

// Output marks every bit of b as a primary output.
func (m *Module) Output(name string, b Bus) {
	for _, id := range b {
		m.N.MarkOutput(id)
	}
	_ = name
}

// Named gives stable names to the bits of b by driving fresh named nets
// with buffers. Used for nets the co-analysis must find by name (monitored
// control signals, PC bits).
func (m *Module) Named(name string, b Bus) Bus {
	out := make(Bus, len(b))
	for i := range b {
		out[i] = m.N.AddNet(busBit(name, len(b), i))
		m.N.AddGate(netlist.KindBuf, out[i], b[i])
	}
	return out
}

func busBit(name string, width, i int) string {
	if width == 1 {
		return name
	}
	return fmt.Sprintf("%s[%d]", name, i)
}

// Const returns a width-bit constant bus holding val.
func (m *Module) Const(width int, val uint64) Bus {
	b := make(Bus, width)
	for i := range b {
		if val>>uint(i)&1 == 1 {
			b[i] = m.one
		} else {
			b[i] = m.zero
		}
	}
	return b
}

// --- Bit-level operators ---

func (m *Module) gate2(kind netlist.GateKind, a, b netlist.NetID) netlist.NetID {
	out := m.fresh(kind.String())
	m.N.AddGate(kind, out, a, b)
	return out
}

// NotBit returns !a.
func (m *Module) NotBit(a netlist.NetID) netlist.NetID {
	out := m.fresh("NOT")
	m.N.AddGate(netlist.KindNot, out, a)
	return out
}

// AndBit returns a & b.
func (m *Module) AndBit(a, b netlist.NetID) netlist.NetID { return m.gate2(netlist.KindAnd, a, b) }

// OrBit returns a | b.
func (m *Module) OrBit(a, b netlist.NetID) netlist.NetID { return m.gate2(netlist.KindOr, a, b) }

// XorBit returns a ^ b.
func (m *Module) XorBit(a, b netlist.NetID) netlist.NetID { return m.gate2(netlist.KindXor, a, b) }

// XnorBit returns !(a ^ b).
func (m *Module) XnorBit(a, b netlist.NetID) netlist.NetID { return m.gate2(netlist.KindXnor, a, b) }

// NandBit returns !(a & b).
func (m *Module) NandBit(a, b netlist.NetID) netlist.NetID { return m.gate2(netlist.KindNand, a, b) }

// NorBit returns !(a | b).
func (m *Module) NorBit(a, b netlist.NetID) netlist.NetID { return m.gate2(netlist.KindNor, a, b) }

// MuxBit returns sel ? b : a.
func (m *Module) MuxBit(sel, a, b netlist.NetID) netlist.NetID {
	out := m.fresh("MUX2")
	m.N.AddGate(netlist.KindMux2, out, sel, a, b)
	return out
}

// AndTree reduces the given bits with a balanced AND tree (1 for empty).
func (m *Module) AndTree(bits ...netlist.NetID) netlist.NetID {
	return m.tree(netlist.KindAnd, m.one, bits)
}

// OrTree reduces the given bits with a balanced OR tree (0 for empty).
func (m *Module) OrTree(bits ...netlist.NetID) netlist.NetID {
	return m.tree(netlist.KindOr, m.zero, bits)
}

func (m *Module) tree(kind netlist.GateKind, empty netlist.NetID, bits []netlist.NetID) netlist.NetID {
	switch len(bits) {
	case 0:
		return empty
	case 1:
		return bits[0]
	}
	mid := len(bits) / 2
	return m.gate2(kind, m.tree(kind, empty, bits[:mid]), m.tree(kind, empty, bits[mid:]))
}

// --- Word-level operators ---

func sameWidth(op string, a, b Bus) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("rtl: %s width mismatch %d vs %d", op, len(a), len(b)))
	}
}

func (m *Module) map1(f func(netlist.NetID) netlist.NetID, a Bus) Bus {
	out := make(Bus, len(a))
	for i := range a {
		out[i] = f(a[i])
	}
	return out
}

func (m *Module) map2(op string, f func(x, y netlist.NetID) netlist.NetID, a, b Bus) Bus {
	sameWidth(op, a, b)
	out := make(Bus, len(a))
	for i := range a {
		out[i] = f(a[i], b[i])
	}
	return out
}

// Not inverts every bit of a.
func (m *Module) Not(a Bus) Bus { return m.map1(m.NotBit, a) }

// And is the bitwise AND of a and b.
func (m *Module) And(a, b Bus) Bus { return m.map2("And", m.AndBit, a, b) }

// Or is the bitwise OR of a and b.
func (m *Module) Or(a, b Bus) Bus { return m.map2("Or", m.OrBit, a, b) }

// Xor is the bitwise XOR of a and b.
func (m *Module) Xor(a, b Bus) Bus { return m.map2("Xor", m.XorBit, a, b) }

// Mux returns sel ? b : a, bitwise.
func (m *Module) Mux(sel netlist.NetID, a, b Bus) Bus {
	return m.map2("Mux", func(x, y netlist.NetID) netlist.NetID { return m.MuxBit(sel, x, y) }, a, b)
}

// Add returns a+b+cin as a ripple-carry sum plus the carry out.
func (m *Module) Add(a, b Bus, cin netlist.NetID) (sum Bus, cout netlist.NetID) {
	sameWidth("Add", a, b)
	sum = make(Bus, len(a))
	c := cin
	for i := range a {
		axb := m.XorBit(a[i], b[i])
		sum[i] = m.XorBit(axb, c)
		c = m.OrBit(m.AndBit(a[i], b[i]), m.AndBit(axb, c))
	}
	return sum, c
}

// Sub returns a-b and a "no borrow" flag (1 when a >= b unsigned), computed
// as a + ~b + 1.
func (m *Module) Sub(a, b Bus) (diff Bus, noBorrow netlist.NetID) {
	return m.Add(a, m.Not(b), m.one)
}

// Inc returns a+1.
func (m *Module) Inc(a Bus) Bus {
	s, _ := m.Add(a, m.Const(len(a), 0), m.one)
	return s
}

// Eq returns the 1-bit equality of a and b.
func (m *Module) Eq(a, b Bus) netlist.NetID {
	sameWidth("Eq", a, b)
	bits := make([]netlist.NetID, len(a))
	for i := range a {
		bits[i] = m.XnorBit(a[i], b[i])
	}
	return m.AndTree(bits...)
}

// EqConst returns the 1-bit comparison a == val.
func (m *Module) EqConst(a Bus, val uint64) netlist.NetID {
	bits := make([]netlist.NetID, len(a))
	for i := range a {
		if val>>uint(i)&1 == 1 {
			bits[i] = a[i]
		} else {
			bits[i] = m.NotBit(a[i])
		}
	}
	return m.AndTree(bits...)
}

// Zero returns the 1-bit test a == 0.
func (m *Module) Zero(a Bus) netlist.NetID {
	return m.NotBit(m.OrTree(a...))
}

// NonZero returns the 1-bit test a != 0.
func (m *Module) NonZero(a Bus) netlist.NetID { return m.OrTree(a...) }

// LtU returns the unsigned comparison a < b (borrow of a-b).
func (m *Module) LtU(a, b Bus) netlist.NetID {
	_, noBorrow := m.Sub(a, b)
	return m.NotBit(noBorrow)
}

// LtS returns the signed comparison a < b.
func (m *Module) LtS(a, b Bus) netlist.NetID {
	sameWidth("LtS", a, b)
	msb := len(a) - 1
	diff, _ := m.Sub(a, b)
	// a<b signed: (a.sign != b.sign) ? a.sign : diff.sign
	diffSign := diff[msb]
	return m.MuxBit(m.XorBit(a[msb], b[msb]), diffSign, a[msb])
}

// SignExtend widens a to width bits replicating its MSB.
func (m *Module) SignExtend(a Bus, width int) Bus {
	out := make(Bus, width)
	copy(out, a)
	for i := len(a); i < width; i++ {
		out[i] = a[len(a)-1]
	}
	return out
}

// ZeroExtend widens a to width bits with zeros.
func (m *Module) ZeroExtend(a Bus, width int) Bus {
	out := make(Bus, width)
	copy(out, a)
	for i := len(a); i < width; i++ {
		out[i] = m.zero
	}
	return out
}

// ShiftLeft returns a << shamt as a logarithmic barrel shifter.
func (m *Module) ShiftLeft(a Bus, shamt Bus) Bus {
	cur := a
	for s := 0; s < len(shamt) && 1<<uint(s) < len(a)*2; s++ {
		k := 1 << uint(s)
		shifted := make(Bus, len(a))
		for i := range a {
			if i >= k {
				shifted[i] = cur[i-k]
			} else {
				shifted[i] = m.zero
			}
		}
		cur = m.Mux(shamt[s], cur, shifted)
	}
	return cur
}

// ShiftRight returns a >> shamt; arithmetic when arith is true.
func (m *Module) ShiftRight(a Bus, shamt Bus, arith bool) Bus {
	fill := m.zero
	if arith {
		fill = a[len(a)-1]
	}
	cur := a
	for s := 0; s < len(shamt) && 1<<uint(s) < len(a)*2; s++ {
		k := 1 << uint(s)
		shifted := make(Bus, len(a))
		for i := range a {
			if i+k < len(a) {
				shifted[i] = cur[i+k]
			} else {
				shifted[i] = fill
			}
		}
		cur = m.Mux(shamt[s], cur, shifted)
	}
	return cur
}

// MulU returns the low len(a)+len(b) bits of the unsigned product a*b as a
// shift-and-add array multiplier — the "hardware multiplier" block of bm32
// and the openMSP430 peripheral.
func (m *Module) MulU(a, b Bus) Bus {
	width := len(a) + len(b)
	acc := m.Const(width, 0)
	for i := range b {
		partial := make(Bus, width)
		for j := 0; j < width; j++ {
			if j >= i && j-i < len(a) {
				partial[j] = m.AndBit(a[j-i], b[i])
			} else {
				partial[j] = m.zero
			}
		}
		acc, _ = m.Add(acc, partial, m.zero)
	}
	return acc
}

// Decoder returns the one-hot decode of sel (2^len(sel) outputs).
func (m *Module) Decoder(sel Bus) Bus {
	out := make(Bus, 1<<uint(len(sel)))
	for v := range out {
		bits := make([]netlist.NetID, len(sel))
		for i := range sel {
			if v>>uint(i)&1 == 1 {
				bits[i] = sel[i]
			} else {
				bits[i] = m.NotBit(sel[i])
			}
		}
		out[v] = m.AndTree(bits...)
	}
	return out
}

// MuxWord selects words[sel] with a balanced mux tree. Missing words (when
// len(words) < 2^len(sel)) read as zero.
func (m *Module) MuxWord(sel Bus, words []Bus) Bus {
	if len(words) == 0 {
		panic("rtl: MuxWord with no words")
	}
	width := len(words[0])
	pad := m.Const(width, 0)
	var build func(sel Bus, ws []Bus) Bus
	build = func(sel Bus, ws []Bus) Bus {
		if len(sel) == 0 {
			if len(ws) == 0 {
				return pad
			}
			return ws[0]
		}
		half := 1 << uint(len(sel)-1)
		var lo, hi []Bus
		if len(ws) > half {
			lo, hi = ws[:half], ws[half:]
		} else {
			lo, hi = ws, nil
		}
		a := build(sel[:len(sel)-1], lo)
		b := build(sel[:len(sel)-1], hi)
		return m.Mux(sel[len(sel)-1], a, b)
	}
	return build(sel, words)
}

// --- Sequential elements ---

// Reg creates a width-bit register with reset value init, write enable en
// and next value d. It returns the Q bus. Pass m.Hi() as en for an
// always-updating register.
func (m *Module) Reg(name string, d Bus, en netlist.NetID, init uint64) Bus {
	q := make(Bus, len(d))
	for i := range d {
		q[i] = m.N.AddNet(busBit(name, len(d), i))
		iv := logic.Lo
		if init>>uint(i)&1 == 1 {
			iv = logic.Hi
		}
		g := m.N.AddDFF(q[i], d[i], m.Clk, en, m.Rstn, iv)
		m.N.Gates[g].Name = busBit(name, len(d), i)
	}
	return q
}

// RegFile builds a words × width register file with one write port and
// count read ports. All storage is DFFs, so the register file contributes
// to the design's gate count exactly as a synthesized flop-based register
// file would.
func (m *Module) RegFile(name string, words, width int, wen netlist.NetID, waddr Bus, wdata Bus, raddrs []Bus) []Bus {
	dec := m.Decoder(waddr)
	regs := make([]Bus, words)
	for w := 0; w < words; w++ {
		en := m.AndBit(wen, dec[w])
		regs[w] = m.Reg(fmt.Sprintf("%s_r%d", name, w), wdata, en, 0)
	}
	out := make([]Bus, len(raddrs))
	for i, ra := range raddrs {
		out[i] = m.MuxWord(ra, regs)
	}
	return out
}

// --- Memories ---

// ROM instantiates a read-only memory (asynchronous read) holding init and
// returns its read-data bus.
func (m *Module) ROM(name string, addr Bus, dataBits, words int, init []logic.Vec) Bus {
	data := make(Bus, dataBits)
	for i := range data {
		data[i] = m.N.AddNet(fmt.Sprintf("%s_rd[%d]", name, i))
	}
	m.N.AddMem(&netlist.Mem{
		Name: name, AddrBits: len(addr), DataBits: dataBits, Words: words,
		Init: init, RAddr: addr, RData: data, Clk: netlist.NoNet, WEn: netlist.NoNet,
	})
	return data
}

// RAM instantiates a RAM with an asynchronous read port and a synchronous
// write port, returning its read-data bus.
func (m *Module) RAM(name string, raddr Bus, dataBits, words int, init []logic.Vec, wen netlist.NetID, waddr, wdata Bus) Bus {
	data := make(Bus, dataBits)
	for i := range data {
		data[i] = m.N.AddNet(fmt.Sprintf("%s_rd[%d]", name, i))
	}
	m.N.AddMem(&netlist.Mem{
		Name: name, AddrBits: len(raddr), DataBits: dataBits, Words: words,
		Init: init, RAddr: raddr, RData: data,
		Clk: m.Clk, WEn: wen, WAddr: waddr, WData: wdata,
	})
	return data
}

// Slice returns bits [lo, hi) of b.
func Slice(b Bus, lo, hi int) Bus { return b[lo:hi] }

// Cat concatenates buses, lowest first.
func Cat(parts ...Bus) Bus {
	var out Bus
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Repeat returns a bus of n copies of bit.
func Repeat(bit netlist.NetID, n int) Bus {
	out := make(Bus, n)
	for i := range out {
		out[i] = bit
	}
	return out
}
