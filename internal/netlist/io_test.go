package netlist

import (
	"bytes"
	"strings"
	"testing"

	"symsim/internal/logic"
)

// ioToy builds a design exercising every serializable feature: all gate
// kinds, a DFF with a nonzero reset value, a ROM and a RAM with ternary
// init.
func ioToy(t *testing.T) *Netlist {
	t.Helper()
	n := New("iotoy")
	clk := n.AddInput("clk")
	rstn := n.AddInput("rst_n")
	a := n.AddInput("a")
	b := n.AddInput("b")
	one := n.AddNet("one")
	n.AddGate(KindConst1, one)
	zero := n.AddNet("zero")
	n.AddGate(KindConst0, zero)
	w := map[string]NetID{}
	for _, kind := range []GateKind{KindAnd, KindOr, KindNand, KindNor, KindXor, KindXnor} {
		out := n.AddNet("w_" + kind.String())
		n.AddGate(kind, out, a, b)
		w[kind.String()] = out
	}
	nb := n.AddNet("nb")
	n.AddGate(KindNot, nb, b)
	bb := n.AddNet("bb")
	n.AddGate(KindBuf, bb, a)
	mx := n.AddNet("mx")
	n.AddGate(KindMux2, mx, a, w["AND"], w["OR"])
	q := n.AddNet("q")
	n.AddDFF(q, mx, clk, one, rstn, logic.Hi)

	romD := []NetID{n.AddNet("romd0"), n.AddNet("romd1")}
	n.AddMem(&Mem{Name: "rom", AddrBits: 1, DataBits: 2, Words: 2,
		Init:  []logic.Vec{logic.MustVec("10"), logic.MustVec("x1")},
		RAddr: []NetID{a}, RData: romD, Clk: NoNet, WEn: NoNet})
	ramD := []NetID{n.AddNet("ramd0"), n.AddNet("ramd1")}
	n.AddMem(&Mem{Name: "ram", AddrBits: 1, DataBits: 2, Words: 2,
		RAddr: []NetID{b}, RData: ramD,
		Clk: clk, WEn: q, WAddr: []NetID{b}, WData: []NetID{romD[0], romD[1]}})

	n.MarkOutput(q)
	n.MarkOutput(ramD[0])
	n.MarkOutput(ramD[1])
	if err := n.Freeze(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestJSONRoundTrip(t *testing.T) {
	orig := ioToy(t)
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name {
		t.Errorf("name %q", got.Name)
	}
	if len(got.Nets) != len(orig.Nets) || len(got.Gates) != len(orig.Gates) || len(got.Mems) != len(orig.Mems) {
		t.Fatalf("shape mismatch: %d/%d nets, %d/%d gates, %d/%d mems",
			len(got.Nets), len(orig.Nets), len(got.Gates), len(orig.Gates), len(got.Mems), len(orig.Mems))
	}
	for i := range orig.Gates {
		g, o := got.Gates[i], orig.Gates[i]
		if g.Kind != o.Kind || g.Out != o.Out || len(g.In) != len(o.In) || g.Init != o.Init {
			t.Errorf("gate %d mismatch: %+v vs %+v", i, g, o)
		}
	}
	for i := range orig.Mems {
		g, o := got.Mems[i], orig.Mems[i]
		if g.Name != o.Name || g.Words != o.Words || g.IsROM() != o.IsROM() {
			t.Errorf("mem %d mismatch", i)
		}
		for wi := range o.Init {
			if !g.Init[wi].Equal(o.Init[wi]) {
				t.Errorf("mem %d init %d: %s vs %s", i, wi, g.Init[wi], o.Init[wi])
			}
		}
	}
	if len(got.Inputs) != len(orig.Inputs) || len(got.Outputs) != len(orig.Outputs) {
		t.Error("port mismatch")
	}
	// Round-tripping again must be byte-identical (canonical form).
	var buf2 bytes.Buffer
	if err := got.Write(&buf2); err != nil {
		t.Fatal(err)
	}
	var buf1 bytes.Buffer
	if err := orig.Write(&buf1); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Error("round trip not canonical")
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{
		`not json`,
		`{"name":"x","nets":[{"name":"a"}],"gates":[{"kind":"WAT","out":0}]}`,
		`{"name":"x","nets":[{"name":"a"}],"gates":[{"kind":"NOT","in":[5],"out":0}]}`,
		`{"name":"x","nets":[{"name":"a"},{"name":"a"}],"gates":[]}`,
		`{"name":"x","nets":[{"name":"a"}],"outputs":[9]}`,
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestWriteVerilog(t *testing.T) {
	n := ioToy(t)
	var buf bytes.Buffer
	if err := n.WriteVerilog(&buf); err != nil {
		t.Fatal(err)
	}
	v := buf.String()
	for _, want := range []string{
		"module iotoy",
		"input clk;",
		"and g", "xor g",
		"always @(posedge clk or negedge rst_n)",
		"reg [1:0] mem0_rom [0:1];",
		"mem0_rom[1] = 2'bx1;",
		"endmodule",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("verilog missing %q:\n%s", want, v)
		}
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"pc[3]":   "pc_3_",
		"a$b":     "a_b",
		"0net":    "n0net",
		"":        "n",
		"fine_99": "fine_99",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// A full processor must survive the JSON round trip and still simulate:
// this exercises the interchange path end-to-end.
func TestRoundTripKeepsDesignUsable(t *testing.T) {
	// Use the fold test design which has gates and no clock dependency.
	n, _, _ := buildFoldable(t)
	var buf bytes.Buffer
	if err := n.Write(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.CombOrder(); err != nil {
		t.Fatal(err)
	}
	if rt.MaxLevel() == 0 {
		t.Error("levels lost")
	}
}

// Multi-driven nets cannot be built via the construction API, but a
// hand-written interchange file can contain them: the strict reader must
// reject such a file with an error naming the net, while the tolerant
// reader accepts it for diagnosis.
func TestReadRejectsMultiDrivenNet(t *testing.T) {
	src := `{"name":"md","nets":[{"name":"a"},{"name":"o"}],"inputs":[0],
		"gates":[{"kind":"BUF","in":[0],"out":1},{"kind":"NOT","in":[0],"out":1}],
		"outputs":[1]}`
	_, err := Read(strings.NewReader(src))
	if err == nil {
		t.Fatal("multi-driven net accepted by strict Read")
	}
	for _, want := range []string{`"o"`, "2 drivers", "multi-driven"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}

	n, err := ReadRaw(strings.NewReader(src))
	if err != nil {
		t.Fatalf("tolerant ReadRaw rejected the file: %v", err)
	}
	if counts := n.DriverCounts(); counts[1] != 2 {
		t.Fatalf("driver counts = %v, want net 1 to have 2", counts)
	}
}

// ReadRaw must accept designs the strict reader rejects — that is its
// purpose — as long as the JSON itself decodes.
func TestReadRawToleratesBrokenDesigns(t *testing.T) {
	cases := []string{
		// Gate input out of range.
		`{"name":"x","nets":[{"name":"a"}],"gates":[{"kind":"NOT","in":[5],"out":0}]}`,
		// Duplicate net names.
		`{"name":"x","nets":[{"name":"a"},{"name":"a"}],"gates":[]}`,
		// Output list out of range.
		`{"name":"x","nets":[{"name":"a"}],"outputs":[9]}`,
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted by strict Read", i)
		}
		if _, err := ReadRaw(strings.NewReader(c)); err != nil {
			t.Errorf("case %d rejected by tolerant ReadRaw: %v", i, err)
		}
	}
}
