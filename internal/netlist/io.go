package netlist

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"symsim/internal/logic"
)

// The interchange format: a complete, self-contained JSON description of a
// gate-level netlist including memory geometry and ternary initial
// contents. This is the on-disk form the tool consumes and produces (the
// paper's flow passes gate-level netlists between synthesis and
// co-analysis); WriteVerilog additionally emits a human-readable
// structural Verilog view of the same design.

type jsonNetlist struct {
	Name    string     `json:"name"`
	Nets    []jsonNet  `json:"nets"`
	Inputs  []NetID    `json:"inputs"`
	Outputs []NetID    `json:"outputs"`
	Gates   []jsonGate `json:"gates"`
	Mems    []jsonMem  `json:"mems,omitempty"`
}

type jsonNet struct {
	Name string `json:"name"`
}

type jsonGate struct {
	Kind string  `json:"kind"`
	In   []NetID `json:"in,omitempty"`
	Out  NetID   `json:"out"`
	Init string  `json:"init,omitempty"` // DFF reset value: "0", "1" or "x"
	Name string  `json:"label,omitempty"`
}

type jsonMem struct {
	Name     string   `json:"name"`
	AddrBits int      `json:"addr_bits"`
	DataBits int      `json:"data_bits"`
	Words    int      `json:"words"`
	RAddr    []NetID  `json:"raddr"`
	RData    []NetID  `json:"rdata"`
	Clk      *NetID   `json:"clk,omitempty"`
	WEn      *NetID   `json:"wen,omitempty"`
	WAddr    []NetID  `json:"waddr,omitempty"`
	WData    []NetID  `json:"wdata,omitempty"`
	Init     []string `json:"init,omitempty"` // ternary bit strings, MSB first
}

var kindByName = func() map[string]GateKind {
	m := make(map[string]GateKind)
	for k := KindConst0; k <= KindDFF; k++ {
		m[k.String()] = k
	}
	return m
}()

// MarshalJSON serializes the netlist into the interchange format.
func (n *Netlist) MarshalJSON() ([]byte, error) {
	out := jsonNetlist{Name: n.Name, Inputs: n.Inputs, Outputs: n.Outputs}
	for _, nt := range n.Nets {
		out.Nets = append(out.Nets, jsonNet{Name: nt.Name})
	}
	for _, g := range n.Gates {
		jg := jsonGate{Kind: g.Kind.String(), In: g.In, Out: g.Out, Name: g.Name}
		if g.Kind == KindDFF {
			jg.Init = g.Init.String()
		}
		out.Gates = append(out.Gates, jg)
	}
	for _, m := range n.Mems {
		jm := jsonMem{
			Name: m.Name, AddrBits: m.AddrBits, DataBits: m.DataBits,
			Words: m.Words, RAddr: m.RAddr, RData: m.RData,
		}
		if !m.IsROM() {
			clk, wen := m.Clk, m.WEn
			jm.Clk, jm.WEn = &clk, &wen
			jm.WAddr, jm.WData = m.WAddr, m.WData
		}
		for _, v := range m.Init {
			jm.Init = append(jm.Init, v.String())
		}
		out.Mems = append(out.Mems, jm)
	}
	return json.MarshalIndent(out, "", " ")
}

// Write serializes the netlist as interchange JSON to w.
func (n *Netlist) Write(w io.Writer) error {
	data, err := n.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ReadRaw parses an interchange-JSON netlist without enforcing structural
// invariants: the result is neither validated nor frozen, and may contain
// multi-driven nets, dangling references, pin-count mismatches or
// duplicate names. It rejects only input that cannot be represented in
// the IR at all (unparseable JSON, unknown gate kinds, invalid ternary
// literals). This is the entry point for the lint pass, which diagnoses
// broken netlists instead of refusing to load them; simulation consumers
// must use Read.
func ReadRaw(r io.Reader) (n *Netlist, err error) {
	defer func() {
		if p := recover(); p != nil {
			n, err = nil, fmt.Errorf("netlist: malformed input: %v", p)
		}
	}()
	var in jsonNetlist
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("netlist: parse: %w", err)
	}
	return fromJSON(&in)
}

// fromJSON builds the in-memory form of a decoded netlist, tolerating
// structural violations. Net.Driver records the first gate driving each
// net; extra drivers are observable through DriverCounts.
func fromJSON(in *jsonNetlist) (*Netlist, error) {
	n := New(in.Name)
	for i, jn := range in.Nets {
		name := jn.Name
		if name == "" {
			name = fmt.Sprintf("n%d", i)
		}
		n.Nets = append(n.Nets, Net{Name: name, Driver: NoGate})
		if _, dup := n.names[name]; !dup {
			n.names[name] = NetID(i)
		}
	}
	n.Inputs = append([]NetID(nil), in.Inputs...)
	for _, id := range n.Inputs {
		if id >= 0 && int(id) < len(n.Nets) {
			n.Nets[id].IsInput = true
		}
	}
	for gi, jg := range in.Gates {
		kind, ok := kindByName[jg.Kind]
		if !ok {
			return nil, fmt.Errorf("netlist: gate %d: unknown kind %q", gi, jg.Kind)
		}
		g := Gate{Kind: kind, In: append([]NetID(nil), jg.In...), Out: jg.Out, Name: jg.Name}
		if kind == KindDFF && jg.Init != "" {
			v, err := logic.ValueOf(rune(jg.Init[0]))
			if err != nil {
				return nil, fmt.Errorf("netlist: gate %d: bad init %q", gi, jg.Init)
			}
			g.Init = v
		}
		n.Gates = append(n.Gates, g)
		if g.Out >= 0 && int(g.Out) < len(n.Nets) && n.Nets[g.Out].Driver == NoGate {
			n.Nets[g.Out].Driver = GateID(gi)
		}
	}
	for mi, jm := range in.Mems {
		m := &Mem{
			Name: jm.Name, AddrBits: jm.AddrBits, DataBits: jm.DataBits,
			Words: jm.Words, RAddr: jm.RAddr, RData: jm.RData,
			Clk: NoNet, WEn: NoNet,
		}
		if jm.WEn != nil {
			if jm.Clk == nil {
				return nil, fmt.Errorf("netlist: mem %d: write port without clock", mi)
			}
			m.Clk, m.WEn = *jm.Clk, *jm.WEn
			m.WAddr, m.WData = jm.WAddr, jm.WData
		}
		for _, s := range jm.Init {
			v, err := logic.VecFromString(s)
			if err != nil {
				return nil, fmt.Errorf("netlist: mem %d: %w", mi, err)
			}
			m.Init = append(m.Init, v)
		}
		n.Mems = append(n.Mems, m)
	}
	n.Outputs = append([]NetID(nil), in.Outputs...)
	return n, nil
}

// Read parses an interchange-JSON netlist. The result is validated and
// frozen. Construction-level violations in the file — duplicate names,
// pin mismatches, multi-driven nets, dangling references — surface as
// errors rather than panics.
func Read(r io.Reader) (n *Netlist, err error) {
	defer func() {
		if p := recover(); p != nil {
			n, err = nil, fmt.Errorf("netlist: malformed input: %v", p)
		}
	}()
	n, err = ReadRaw(r)
	if err != nil {
		return nil, err
	}
	if err := validate(n); err != nil {
		return nil, err
	}
	if err := n.Freeze(); err != nil {
		return nil, err
	}
	return n, nil
}

// validate enforces on a raw netlist the structural invariants the
// construction API (AddNet/AddGate/AddMem) guarantees by panicking, so
// Read can surface them as errors before Freeze.
func validate(n *Netlist) error {
	seen := make(map[string]NetID, len(n.Nets))
	for i, nt := range n.Nets {
		if prev, dup := seen[nt.Name]; dup {
			return fmt.Errorf("netlist: duplicate net name %q (nets %d and %d)", nt.Name, prev, i)
		}
		seen[nt.Name] = NetID(i)
	}
	inputSeen := make(map[NetID]bool, len(n.Inputs))
	for _, id := range n.Inputs {
		if err := checkNetRange(id, len(n.Nets)); err != nil {
			return fmt.Errorf("netlist: input: %w", err)
		}
		if inputSeen[id] {
			return fmt.Errorf("netlist: net %q listed as input twice", n.Nets[id].Name)
		}
		inputSeen[id] = true
	}
	for gi := range n.Gates {
		g := &n.Gates[gi]
		if len(g.In) != g.Kind.NumInputs() {
			return fmt.Errorf("netlist: gate %d: %s expects %d inputs, got %d", gi, g.Kind, g.Kind.NumInputs(), len(g.In))
		}
		if err := checkNetRange(g.Out, len(n.Nets)); err != nil {
			return fmt.Errorf("netlist: gate %d: %w", gi, err)
		}
		for _, id := range g.In {
			if err := checkNetRange(id, len(n.Nets)); err != nil {
				return fmt.Errorf("netlist: gate %d: %w", gi, err)
			}
		}
	}
	for mi, m := range n.Mems {
		if len(m.RAddr) != m.AddrBits || len(m.RData) != m.DataBits {
			return fmt.Errorf("netlist: mem %d: read port width mismatch", mi)
		}
		if !m.IsROM() && (len(m.WAddr) != m.AddrBits || len(m.WData) != m.DataBits) {
			return fmt.Errorf("netlist: mem %d: write port width mismatch", mi)
		}
		if m.AddrBits <= 0 || m.AddrBits > 30 || m.Words <= 0 || m.Words > 1<<m.AddrBits {
			return fmt.Errorf("netlist: mem %d: %d words out of range for %d address bits", mi, m.Words, m.AddrBits)
		}
		for _, p := range m.RAddr {
			if err := checkNetRange(p, len(n.Nets)); err != nil {
				return fmt.Errorf("netlist: mem %d: %w", mi, err)
			}
		}
		for _, p := range m.RData {
			if err := checkNetRange(p, len(n.Nets)); err != nil {
				return fmt.Errorf("netlist: mem %d: %w", mi, err)
			}
		}
		if !m.IsROM() {
			pins := append([]NetID{m.Clk, m.WEn}, m.WAddr...)
			pins = append(pins, m.WData...)
			for _, p := range pins {
				if err := checkNetRange(p, len(n.Nets)); err != nil {
					return fmt.Errorf("netlist: mem %d: %w", mi, err)
				}
			}
		}
	}
	for _, o := range n.Outputs {
		if err := checkNetRange(o, len(n.Nets)); err != nil {
			return fmt.Errorf("netlist: output: %w", err)
		}
	}
	// Multi-driven nets misbehave under simulation (the last writer wins
	// nondeterministically); reject them at read time with the same
	// source accounting the lint pass uses.
	for id, c := range n.DriverCounts() {
		if c > 1 {
			return fmt.Errorf("netlist: net %q has %d drivers; multi-driven nets are not allowed", n.Nets[id].Name, c)
		}
	}
	return nil
}

func checkNetRange(id NetID, nets int) error {
	if id < 0 || int(id) >= nets {
		return fmt.Errorf("net id %d out of range", id)
	}
	return nil
}

// WriteVerilog emits a structural-Verilog view of the netlist: one
// primitive per gate, behavioural always-blocks for flip-flops, and reg
// arrays with initial blocks for memories. The output is for human
// inspection and for feeding the bespoke netlist to external Verilog
// tools; it is not read back by this package (Read consumes the JSON
// interchange).
func (n *Netlist) WriteVerilog(w io.Writer) error {
	var sb strings.Builder
	id := func(net NetID) string { return sanitize(n.Nets[net].Name) }

	sb.WriteString("// Generated by symsim; structural view of " + n.Name + "\n")
	sb.WriteString("module " + sanitize(n.Name) + " (")
	var ports []string
	for _, in := range n.Inputs {
		ports = append(ports, id(in))
	}
	seen := map[string]bool{}
	for _, o := range n.Outputs {
		if !seen[id(o)] {
			seen[id(o)] = true
			ports = append(ports, id(o))
		}
	}
	sb.WriteString(strings.Join(ports, ", "))
	sb.WriteString(");\n")
	for _, in := range n.Inputs {
		sb.WriteString("  input " + id(in) + ";\n")
	}
	emitted := map[string]bool{}
	for _, o := range n.Outputs {
		if !emitted[id(o)] {
			emitted[id(o)] = true
			sb.WriteString("  output " + id(o) + ";\n")
		}
	}
	declared := map[NetID]bool{}
	for _, in := range n.Inputs {
		declared[in] = true
	}
	for ni := range n.Nets {
		if !declared[NetID(ni)] {
			sb.WriteString("  wire " + id(NetID(ni)) + ";\n")
		}
	}

	for gi, g := range n.Gates {
		switch g.Kind {
		case KindConst0:
			fmt.Fprintf(&sb, "  assign %s = 1'b0;\n", id(g.Out))
		case KindConst1:
			fmt.Fprintf(&sb, "  assign %s = 1'b1;\n", id(g.Out))
		case KindBuf:
			fmt.Fprintf(&sb, "  buf g%d (%s, %s);\n", gi, id(g.Out), id(g.In[0]))
		case KindNot:
			fmt.Fprintf(&sb, "  not g%d (%s, %s);\n", gi, id(g.Out), id(g.In[0]))
		case KindAnd, KindOr, KindNand, KindNor, KindXor, KindXnor:
			fmt.Fprintf(&sb, "  %s g%d (%s, %s, %s);\n",
				strings.ToLower(g.Kind.String()), gi, id(g.Out), id(g.In[0]), id(g.In[1]))
		case KindMux2:
			fmt.Fprintf(&sb, "  assign %s = %s ? %s : %s;\n",
				id(g.Out), id(g.In[MuxPinSel]), id(g.In[MuxPinB]), id(g.In[MuxPinA]))
		case KindDFF:
			q, d := id(g.Out), id(g.In[DFFPinD])
			clk, en, rstn := id(g.In[DFFPinClk]), id(g.In[DFFPinEn]), id(g.In[DFFPinRstn])
			fmt.Fprintf(&sb, "  reg %s_q; assign %s = %s_q;\n", q, q, q)
			fmt.Fprintf(&sb, "  always @(posedge %s or negedge %s)"+
				" if (!%s) %s_q <= 1'b%s; else if (%s) %s_q <= %s;\n",
				clk, rstn, rstn, q, g.Init, en, q, d)
		}
	}

	for mi, m := range n.Mems {
		name := fmt.Sprintf("mem%d_%s", mi, sanitize(m.Name))
		fmt.Fprintf(&sb, "  reg [%d:0] %s [0:%d];\n", m.DataBits-1, name, m.Words-1)
		// Asynchronous read port.
		ra := busExpr(n, m.RAddr)
		for b, rd := range m.RData {
			fmt.Fprintf(&sb, "  assign %s = %s[%s][%d];\n", id(rd), name, ra, b)
		}
		if !m.IsROM() {
			wa := busExpr(n, m.WAddr)
			fmt.Fprintf(&sb, "  always @(posedge %s) if (%s) %s[%s] <= %s;\n",
				id(m.Clk), id(m.WEn), name, wa, busExpr(n, m.WData))
		}
		if len(m.Init) > 0 {
			sb.WriteString("  initial begin\n")
			for wi, v := range m.Init {
				fmt.Fprintf(&sb, "    %s[%d] = %d'b%s;\n", name, wi, m.DataBits, v.String())
			}
			sb.WriteString("  end\n")
		}
	}
	sb.WriteString("endmodule\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// busExpr renders a concatenation expression for a bus (bit 0 first in our
// representation, MSB first in Verilog).
func busExpr(n *Netlist, bus []NetID) string {
	parts := make([]string, len(bus))
	for i, id := range bus {
		parts[len(bus)-1-i] = sanitize(n.Nets[id].Name)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// sanitize maps net names to Verilog identifiers.
func sanitize(name string) string {
	var sb strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteRune('_')
		}
	}
	s := sb.String()
	if s == "" || s[0] >= '0' && s[0] <= '9' {
		s = "n" + s
	}
	return s
}
