package csm

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"symsim/internal/logic"
	"symsim/internal/vvp"
)

// FactKind discriminates the constraint fact language. The zero value is
// FactPin, so the original single-bit composite literals of paper §3.3
// ({PC: p, Bit: b, Val: v}) keep their meaning unchanged.
type FactKind uint8

const (
	// FactPin pins one state bit to a known value (the original §3.3
	// constraint form).
	FactPin FactKind = iota
	// FactRange bounds the unsigned value of a register's bit group:
	// Min <= value(Bits) <= Max, Bits listed LSB-first.
	FactRange
	// FactRel relates two state bits: always equal (Eq) or always
	// complementary.
	FactRel
)

// String names the fact kind for error messages.
func (k FactKind) String() string {
	switch k {
	case FactPin:
		return "pin"
	case FactRange:
		return "range"
	case FactRel:
		return "rel"
	}
	return fmt.Sprintf("FactKind(%d)", uint8(k))
}

// Constraint is one designer fact about the application's machine state,
// scoped to the states saved at one PC (or, with AnyPC, at every PC).
// The CSM uses facts two ways: to trim over-approximation out of
// conservative states (paper §3.3, "reduce over-approximation of
// conservative states") and to prove forked child states infeasible
// before they are ever scheduled (see Pruner).
type Constraint struct {
	// Kind selects which fact fields are meaningful; the zero value is
	// FactPin.
	Kind FactKind
	// PC restricts the constraint to states saved at this PC; AnyPC
	// applies it everywhere.
	PC uint64
	// AnyPC makes the constraint PC-independent.
	AnyPC bool

	// Bit is the pinned state-bit index (FactPin; see
	// vvp.StateSpec.BitLabel).
	Bit int
	// Val is the pinned value (FactPin; must be a known level).
	Val logic.Value

	// Bits lists a register's state-bit indices LSB-first (FactRange).
	Bits []int
	// Min and Max bound the unsigned value of Bits, inclusive (FactRange).
	Min, Max uint64

	// A and B are the related state bits (FactRel); Eq selects A == B,
	// otherwise A != B.
	A, B int
	Eq   bool
}

// ConstraintError reports an invalid constraint rejected at construction
// (NewConstrained / NewFacts). It is typed so callers — cliflags
// surfaces it through ManagerFor — can distinguish a bad constraint from
// an I/O or parse failure with errors.As.
type ConstraintError struct {
	// Index is the constraint's position in the rejected list.
	Index int
	// Kind is the fact kind that failed validation.
	Kind FactKind
	// Reason says what is wrong.
	Reason string
}

func (e *ConstraintError) Error() string {
	return fmt.Sprintf("csm: constraint %d (%s): %s", e.Index, e.Kind, e.Reason)
}

// Facts is a validated, immutable set of designer constraints indexed for
// per-PC lookup: the path-condition engine behind the constrained policy.
// The accumulated path condition itself lives in the state vectors — every
// known bit of a halt state is a fact the path's history established
// (observe trims, Specialize pins) — and Facts supplies the designer
// axioms those vectors are checked against and refined with.
type Facts struct {
	bits int
	any  []Constraint
	byPC map[uint64][]Constraint
}

// NewFacts validates cons against a bits-wide state and indexes them for
// per-PC lookup. Invalid constraints are rejected with a *ConstraintError
// naming the offender — a typo'd fact must fail loudly at construction,
// never be skipped silently at observe time.
func NewFacts(bits int, cons []Constraint) (*Facts, error) {
	f := &Facts{bits: bits, byPC: make(map[uint64][]Constraint)}
	for i, con := range cons {
		if err := validateConstraint(i, bits, con); err != nil {
			return nil, err
		}
		if con.AnyPC {
			f.any = append(f.any, con)
		} else {
			f.byPC[con.PC] = append(f.byPC[con.PC], con)
		}
	}
	return f, nil
}

func validateConstraint(i, bits int, con Constraint) error {
	bad := func(format string, args ...any) error {
		return &ConstraintError{Index: i, Kind: con.Kind, Reason: fmt.Sprintf(format, args...)}
	}
	switch con.Kind {
	case FactPin:
		if con.Bit < 0 || con.Bit >= bits {
			return bad("bit %d out of range [0,%d)", con.Bit, bits)
		}
		if con.Val != logic.Lo && con.Val != logic.Hi {
			return bad("pin value %v is not a known level", con.Val)
		}
	case FactRange:
		if len(con.Bits) == 0 {
			return bad("empty bit group")
		}
		if len(con.Bits) > 64 {
			return bad("bit group wider than 64 bits (%d)", len(con.Bits))
		}
		seen := make(map[int]bool, len(con.Bits))
		for _, b := range con.Bits {
			if b < 0 || b >= bits {
				return bad("bit %d out of range [0,%d)", b, bits)
			}
			if seen[b] {
				return bad("bit %d repeated in group", b)
			}
			seen[b] = true
		}
		if con.Min > con.Max {
			return bad("min 0x%x > max 0x%x", con.Min, con.Max)
		}
		if w := len(con.Bits); w < 64 && con.Max >= 1<<uint(w) {
			return bad("max 0x%x does not fit in %d bits", con.Max, w)
		}
	case FactRel:
		if con.A < 0 || con.A >= bits {
			return bad("bit %d out of range [0,%d)", con.A, bits)
		}
		if con.B < 0 || con.B >= bits {
			return bad("bit %d out of range [0,%d)", con.B, bits)
		}
		if con.A == con.B {
			return bad("relation between bit %d and itself", con.A)
		}
	default:
		return bad("unknown fact kind")
	}
	return nil
}

// forEach calls fn for every fact scoped to pc (PC-specific plus AnyPC)
// until fn returns false.
func (f *Facts) forEach(pc uint64, fn func(Constraint) bool) {
	for _, con := range f.any {
		if !fn(con) {
			return
		}
	}
	for _, con := range f.byPC[pc] {
		if !fn(con) {
			return
		}
	}
}

// Feasible reports whether st is consistent with every fact scoped to its
// PC. A state is infeasible only when a fact is provably violated by
// *known* bits — X bits can always still take the asserted values, so
// they never disprove anything. This is the pre-fork prune test: an
// infeasible child state describes behaviours the designer asserts the
// application can never reach, so scheduling it would only simulate
// impossible paths.
func (f *Facts) Feasible(st vvp.State) bool {
	ok := true
	f.forEach(st.PC, func(con Constraint) bool {
		switch con.Kind {
		case FactPin:
			if v := st.Bits.Get(con.Bit); v.IsKnown() && v != con.Val {
				ok = false
			}
		case FactRange:
			lo, hi := rangeBounds(st.Bits, con.Bits)
			if hi < con.Min || lo > con.Max {
				ok = false
			}
		case FactRel:
			a, b := st.Bits.Get(con.A), st.Bits.Get(con.B)
			if a.IsKnown() && b.IsKnown() && (a == b) != con.Eq {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// rangeBounds returns the smallest and largest unsigned values the bit
// group can take: X bits range over both levels, known bits are fixed.
func rangeBounds(v logic.Vec, group []int) (lo, hi uint64) {
	for i, b := range group {
		switch v.Get(b) {
		case logic.Hi:
			lo |= 1 << uint(i)
			hi |= 1 << uint(i)
		case logic.Lo:
		default: // X
			hi |= 1 << uint(i)
		}
	}
	return lo, hi
}

// Apply refines v in place with every fact scoped to pc, trimming
// over-approximation the designer knows to be impossible:
//
//   - pin facts overwrite their bit with the pinned level (the original
//     §3.3 trim semantics);
//   - range facts pin the high-order bits on which Min and Max agree —
//     any value in [Min,Max] shares that prefix — touching only X bits;
//   - relation facts propagate a known bit to an X partner.
//
// Apply only ever turns Xs into the values the facts force (plus the
// historical pin overwrite), so the refined state covers exactly the
// behaviours the designer's axioms leave possible.
func (f *Facts) Apply(pc uint64, v logic.Vec) {
	f.forEach(pc, func(con Constraint) bool {
		switch con.Kind {
		case FactPin:
			v.Set(con.Bit, con.Val)
		case FactRange:
			for i := len(con.Bits) - 1; i >= 0; i-- {
				mn := (con.Min >> uint(i)) & 1
				mx := (con.Max >> uint(i)) & 1
				if mn != mx {
					break
				}
				if v.Get(con.Bits[i]) == logic.X {
					if mn == 1 {
						v.Set(con.Bits[i], logic.Hi)
					} else {
						v.Set(con.Bits[i], logic.Lo)
					}
				}
			}
		case FactRel:
			a, b := v.Get(con.A), v.Get(con.B)
			switch {
			case a.IsKnown() && b == logic.X:
				v.Set(con.B, relPartner(a, con.Eq))
			case b.IsKnown() && a == logic.X:
				v.Set(con.A, relPartner(b, con.Eq))
			}
		}
		return true
	})
}

// relPartner returns the value a relation forces on the partner of a
// known bit.
func relPartner(v logic.Value, eq bool) logic.Value {
	if eq {
		return v
	}
	if v == logic.Hi {
		return logic.Lo
	}
	return logic.Hi
}

// maxConstraintLine bounds one constraint-file line. The default
// bufio.Scanner buffer (64 KiB) rejected long-but-legal lines — a wide
// generated fact or a long comment — with an opaque "token too long".
const maxConstraintLine = 1 << 20

// ParseConstraints reads the CSM constraint text format of paper §3.3,
// extended with range and relation facts. Each non-comment line has one
// of the forms
//
//	pc=<hex|*> bit=<state-bit-label> val=<0|1>
//	pc=<hex|*> reg=<dff-name> min=<hex> max=<hex>
//	pc=<hex|*> rel=<label>==<label>   (or <label>!=<label>)
//
// where a bit label is the one reported by vvp.StateSpec.BitLabel, e.g.
// "dff:regfile_r3[7]" or "mem:dmem[12].4", and reg= names a flip-flop
// register whose bits are labelled "dff:<name>[i]". Hex values accept an
// optional 0x/0X prefix. Lines starting with '#' and blank lines are
// ignored.
//
// The parser resolves labels and field shapes; value-level validation
// (range emptiness, bit-width fit) is NewFacts's job, so a file that
// parses can still be rejected by NewConstrained with a *ConstraintError.
func ParseConstraints(r io.Reader, sp *vvp.StateSpec) ([]Constraint, error) {
	var out []Constraint
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxConstraintLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		c, err := parseConstraintLine(line, sp)
		if err != nil {
			return nil, fmt.Errorf("csm: constraint line %d: %v", lineNo, err)
		}
		out = append(out, c)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("csm: constraint line %d: longer than %d bytes", lineNo+1, maxConstraintLine)
		}
		return nil, fmt.Errorf("csm: reading constraints after line %d: %w", lineNo, err)
	}
	return out, nil
}

// parseHex parses a hex value with an optional, case-insensitive 0x
// prefix (bare digit strings stay accepted — the original convention).
func parseHex(s string) (uint64, error) {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	return strconv.ParseUint(s, 16, 64)
}

func parseConstraintLine(line string, sp *vvp.StateSpec) (Constraint, error) {
	var c Constraint
	fields := strings.Fields(line)
	seen := map[string]bool{}
	for _, f := range fields {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return c, fmt.Errorf("malformed field %q", f)
		}
		if seen[key] {
			return c, fmt.Errorf("duplicate field %q", key)
		}
		seen[key] = true
		switch key {
		case "pc":
			if val == "*" {
				c.AnyPC = true
				break
			}
			pc, err := parseHex(val)
			if err != nil {
				return c, fmt.Errorf("bad pc %q: %v", val, err)
			}
			c.PC = pc
		case "bit":
			bit := sp.BitByLabel(val)
			if bit < 0 {
				return c, fmt.Errorf("unknown state bit %q", val)
			}
			c.Bit = bit
		case "val":
			switch val {
			case "0":
				c.Val = logic.Lo
			case "1":
				c.Val = logic.Hi
			default:
				return c, fmt.Errorf("bad val %q (want 0 or 1)", val)
			}
		case "reg":
			bits, err := regBits(val, sp)
			if err != nil {
				return c, err
			}
			c.Bits = bits
		case "min":
			mn, err := parseHex(val)
			if err != nil {
				return c, fmt.Errorf("bad min %q: %v", val, err)
			}
			c.Min = mn
		case "max":
			mx, err := parseHex(val)
			if err != nil {
				return c, fmt.Errorf("bad max %q: %v", val, err)
			}
			c.Max = mx
		case "rel":
			a, b, eq, err := parseRel(val, sp)
			if err != nil {
				return c, err
			}
			c.A, c.B, c.Eq = a, b, eq
		default:
			return c, fmt.Errorf("unknown field %q", key)
		}
	}
	if !seen["pc"] {
		return c, fmt.Errorf("missing field pc=")
	}
	pin := seen["bit"] || seen["val"]
	rng := seen["reg"] || seen["min"] || seen["max"]
	rel := seen["rel"]
	switch {
	case pin && !rng && !rel:
		if !seen["bit"] || !seen["val"] {
			return c, fmt.Errorf("pin fact needs bit= and val=")
		}
		c.Kind = FactPin
	case rng && !pin && !rel:
		if !seen["reg"] || !seen["min"] || !seen["max"] {
			return c, fmt.Errorf("range fact needs reg=, min= and max=")
		}
		c.Kind = FactRange
	case rel && !pin && !rng:
		c.Kind = FactRel
	default:
		return c, fmt.Errorf("need exactly one fact form: bit=/val=, reg=/min=/max=, or rel=")
	}
	return c, nil
}

// regBits resolves a register name to its state bits, LSB-first, via the
// "dff:<name>[i]" labels (falling back to "dff:<name>" for a 1-bit
// register).
func regBits(name string, sp *vvp.StateSpec) ([]int, error) {
	var bits []int
	for i := 0; i <= 64; i++ {
		b := sp.BitByLabel(fmt.Sprintf("dff:%s[%d]", name, i))
		if b < 0 {
			break
		}
		if i == 64 {
			return nil, fmt.Errorf("register %q wider than 64 bits", name)
		}
		bits = append(bits, b)
	}
	if len(bits) == 0 {
		if b := sp.BitByLabel("dff:" + name); b >= 0 {
			bits = append(bits, b)
		}
	}
	if len(bits) == 0 {
		return nil, fmt.Errorf("unknown register %q", name)
	}
	return bits, nil
}

// parseRel parses "<label>==<label>" or "<label>!=<label>".
func parseRel(val string, sp *vvp.StateSpec) (a, b int, eq bool, err error) {
	la, lb, ok := strings.Cut(val, "==")
	eq = true
	if !ok {
		la, lb, ok = strings.Cut(val, "!=")
		eq = false
	}
	if !ok {
		return 0, 0, false, fmt.Errorf("bad rel %q (want <label>==<label> or <label>!=<label>)", val)
	}
	if a = sp.BitByLabel(la); a < 0 {
		return 0, 0, false, fmt.Errorf("unknown state bit %q", la)
	}
	if b = sp.BitByLabel(lb); b < 0 {
		return 0, 0, false, fmt.Errorf("unknown state bit %q", lb)
	}
	if a == b {
		return 0, 0, false, fmt.Errorf("rel %q relates a bit to itself", val)
	}
	return a, b, eq, nil
}
