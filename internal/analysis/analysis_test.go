package analysis_test

import (
	"strings"
	"testing"

	"symsim/internal/analysis"
	"symsim/internal/diag"
)

// vetFiles loads an in-memory fixture program and runs the full suite.
func vetFiles(t *testing.T, files map[string]string) *diag.Report {
	t.Helper()
	prog, err := analysis.LoadFiles(files)
	if err != nil {
		t.Fatalf("LoadFiles: %v", err)
	}
	return analysis.Vet(prog)
}

// wantFinding asserts the report holds a diag with the given code whose
// message contains substr.
func wantFinding(t *testing.T, rep *diag.Report, code diag.Code, substr string) {
	t.Helper()
	for _, d := range rep.Diags {
		if d.Code == code && strings.Contains(d.Msg, substr) {
			return
		}
	}
	t.Errorf("no %s finding containing %q; got:\n%s", code, substr, renderAll(rep))
}

// wantNoFinding asserts no diag with the given code mentions substr.
func wantNoFinding(t *testing.T, rep *diag.Report, code diag.Code, substr string) {
	t.Helper()
	for _, d := range rep.Diags {
		if d.Code == code && strings.Contains(d.Msg, substr) {
			t.Errorf("unexpected %s finding %q", code, d.Msg)
		}
	}
}

func renderAll(rep *diag.Report) string {
	var b strings.Builder
	for _, d := range rep.Diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

func TestSA000DirectiveGrammar(t *testing.T) {
	rep := vetFiles(t, map[string]string{
		"bad/bad.go": `package bad

//symsim:frobnicate
func F() {}

//symsim:allow SA001
func G() {}

func H() {
	//symsim:hotpath
	_ = 1
}

func I() {
	//symsim:allow SA003 a retired code has nothing to suppress
	_ = 1
}
`,
	})
	wantFinding(t, rep, analysis.CodeDirective, "unknown directive //symsim:frobnicate")
	wantFinding(t, rep, analysis.CodeDirective, "want //symsim:allow SA00x reason")
	wantFinding(t, rep, analysis.CodeDirective, "must sit on a function's doc comment")
	if n := countCode(rep, analysis.CodeDirective); n != 4 {
		t.Errorf("want 4 SA000 findings (F, G, H, and I's allow of a retired code), got %d:\n%s", n, renderAll(rep))
	}
}

func TestSA001HotpathAllocations(t *testing.T) {
	rep := vetFiles(t, map[string]string{
		"hot/hot.go": `package hot

// kernelLevel stands in for the kernel sweep: a deliberate allocation
// here must be caught.
//
//symsim:hotpath
func kernelLevel(xs []int) []int {
	ys := make([]int, len(xs))
	helper(ys)
	return ys
}

func helper(ys []int) {
	grow(ys)
}

func grow(ys []int) {
	_ = append(ys, 1)
}

//symsim:coldpath
func slowpath() []int {
	return make([]int, 8)
}

//symsim:hotpath
func callsCold() {
	_ = slowpath()
}

//symsim:hotpath
func allowed(ys []int) {
	//symsim:allow SA001 capacity is pre-sized by the caller
	_ = append(ys, 1)
}

//symsim:hotpath
func boxes(v int) any {
	f := func() {}
	f()
	return v
}

func unreached() []int {
	return make([]int, 4)
}
`,
	})
	// Direct allocation in a root.
	wantFinding(t, rep, analysis.CodeHotpath, "make allocates in hot function test/hot.kernelLevel")
	// Transitively reachable allocation, two hops away.
	wantFinding(t, rep, analysis.CodeHotpath, "append may grow the backing array in hot function test/hot.grow")
	// Closures and interface boxing.
	wantFinding(t, rep, analysis.CodeHotpath, "closure allocates in hot function test/hot.boxes")
	wantFinding(t, rep, analysis.CodeHotpath, "interface boxing in return")
	// Coldpath stops the traversal; allows suppress; unreachable code is
	// not hot.
	wantNoFinding(t, rep, analysis.CodeHotpath, "slowpath")
	wantNoFinding(t, rep, analysis.CodeHotpath, "test/hot.allowed")
	wantNoFinding(t, rep, analysis.CodeHotpath, "unreached")
}

func countCode(rep *diag.Report, code diag.Code) int {
	n := 0
	for _, d := range rep.Diags {
		if d.Code == code {
			n++
		}
	}
	return n
}

func TestSA004WireFormat(t *testing.T) {
	rep := vetFiles(t, map[string]string{
		"codec/codec.go": `package codec

const rogueMagic = "SYMSIMZ9"
`,
		"internal/wire/wire.go": `package wire

type Format struct {
	Magic, Name, Package, Fuzz string
	DigestOnly                 bool
}

var Formats = []Format{
	{Magic: "SYMSIMA1", Name: "a", Fuzz: "FuzzMissing"},
	{Magic: "SYMSIMA1", Name: "dup", DigestOnly: true},
	{Magic: "SYMSIMB1", Name: "b", Fuzz: "FuzzB"},
	{Magic: "SYMSIMC1", Name: "c"},
}
`,
		"internal/wire/wire_test.go": `package wire

import "testing"

func FuzzB(f *testing.F) { f.Skip() }
`,
	})
	wantFinding(t, rep, analysis.CodeWireFormat, "magic SYMSIMZ9 minted outside the internal/wire registry")
	wantFinding(t, rep, analysis.CodeWireFormat, "duplicate registry row for magic SYMSIMA1")
	wantFinding(t, rep, analysis.CodeWireFormat, "names fuzz target FuzzMissing, which does not exist")
	wantFinding(t, rep, analysis.CodeWireFormat, "decodable format SYMSIMC1 has no fuzz target")
	wantNoFinding(t, rep, analysis.CodeWireFormat, "SYMSIMB1")
}

func TestSA005DiagCodes(t *testing.T) {
	prog, err := analysis.LoadFilesDoc(map[string]string{
		"d/d.go": `package d

const (
	CodeA  = "NL000"
	CodeB  = "NL001"
	CodeB2 = "NL001"
	CodeD  = "NL003"
)
`,
	}, "Documented: NL000 and NL001.\n")
	if err != nil {
		t.Fatalf("LoadFilesDoc: %v", err)
	}
	rep := analysis.Vet(prog)
	wantFinding(t, rep, analysis.CodeDiagCodes, "duplicate declaration of code NL001")
	wantFinding(t, rep, analysis.CodeDiagCodes, "registry NL has a gap: NL001 is followed by NL003")
	wantFinding(t, rep, analysis.CodeDiagCodes, "code NL003 is not documented in DESIGN.md")
	wantNoFinding(t, rep, analysis.CodeDiagCodes, "NL000 is not documented")
}

func TestSA006ErrDrop(t *testing.T) {
	rep := vetFiles(t, map[string]string{
		"e/e.go": `package e

import "strings"

type file struct{}

func (file) Close() error { return nil }

func dropped(f file) {
	f.Close()
}

func explicit(f file) {
	_ = f.Close()
}

func builder() string {
	var sb strings.Builder
	sb.WriteString("exempt: documented never to fail")
	return sb.String()
}

func allowed(f file) {
	//symsim:allow SA006 fixture demonstrates the suppression path
	f.Close()
}
`,
		"e/e_test.go": `package e

import "testing"

func TestDropInTest(t *testing.T) {
	var f file
	f.Close()
}
`,
	})
	wantFinding(t, rep, analysis.CodeErrDrop, "Close drops its error result")
	if n := countCode(rep, analysis.CodeErrDrop); n != 1 {
		t.Errorf("want exactly 1 SA006 finding (dropped only), got %d:\n%s", n, renderAll(rep))
	}
}

func TestFuncDocAllowSuppressesWholeFunction(t *testing.T) {
	rep := vetFiles(t, map[string]string{
		"f/f.go": `package f

type file struct{}

func (file) Close() error { return nil }

// drop closes best-effort on both paths.
//
//symsim:allow SA006 teardown helper; the error has no consumer
func drop(a, b file) {
	a.Close()
	b.Close()
}
`,
	})
	if n := countCode(rep, analysis.CodeErrDrop); n != 0 {
		t.Errorf("func-doc allow should cover every line, got %d findings:\n%s", n, renderAll(rep))
	}
}
