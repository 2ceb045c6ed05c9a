// Package analysis is symsimvet: a static-analysis suite over the symsim
// source tree itself, enforcing the invariants of this repository that
// no stock tool checks — the kernel's zero-allocation steady state
// (SA001), the single registry of SYMSIM wire-format magics and their
// fuzz targets (SA004), the diagnostic-code registries (SA005) and the
// no-dropped-errors policy (SA006), plus SA000 for the annotation
// grammar itself. The codes mirror the NL0xx structural netlist codes in
// internal/lint; both report through internal/diag so output formats and
// -fail-on semantics are shared with `symsim lint`. SA002 and SA003 are
// retired: what they checked is `go vet`'s copylocks, the compiler
// (typed atomics have no plain access) and two -race tests
// (DESIGN.md §11).
//
// The suite is deliberately stdlib-only (go/ast + go/parser + go/types;
// no golang.org/x/tools): symsim vets itself with the toolchain it ships
// with, the same way `symsim lint` vets netlists with no external EDA
// dependency.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"symsim/internal/diag"
)

// The SA diagnostic codes. Stable: codes never change meaning; new
// checks get new codes. The registry must stay duplicate-free and
// gap-free and every code documented in DESIGN.md — SA005 checks the
// checker.
const (
	// CodeDirective (error): a malformed or misplaced //symsim:
	// annotation — a typo here could silently disable a gate, so the
	// grammar is itself checked.
	CodeDirective diag.Code = "SA000"
	// CodeHotpath (error): an allocation or allocation risk in a
	// function reachable from a //symsim:hotpath root. Turns the
	// 0 allocs/op benchmark guarantee into a compile-time gate.
	CodeHotpath diag.Code = "SA001"
	// CodeAtomics is retired (it has no analyzer): mixed atomic/plain
	// access cannot be written against typed atomics, and a by-value
	// copy of a lock or atomic is go vet's copylocks. The constant stays
	// so the registry has no gap and the code is never reused.
	CodeAtomics diag.Code = "SA002"
	// CodeLocks is retired (it has no analyzer): internal/obs counters
	// are bare atomics and the registry calls a GaugeFunc outside its
	// own lock, so publishing under a mutex cannot deadlock; the
	// TestScrapeWhileMutating tests hold that under -race.
	CodeLocks diag.Code = "SA003"
	// CodeWireFormat (error): a SYMSIM?? magic literal minted outside
	// the internal/wire registry, or a registered decodable format
	// without its fuzz target.
	CodeWireFormat diag.Code = "SA004"
	// CodeDiagCodes (error): the NL/SA code registries have a
	// duplicate, a gap, or a code missing from DESIGN.md.
	CodeDiagCodes diag.Code = "SA005"
	// CodeErrDrop (error): a discarded error result from a
	// Write/Close/Encode/Flush/Sync call in non-test code.
	CodeErrDrop diag.Code = "SA006"
)

// Analyzer is one named check of the suite.
type Analyzer struct {
	Code diag.Code
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers is the suite, in code order.
var Analyzers = []*Analyzer{
	{Code: CodeDirective, Name: "directives", Doc: "//symsim: annotation grammar", Run: runDirectives},
	{Code: CodeHotpath, Name: "hotpath", Doc: "allocation-free //symsim:hotpath call trees", Run: runHotpath},
	{Code: CodeWireFormat, Name: "wireformat", Doc: "single SYMSIM magic registry; a fuzz target per decodable format", Run: runWireFormat},
	{Code: CodeDiagCodes, Name: "diagcodes", Doc: "duplicate-free, gap-free, documented NL/SA registries", Run: runDiagCodes},
	{Code: CodeErrDrop, Name: "errdrop", Doc: "no dropped errors on Write/Close/Encode", Run: runErrDrop},
}

// AnalyzerFor returns the analyzer owning code, or nil.
func AnalyzerFor(code diag.Code) *Analyzer {
	for _, a := range Analyzers {
		if a.Code == code {
			return a
		}
	}
	return nil
}

// Pass is one analyzer's view of the program plus its reporting sink.
type Pass struct {
	Prog *Program
	a    *Analyzer
	rep  *diag.Report
}

// Reportf records a finding at pos unless a //symsim:allow suppresses
// it there.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Prog.dirs.allowedAt(p.Prog.Fset, pos, p.a.Code) {
		return
	}
	p.rep.Add(diag.Diag{
		Code: p.a.Code,
		Sev:  diag.SevError,
		Pos:  p.Prog.Position(pos),
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Vet runs the full suite over the program and returns the combined
// report, sorted into the deterministic code/position order.
func Vet(prog *Program) *diag.Report {
	name := prog.ModPath
	if prog.RepoRoot != "" {
		name = prog.RepoRoot
	}
	rep := diag.NewReport(name)
	for _, a := range Analyzers {
		pass := &Pass{Prog: prog, a: a, rep: rep}
		a.Run(pass)
	}
	rep.Sort()
	return rep
}

// runDirectives reports the malformed //symsim: annotations collected
// during load (SA000 findings are never suppressible — an allow for a
// broken allow would be circular).
func runDirectives(p *Pass) {
	for _, d := range p.Prog.dirs.bad {
		p.rep.Add(d)
	}
}

// ---- shared function/call-graph machinery ----

// funcInfo is one declared function or method with a body.
type funcInfo struct {
	pkg   *Package
	decl  *ast.FuncDecl
	obj   *types.Func
	marks funcMarks
}

// funcIndex maps every declared function object to its info.
type funcIndex map[*types.Func]*funcInfo

// buildFuncIndex walks every package once.
func buildFuncIndex(prog *Program) funcIndex {
	idx := funcIndex{}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				idx[obj] = &funcInfo{
					pkg: pkg, decl: fd, obj: obj,
					marks: prog.dirs.marksOf(fd),
				}
			}
		}
	}
	return idx
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// callee classifies a call expression's target.
type callee struct {
	// fn is the static target, nil for dynamic calls, builtins and
	// conversions.
	fn *types.Func
	// builtin is the builtin's name ("make", "append", …) when the call
	// invokes one.
	builtin string
	// dynamic marks calls through function values or interface methods.
	dynamic bool
	// conversion marks type conversions T(x).
	conversion bool
}

// calleeOf resolves who a call expression calls, using the package's
// type information.
func calleeOf(pkg *Package, call *ast.CallExpr) callee {
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return callee{conversion: true}
	}
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fun].(type) {
		case *types.Func:
			return callee{fn: obj}
		case *types.Builtin:
			return callee{builtin: obj.Name()}
		case *types.TypeName:
			return callee{conversion: true}
		default:
			return callee{dynamic: true}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return callee{fn: fn, dynamic: types.IsInterface(sel.Recv())}
			}
			return callee{dynamic: true} // func-typed field
		}
		switch obj := pkg.Info.Uses[fun.Sel].(type) {
		case *types.Func:
			return callee{fn: obj}
		case *types.TypeName:
			return callee{conversion: true}
		case *types.Builtin:
			return callee{builtin: obj.Name()}
		default:
			return callee{dynamic: true}
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: the literal body is walked by the
		// enclosing function's visitor; the call itself is static.
		return callee{}
	}
	return callee{dynamic: true}
}

// qualifiedName renders a function as "pkg.Func" or "pkg.(T).Method".
func qualifiedName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			pkg := ""
			if fn.Pkg() != nil {
				pkg = fn.Pkg().Path() + "."
			}
			return pkg + "(" + named.Obj().Name() + ")." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}
