package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SA001: functions transitively reachable from a //symsim:hotpath root
// must be allocation-free. The kernel's 0 allocs/op steady state is a
// benchmark-verified property (BenchmarkSettleSteadyState); this analyzer
// makes it a compile-time gate by flagging every construct that allocates
// or that defeats static verification:
//
//   - make / new / append (growth cannot be ruled out statically)
//   - composite literals of slice or map type, and &T{…}
//   - closures (func literals), go, defer
//   - interface boxing: a concrete value converted, assigned, passed or
//     returned as an interface
//   - string concatenation, []byte/string/[]rune conversions
//   - map writes (bucket growth) and map iteration (hidden iterator)
//   - dynamic calls (function values, interface methods) — unverifiable
//   - calls to functions outside the analyzed module, unless the package
//     is on the intrinsic allowlist (math, math/bits, sync/atomic)
//
// The traversal does not descend into //symsim:coldpath functions (the
// acknowledged slow paths: error construction, panics' format helpers),
// and deliberate exceptions carry //symsim:allow SA001 with a reason.

// hotAllowedPkgs are external packages whose functions are known
// allocation-free (compiler intrinsics or pure register math).
var hotAllowedPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// hotAllowedBuiltins never allocate (panic unwinds into the per-path
// quarantine; its argument construction is flagged separately if it
// allocates on the hot line itself).
var hotAllowedBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "delete": true,
	"min": true, "max": true, "real": true, "imag": true,
	"panic": true, "recover": true,
}

// hotState is the SA001 computation: the reachable set plus, for
// diagnostics, the call edge that first reached each function.
type hotState struct {
	idx funcIndex
	hot map[*types.Func]*funcInfo
	via map[*types.Func]string // first caller's qualified name
}

// computeHot builds the hot set from the //symsim:hotpath roots.
func computeHot(prog *Program) *hotState {
	st := &hotState{
		idx: buildFuncIndex(prog),
		hot: map[*types.Func]*funcInfo{},
		via: map[*types.Func]string{},
	}
	var roots []*funcInfo
	for _, fi := range st.idx {
		if fi.marks.hotpath {
			roots = append(roots, fi)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].decl.Pos() < roots[j].decl.Pos() })
	var queue []*funcInfo
	for _, r := range roots {
		st.hot[r.obj] = r
		st.via[r.obj] = "root"
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		caller := qualifiedName(fi.obj)
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			c := calleeOf(fi.pkg, call)
			if c.fn == nil || c.dynamic {
				return true
			}
			target := st.idx[c.fn]
			if target == nil || target.marks.coldpath {
				return true
			}
			if _, seen := st.hot[c.fn]; !seen {
				st.hot[c.fn] = target
				st.via[c.fn] = caller
				queue = append(queue, target)
			}
			return true
		})
	}
	return st
}

// HotFunctions returns the qualified names of every function SA001
// considers hot, sorted. Exposed for tests (the kernel-sweep gate
// asserts kernelLevel is covered) and for `symsimvet -hot` debugging.
func HotFunctions(prog *Program) []string {
	st := computeHot(prog)
	out := make([]string, 0, len(st.hot))
	for fn := range st.hot {
		out = append(out, qualifiedName(fn))
	}
	sort.Strings(out)
	return out
}

func runHotpath(p *Pass) {
	st := computeHot(p.Prog)
	var funcs []*funcInfo
	for _, fi := range st.hot {
		funcs = append(funcs, fi)
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].decl.Pos() < funcs[j].decl.Pos() })
	for _, fi := range funcs {
		checkHotBody(p, st, fi)
	}
}

// checkHotBody flags every allocating construct in one hot function.
func checkHotBody(p *Pass, st *hotState, fi *funcInfo) {
	name := qualifiedName(fi.obj)
	info := fi.pkg.Info
	report := func(pos token.Pos, format string, args ...any) {
		args = append(args, name)
		p.Reportf(pos, format+" in hot function %s", args...)
	}
	typeOf := func(e ast.Expr) types.Type {
		if tv, ok := info.Types[e]; ok {
			return tv.Type
		}
		return nil
	}
	// boxes reports whether assigning src into a dst-typed slot boxes a
	// concrete value into an interface.
	boxes := func(dst types.Type, src ast.Expr) bool {
		if dst == nil || !types.IsInterface(dst) {
			return false
		}
		tv, ok := info.Types[src]
		if !ok || tv.Type == nil || types.IsInterface(tv.Type) {
			return false
		}
		if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			return false
		}
		return true
	}

	var sig *types.Signature
	if s, ok := fi.obj.Type().(*types.Signature); ok {
		sig = s
	}

	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure allocates")
			return false // the literal body is not hot-reachable statically
		case *ast.GoStmt:
			report(n.Pos(), "go statement allocates a goroutine")
		case *ast.DeferStmt:
			report(n.Pos(), "defer allocates a frame")
		case *ast.CompositeLit:
			switch typeOf(n).Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal allocates")
				return false
			case *types.Map:
				report(n.Pos(), "map literal allocates")
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := typeOf(n.X); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(n.Pos(), "string concatenation allocates")
					}
				}
			}
		case *ast.RangeStmt:
			if t := typeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					report(n.Pos(), "map iteration (hidden iterator state)")
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if ix, ok := unparen(n.Lhs[i]).(*ast.IndexExpr); ok {
						if t := typeOf(ix.X); t != nil {
							if _, isMap := t.Underlying().(*types.Map); isMap {
								report(n.Lhs[i].Pos(), "map write may grow buckets")
							}
						}
					}
					if n.Tok == token.ASSIGN && boxes(typeOf(n.Lhs[i]), n.Rhs[i]) {
						report(n.Rhs[i].Pos(), "interface boxing in assignment")
					}
				}
			}
		case *ast.ReturnStmt:
			if sig != nil && sig.Results().Len() == len(n.Results) {
				for i, r := range n.Results {
					if boxes(sig.Results().At(i).Type(), r) {
						report(r.Pos(), "interface boxing in return")
					}
				}
			}
		case *ast.CallExpr:
			checkHotCall(p, st, fi, n, report, typeOf, boxes)
		}
		return true
	})
}

// checkHotCall handles the call-shaped constructs of a hot body:
// builtins, conversions, dynamic calls, external calls and argument
// boxing.
func checkHotCall(p *Pass, st *hotState, fi *funcInfo, call *ast.CallExpr,
	report func(token.Pos, string, ...any),
	typeOf func(ast.Expr) types.Type,
	boxes func(types.Type, ast.Expr) bool,
) {
	c := calleeOf(fi.pkg, call)
	switch {
	case c.builtin != "":
		switch c.builtin {
		case "make":
			report(call.Pos(), "make allocates")
		case "new":
			report(call.Pos(), "new allocates")
		case "append":
			report(call.Pos(), "append may grow the backing array")
		default:
			if !hotAllowedBuiltins[c.builtin] {
				report(call.Pos(), "builtin %s allocates", c.builtin)
			}
		}
		return
	case c.conversion:
		dst := typeOf(call)
		if dst == nil || len(call.Args) != 1 {
			return
		}
		src := typeOf(call.Args[0])
		if types.IsInterface(dst) && src != nil && !types.IsInterface(src) {
			report(call.Pos(), "conversion boxes %s into an interface", src)
			return
		}
		if src != nil && convAllocates(dst, src) {
			report(call.Pos(), "conversion %s -> %s allocates", src, dst)
		}
		return
	case c.dynamic:
		what := "function value"
		if c.fn != nil {
			what = "interface method " + c.fn.Name()
		}
		report(call.Pos(), "dynamic call through %s cannot be proven allocation-free", what)
		return
	case c.fn == nil:
		return // immediately-invoked literal; the literal itself is flagged
	}

	// Static call: argument boxing applies to local and external targets
	// alike.
	if sig, ok := c.fn.Type().(*types.Signature); ok {
		checkArgBoxing(call, sig, report, boxes)
	}
	if target := st.idx[c.fn]; target != nil {
		return // local: hot-walked (or coldpath-exempt) separately
	}
	pkg := c.fn.Pkg()
	if pkg == nil || hotAllowedPkgs[pkg.Path()] {
		return
	}
	report(call.Pos(), "call to %s outside the analyzed module cannot be proven allocation-free", qualifiedName(c.fn))
}

// checkArgBoxing flags concrete arguments passed to interface
// parameters.
func checkArgBoxing(call *ast.CallExpr, sig *types.Signature,
	report func(token.Pos, string, ...any), boxes func(types.Type, ast.Expr) bool,
) {
	if call.Ellipsis.IsValid() {
		return // xs... passes the slice through, no per-element boxing
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if s, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		if boxes(pt, arg) {
			report(arg.Pos(), "interface boxing of argument %d", i+1)
		}
	}
}

// convAllocates reports whether a conversion between these types copies
// to the heap (string/byte-slice/rune-slice family).
func convAllocates(dst, src types.Type) bool {
	isString := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
	}
	if isString(dst) && isByteOrRuneSlice(src) {
		return true
	}
	if isByteOrRuneSlice(dst) && isString(src) {
		return true
	}
	return false
}
