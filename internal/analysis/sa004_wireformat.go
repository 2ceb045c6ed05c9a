package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"regexp"
	"strings"
)

// SA004: the SYMSIM wire-format discipline. Two sub-checks:
//
//  1. Format magics ("SYMSIM??") live in exactly one registry,
//     internal/wire. A magic literal minted anywhere else can collide
//     with a registered format and misparse stale files.
//  2. The registry itself is sound: no duplicate magics, and every
//     decodable format names a fuzz target that actually exists in the
//     tree's test files (the corpus that keeps the decoder honest).

// wirePkgSuffix identifies the registry package in the real tree and in
// fixtures.
const wirePkgSuffix = "internal/wire"

var magicPat = regexp.MustCompile(`SYMSIM[A-Z0-9]{2}`)

func runWireFormat(p *Pass) {
	for _, pkg := range p.Prog.Packages {
		isWirePkg := pkgPathHasSuffix(pkg.Path, wirePkgSuffix)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if n, ok := n.(*ast.BasicLit); ok && !isWirePkg && n.Kind == token.STRING && magicPat.MatchString(n.Value) {
					p.Reportf(n.Pos(), "wire-format magic %s minted outside the internal/wire registry",
						magicPat.FindString(n.Value))
				}
				return true
			})
		}
	}
	checkWireRegistry(p)
}

func pkgPathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// checkWireRegistry statically evaluates the registry's Formats table
// and cross-checks it against the tree.
func checkWireRegistry(p *Pass) {
	var wirePkg *Package
	for _, pkg := range p.Prog.Packages {
		if pkgPathHasSuffix(pkg.Path, wirePkgSuffix) {
			wirePkg = pkg
			break
		}
	}
	if wirePkg == nil {
		return // nothing registered (fixture programs without a registry)
	}

	// Collect every fuzz target declared anywhere in the tree's test
	// files (fuzz targets live in _test.go, which are parsed unchecked).
	fuzzTargets := map[string]bool{}
	for _, pkg := range p.Prog.Packages {
		for _, f := range pkg.TestFiles {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Fuzz") {
					fuzzTargets[fd.Name.Name] = true
				}
			}
		}
	}

	// Find the Formats table and evaluate each row's fields with the
	// type-checker's constant folding.
	for _, f := range wirePkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, name := range vs.Names {
				if name.Name != "Formats" || i >= len(vs.Values) {
					continue
				}
				cl, ok := vs.Values[i].(*ast.CompositeLit)
				if !ok {
					continue
				}
				checkFormatRows(p, wirePkg, cl, fuzzTargets)
			}
			return true
		})
	}
}

func checkFormatRows(p *Pass, pkg *Package, table *ast.CompositeLit, fuzzTargets map[string]bool) {
	strVal := func(e ast.Expr) string {
		if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			return constant.StringVal(tv.Value)
		}
		return ""
	}
	boolVal := func(e ast.Expr) bool {
		if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Bool {
			return constant.BoolVal(tv.Value)
		}
		return false
	}
	seen := map[string]bool{}
	for _, row := range table.Elts {
		rl, ok := row.(*ast.CompositeLit)
		if !ok {
			continue
		}
		var magic, fuzz string
		digestOnly := false
		for _, elt := range rl.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			switch key.Name {
			case "Magic":
				magic = strVal(kv.Value)
			case "Fuzz":
				fuzz = strVal(kv.Value)
			case "DigestOnly":
				digestOnly = boolVal(kv.Value)
			}
		}
		if magic == "" {
			p.Reportf(row.Pos(), "registry row without a constant Magic")
			continue
		}
		if seen[magic] {
			p.Reportf(row.Pos(), "duplicate registry row for magic %s", magic)
		}
		seen[magic] = true
		if !magicPat.MatchString(magic) || len(magic) != 8 {
			p.Reportf(row.Pos(), "magic %q is not an 8-byte SYMSIM?? identifier", magic)
		}
		switch {
		case digestOnly && fuzz != "":
			p.Reportf(row.Pos(), "digest-only format %s must not claim a fuzz target", magic)
		case !digestOnly && fuzz == "":
			p.Reportf(row.Pos(), "decodable format %s has no fuzz target", magic)
		case !digestOnly && !fuzzTargets[fuzz]:
			p.Reportf(row.Pos(), "format %s names fuzz target %s, which does not exist in any _test.go", magic, fuzz)
		}
	}
}
