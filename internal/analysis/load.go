package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the analyzed program.
type Package struct {
	// Path is the import path ("symsim/internal/vvp").
	Path string
	// Dir is the package directory (empty for synthetic programs).
	Dir string
	// Files are the parsed non-test files, with comments.
	Files []*ast.File
	// TestFiles are the package's _test.go files, parsed (with comments)
	// but not type-checked — SA004 scans them for fuzz targets.
	TestFiles []*ast.File
	// Types and Info carry the go/types results for Files.
	Types *types.Package
	Info  *types.Info
}

// Program is a loaded, fully type-checked source tree: the unit every
// analyzer runs over. Analyzers are whole-program (the SA001 call graph
// and the SA004/SA005 registries span packages), so there is no
// per-package pass structure.
type Program struct {
	Fset *token.FileSet
	// RepoRoot is the module root directory (empty for synthetic
	// programs loaded from memory).
	RepoRoot string
	// ModPath is the module path from go.mod ("symsim").
	ModPath string
	// Packages lists the loaded packages in dependency order.
	Packages []*Package
	// DesignDoc is the contents of DESIGN.md at the repo root, consumed
	// by the SA005 documentation check (empty when absent).
	DesignDoc string

	byPath map[string]*Package
	// directives indexes every //symsim: annotation in the tree.
	dirs *directiveIndex
}

// skipDirs are directory names never descended into during Load.
var skipDirs = map[string]bool{
	".git": true, "testdata": true, "related": true, ".claude": true,
}

// Load walks the Go module rooted at root (the directory containing
// go.mod), parses every package, and type-checks them in dependency
// order. Only the standard library and intra-module imports are
// supported — exactly the closed world symsim lives in; the standard
// library is type-checked from source (go/importer "source" mode), so
// Load needs no compiled export data and no external tooling.
func Load(root string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	// Collect the package directories.
	type rawPkg struct {
		path, dir   string
		goFiles     []string
		testGoFiles []string
	}
	var raws []*rawPkg
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (skipDirs[name] || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		rp := &rawPkg{dir: path}
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			if strings.HasSuffix(e.Name(), "_test.go") {
				rp.testGoFiles = append(rp.testGoFiles, filepath.Join(path, e.Name()))
			} else {
				rp.goFiles = append(rp.goFiles, filepath.Join(path, e.Name()))
			}
		}
		if len(rp.goFiles)+len(rp.testGoFiles) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			rp.path = modPath
		} else {
			rp.path = modPath + "/" + filepath.ToSlash(rel)
		}
		raws = append(raws, rp)
		return nil
	})
	if err != nil {
		return nil, err
	}

	prog := &Program{
		Fset:     token.NewFileSet(),
		RepoRoot: root,
		ModPath:  modPath,
		byPath:   map[string]*Package{},
	}
	if doc, err := os.ReadFile(filepath.Join(root, "DESIGN.md")); err == nil {
		prog.DesignDoc = string(doc)
	}

	// Parse everything up front so import edges are known.
	parsed := map[string]*Package{}
	for _, rp := range raws {
		pkg := &Package{Path: rp.path, Dir: rp.dir}
		for _, f := range rp.goFiles {
			af, err := parser.ParseFile(prog.Fset, f, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: %v", err)
			}
			pkg.Files = append(pkg.Files, af)
		}
		for _, f := range rp.testGoFiles {
			af, err := parser.ParseFile(prog.Fset, f, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: %v", err)
			}
			pkg.TestFiles = append(pkg.TestFiles, af)
		}
		if len(pkg.Files) == 0 {
			continue // test-only directory; nothing to type-check
		}
		parsed[rp.path] = pkg
	}
	return prog.check(parsed)
}

// LoadFiles builds a Program from an in-memory file set — the fixture
// path the per-analyzer unit tests use to seed violations. Keys are
// slash-separated paths relative to a synthetic module root; the package
// path of "dir/file.go" is "test/dir" under the synthetic module path
// "test". A top-level "file.go" lands in package path "test".
func LoadFiles(files map[string]string) (*Program, error) {
	return LoadFilesDoc(files, "")
}

// LoadFilesDoc is LoadFiles with an explicit DESIGN.md body for the
// SA005 documentation check.
func LoadFilesDoc(files map[string]string, designDoc string) (*Program, error) {
	const modPath = "test"
	prog := &Program{
		Fset:      token.NewFileSet(),
		ModPath:   modPath,
		DesignDoc: designDoc,
		byPath:    map[string]*Package{},
	}
	parsed := map[string]*Package{}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dir := ""
		if i := strings.LastIndex(name, "/"); i >= 0 {
			dir = name[:i]
		}
		path := modPath
		if dir != "" {
			path = modPath + "/" + dir
		}
		pkg := parsed[path]
		if pkg == nil {
			pkg = &Package{Path: path}
			parsed[path] = pkg
		}
		af, err := parser.ParseFile(prog.Fset, name, files[name], parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		if strings.HasSuffix(name, "_test.go") {
			pkg.TestFiles = append(pkg.TestFiles, af)
		} else {
			pkg.Files = append(pkg.Files, af)
		}
	}
	for path, pkg := range parsed {
		if len(pkg.Files) == 0 {
			delete(parsed, path)
		}
	}
	return prog.check(parsed)
}

// check type-checks the parsed packages in dependency order and
// finalizes the program.
func (prog *Program) check(parsed map[string]*Package) (*Program, error) {
	order, err := topoOrder(prog.ModPath, parsed)
	if err != nil {
		return nil, err
	}
	imp := &progImporter{
		prog: prog,
		std:  importer.ForCompiler(prog.Fset, "source", nil),
	}
	for _, path := range order {
		pkg := parsed[path]
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(path, prog.Fset, pkg.Files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %v", path, err)
		}
		pkg.Types, pkg.Info = tp, info
		prog.byPath[path] = pkg
		prog.Packages = append(prog.Packages, pkg)
	}
	prog.dirs = indexDirectives(prog)
	return prog, nil
}

// topoOrder sorts the local packages so every package is checked after
// its intra-module imports.
func topoOrder(modPath string, parsed map[string]*Package) ([]string, error) {
	localImports := func(pkg *Package) []string {
		var out []string
		for _, f := range pkg.Files {
			for _, im := range f.Imports {
				p := strings.Trim(im.Path.Value, `"`)
				if p == modPath || strings.HasPrefix(p, modPath+"/") {
					if _, ok := parsed[p]; ok {
						out = append(out, p)
					}
				}
			}
		}
		return out
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var order []string
	var visit func(string) error
	visit = func(path string) error {
		switch color[path] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("analysis: import cycle through %s", path)
		}
		color[path] = gray
		deps := localImports(parsed[path])
		sort.Strings(deps)
		for _, d := range deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		color[path] = black
		order = append(order, path)
		return nil
	}
	paths := make([]string, 0, len(parsed))
	for p := range parsed {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// progImporter resolves intra-module imports from the program under
// analysis and everything else (the standard library) from source.
type progImporter struct {
	prog *Program
	std  types.Importer
}

func (i *progImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.prog.byPath[path]; ok {
		return p.Types, nil
	}
	if path == i.prog.ModPath || strings.HasPrefix(path, i.prog.ModPath+"/") {
		return nil, fmt.Errorf("analysis: local import %q not loaded", path)
	}
	return i.std.Import(path)
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", fmt.Errorf("analysis: %v (Load wants the module root)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", file)
}

// Position renders a token.Pos as a repo-relative "file:line:col" string.
func (prog *Program) Position(pos token.Pos) string {
	if !pos.IsValid() {
		return ""
	}
	p := prog.Fset.Position(pos)
	file := p.Filename
	if prog.RepoRoot != "" {
		if rel, err := filepath.Rel(prog.RepoRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
	}
	return fmt.Sprintf("%s:%d:%d", file, p.Line, p.Column)
}
