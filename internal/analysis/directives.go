package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"symsim/internal/diag"
)

// The //symsim: annotation grammar. Annotations are ordinary line
// comments recognized anywhere in non-test source:
//
//	//symsim:hotpath
//	    On a function's doc comment: the function is an allocation-free
//	    hot-path root; SA001 verifies it and everything statically
//	    reachable from it.
//	//symsim:coldpath
//	    On a function's doc comment: the function is an acknowledged
//	    slow path (error construction, logging); SA001 does not descend
//	    into it and calls to it from hot code are permitted.
//	//symsim:allow SA00x reason
//	    On the flagged line, the line above it, or an enclosing
//	    function's doc comment: suppress that code there. The reason is
//	    mandatory — an allow without one is itself an SA000 error.
//
// Unknown //symsim: verbs and malformed allows are reported as SA000 so
// a typo cannot silently disable a gate.

// directive verbs.
const (
	verbHotpath  = "hotpath"
	verbColdpath = "coldpath"
	verbAllow    = "allow"
)

// allowSite is one //symsim:allow occurrence.
type allowSite struct {
	file string // fset file name
	line int    // line the comment sits on
	code diag.Code
}

// funcMarks are the directive bits attached to one function declaration.
type funcMarks struct {
	hotpath, coldpath bool
	allows            map[diag.Code]bool
}

// directiveIndex is every //symsim: annotation in the program, indexed
// for the two suppression lookups analyzers need: line-level allows and
// function-level marks.
type directiveIndex struct {
	// allows maps file name -> sorted list of allow lines.
	allows map[string][]allowSite
	// marks maps a function's *ast.FuncDecl to its directives.
	marks map[*ast.FuncDecl]*funcMarks
	// bad collects malformed directives (reported as SA000).
	bad []diag.Diag
	// funcs maps file name -> FuncDecls sorted by position, for
	// enclosing-function lookup.
	funcs map[string][]*ast.FuncDecl
}

// indexDirectives scans every comment in the program's non-test files.
func indexDirectives(prog *Program) *directiveIndex {
	idx := &directiveIndex{
		allows: map[string][]allowSite{},
		marks:  map[*ast.FuncDecl]*funcMarks{},
		funcs:  map[string][]*ast.FuncDecl{},
	}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			fileName := prog.Fset.Position(f.Pos()).Filename

			// Attach doc-comment directives to their functions.
			docOf := map[*ast.CommentGroup]*ast.FuncDecl{}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				idx.funcs[fileName] = append(idx.funcs[fileName], fd)
				if fd.Doc != nil {
					docOf[fd.Doc] = fd
				}
			}
			sort.Slice(idx.funcs[fileName], func(i, j int) bool {
				fs := idx.funcs[fileName]
				return fs[i].Pos() < fs[j].Pos()
			})

			for _, cg := range f.Comments {
				for _, c := range cg.List {
					verb, arg, ok := parseDirective(c.Text)
					if !ok {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					fd := docOf[cg]
					switch verb {
					case verbHotpath, verbColdpath:
						if fd == nil {
							idx.bad = append(idx.bad, diag.Diag{
								Code: CodeDirective, Sev: diag.SevError,
								Pos: prog.Position(c.Pos()),
								Msg: "//symsim:" + verb + " must sit on a function's doc comment",
							})
							continue
						}
						m := idx.mark(fd)
						switch verb {
						case verbHotpath:
							m.hotpath = true
						case verbColdpath:
							m.coldpath = true
						}
					case verbAllow:
						code, reason, _ := strings.Cut(strings.TrimSpace(arg), " ")
						if !validCode(code) || strings.TrimSpace(reason) == "" {
							idx.bad = append(idx.bad, diag.Diag{
								Code: CodeDirective, Sev: diag.SevError,
								Pos: prog.Position(c.Pos()),
								Msg: "malformed directive: want //symsim:allow SA00x reason",
							})
							continue
						}
						if fd != nil {
							idx.mark(fd).allows[diag.Code(code)] = true
						} else {
							idx.allows[pos.Filename] = append(idx.allows[pos.Filename],
								allowSite{file: pos.Filename, line: pos.Line, code: diag.Code(code)})
						}
					default:
						idx.bad = append(idx.bad, diag.Diag{
							Code: CodeDirective, Sev: diag.SevError,
							Pos: prog.Position(c.Pos()),
							Msg: "unknown directive //symsim:" + verb,
						})
					}
				}
			}
		}
	}
	return idx
}

func (idx *directiveIndex) mark(fd *ast.FuncDecl) *funcMarks {
	m := idx.marks[fd]
	if m == nil {
		m = &funcMarks{allows: map[diag.Code]bool{}}
		idx.marks[fd] = m
	}
	return m
}

// parseDirective splits "//symsim:verb arg..." comments. Regular
// comments (including "// symsim:" with a space — not a directive, per
// Go convention for machine-readable comments) return ok=false.
func parseDirective(text string) (verb, arg string, ok bool) {
	rest, found := strings.CutPrefix(text, "//symsim:")
	if !found {
		return "", "", false
	}
	verb, arg, _ = strings.Cut(rest, " ")
	verb = strings.TrimSpace(verb)
	if verb == "" {
		return "", "", false
	}
	return verb, arg, true
}

// validCode reports whether s names a registered SA code.
func validCode(s string) bool {
	for _, a := range Analyzers {
		if string(a.Code) == s {
			return true
		}
	}
	return s == string(CodeDirective)
}

// allowedAt reports whether code is suppressed at pos: an allow on the
// same line, the line above, or the enclosing function's doc comment.
func (idx *directiveIndex) allowedAt(fset *token.FileSet, pos token.Pos, code diag.Code) bool {
	p := fset.Position(pos)
	for _, a := range idx.allows[p.Filename] {
		if a.code == code && (a.line == p.Line || a.line == p.Line-1) {
			return true
		}
	}
	if fd := idx.enclosingFunc(p.Filename, pos); fd != nil {
		if m := idx.marks[fd]; m != nil && m.allows[code] {
			return true
		}
	}
	return false
}

// enclosingFunc returns the function declaration spanning pos, or nil.
func (idx *directiveIndex) enclosingFunc(file string, pos token.Pos) *ast.FuncDecl {
	fs := idx.funcs[file]
	i := sort.Search(len(fs), func(i int) bool { return fs[i].End() > pos })
	if i < len(fs) && fs[i].Pos() <= pos && pos < fs[i].End() {
		return fs[i]
	}
	return nil
}

// marksOf returns the directives of fd (never nil).
func (idx *directiveIndex) marksOf(fd *ast.FuncDecl) funcMarks {
	if m := idx.marks[fd]; m != nil {
		return *m
	}
	return funcMarks{}
}
