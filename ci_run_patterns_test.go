package symsim_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsNameExistingTests guards the named gates of the CI
// workflow and the Makefile. `go test -run X` passes silently when X
// matches nothing, so a step whose test was renamed or deleted goes on
// passing while it tests nothing. Every alternative of every -run and
// -fuzz pattern there must match a Test, Fuzz or Benchmark function of a
// package the same command names.
func TestCIRunPatternsNameExistingTests(t *testing.T) {
	funcs := testFuncsByDir(t)
	flagRE := regexp.MustCompile(`-(run|fuzz)[ =]('[^']*'|"[^"]*"|\S+)`)
	names := 0
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		inFile := 0
		for _, line := range strings.Split(strings.ReplaceAll(string(b), "\\\n", " "), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "#") ||
				!strings.Contains(line, "go test ") && !strings.Contains(line, "$(GO) test ") {
				continue
			}
			var pkgs []string
			for _, tok := range strings.Fields(line) {
				if tok == "." || strings.HasPrefix(tok, "./") {
					pkgs = append(pkgs, tok)
				}
			}
			for _, m := range flagRE.FindAllStringSubmatch(line, -1) {
				pattern := strings.Trim(m[2], `'"`)
				if pattern == "^$" {
					continue // runs no test on purpose, only the -bench or -fuzz
				}
				// A -run pattern's first level names the top-level tests;
				// what follows a slash selects subtests.
				top, _, _ := strings.Cut(pattern, "/")
				for _, alt := range strings.Split(top, "|") {
					names++
					inFile++
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s: -%s %q: %v", file, m[1], alt, err)
						continue
					}
					if !matchesAny(re, funcs, pkgs) {
						t.Errorf("%s: -%s alternative %q matches no test function in %v:\n  %s", file, m[1], alt, pkgs, strings.TrimSpace(line))
					}
				}
			}
		}
		if inFile == 0 {
			t.Errorf("%s: found no -run or -fuzz pattern; the parser no longer reads the file", file)
		}
	}
	t.Logf("%d pattern alternatives checked", names)
}

// testFuncsByDir maps each directory of the module to the names of the
// Test, Fuzz and Benchmark functions its _test.go files declare.
func testFuncsByDir(t *testing.T) map[string][]string {
	t.Helper()
	declRE := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	funcs := make(map[string][]string)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "related") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		for _, m := range declRE.FindAllStringSubmatch(string(b), -1) {
			funcs[dir] = append(funcs[dir], m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// matchesAny reports whether re matches a function of one of the packages
// pkgs names (`./x/`, `./x/...`, `.`), or of any package when it names none.
func matchesAny(re *regexp.Regexp, funcs map[string][]string, pkgs []string) bool {
	inScope := func(dir string) bool {
		if len(pkgs) == 0 {
			return true
		}
		for _, p := range pkgs {
			p = strings.TrimSuffix(strings.TrimPrefix(p, "./"), "/")
			if rest, ok := strings.CutSuffix(p, "..."); ok {
				rest = filepath.Clean(strings.TrimSuffix(rest, "/"))
				if rest == "." || dir == rest || strings.HasPrefix(dir, rest+"/") {
					return true
				}
			} else if filepath.Clean(p) == dir {
				return true
			}
		}
		return false
	}
	for dir, names := range funcs {
		if !inScope(dir) {
			continue
		}
		for _, n := range names {
			if re.MatchString(n) {
				return true
			}
		}
	}
	return false
}
