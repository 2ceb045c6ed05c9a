package cliflags_test

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"symsim/internal/cliflags"
	"symsim/internal/core"
	"symsim/internal/csm"
	"symsim/internal/netlist"
	"symsim/internal/rtl"
	"symsim/internal/vvp"
)

// sharedFlagNames is the contract between cmd/symsim and cmd/symsimd:
// both register exactly this analysis flag vocabulary through Register,
// so a flag added or renamed in only one place fails here.
var sharedFlagNames = []string{
	"constraints", "deadline", "k", "max-csm-states", "max-forks",
	"max-sim-cycles", "max-states", "policy", "workers",
}

func registered(fs *flag.FlagSet) []string {
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	return names
}

// TestBothCommandsParseTheSameFlagSet registers the shared flags the way
// cmd/symsim and cmd/symsimd each do and checks (a) the two flag sets are
// identical and match the documented vocabulary, and (b) parsing the same
// arguments yields the same Analysis either way.
func TestBothCommandsParseTheSameFlagSet(t *testing.T) {
	cli := flag.NewFlagSet("symsim", flag.ContinueOnError)
	daemon := flag.NewFlagSet("symsimd", flag.ContinueOnError)
	aCLI := cliflags.Register(cli)
	aDaemon := cliflags.Register(daemon)

	if got := registered(cli); !reflect.DeepEqual(got, sharedFlagNames) {
		t.Errorf("cmd/symsim flag set drifted:\n got %v\nwant %v", got, sharedFlagNames)
	}
	if got, want := registered(daemon), registered(cli); !reflect.DeepEqual(got, want) {
		t.Errorf("daemon flag set differs from CLI flag set: %v vs %v", got, want)
	}

	args := []string{
		"-policy", "clustered", "-k", "7", "-workers", "3",
		"-deadline", "90s", "-max-sim-cycles", "123456",
		"-max-forks", "9", "-max-csm-states", "11",
	}
	if err := cli.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Parse(args); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(aCLI, aDaemon) {
		t.Errorf("same args parsed differently:\n cli    %+v\n daemon %+v", aCLI, aDaemon)
	}
	if aCLI.DeadlineMS != 90_000 || aCLI.K != 7 {
		t.Errorf("parsed values wrong: %+v", aCLI)
	}
}

func TestConfigInterpretsFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	a := cliflags.Register(fs)
	if err := fs.Parse([]string{"-policy", "exact", "-max-states", "32", "-workers", "2", "-max-forks", "5", "-deadline", "1500ms"}); err != nil {
		t.Fatal(err)
	}
	a.Design, a.Bench = "dr5", "tea8"
	cfg, err := a.Config(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy.Name() != "exact" {
		t.Errorf("policy = %q", cfg.Policy.Name())
	}
	if cfg.Engine != vvp.EngineKernel || cfg.Workers != 2 {
		t.Errorf("config = %+v", cfg)
	}
	if want := (core.Budget{MaxForks: 5, WallClock: 1500 * time.Millisecond}); cfg.Budget != want {
		t.Errorf("budget = %+v", cfg.Budget)
	}
}

// TestBatchEngineFlags pins that the batch engine has no flags: the shared
// vocabulary registers neither -engine nor -lanes, so naming either is a
// parse error at every command that registers it, and what the flags map
// to runs on the compiled kernel.
func TestBatchEngineFlags(t *testing.T) {
	for _, args := range [][]string{{"-engine", "batch"}, {"-lanes", "8"}} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cliflags.Register(fs)
		if err := fs.Parse(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: parse error %v, want an undefined flag", args, err)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	a := cliflags.Register(fs)
	a.Design, a.Bench = "dr5", "tea8"
	cfg, err := a.Config(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Engine != vvp.EngineKernel {
		t.Errorf("config engine = %v, want the kernel", cfg.Engine)
	}
}

func TestConfigRejectsBadValues(t *testing.T) {
	// The budget is carried in whole milliseconds; a finer -deadline would
	// otherwise read as "no budget".
	fine := flag.NewFlagSet("t", flag.ContinueOnError)
	fine.SetOutput(io.Discard)
	cliflags.Register(fine)
	if err := fine.Parse([]string{"-deadline", "500us"}); err == nil {
		t.Error("-deadline 500us accepted")
	}
	for _, args := range [][]string{
		{"-policy", "bogus"},
		{"-policy", "constrained"}, // no spec/constraint file
		{"-policy", "clustered", "-k", "-1"},
		{"-max-forks", "-1"},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		a := cliflags.Register(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		a.Design, a.Bench = "dr5", "tea8"
		if _, err := a.Config(nil); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestManagerForSurfacesConstraintError pins the plumb-through of
// constraint validation: a -constraints file that PARSES (every bit
// resolves) but fails fact validation in csm.NewConstrained — here an
// inverted range — must surface the typed *csm.ConstraintError through
// ManagerFor, wrapped with the file name, so the CLI error names both the
// file and the offending fact.
func TestManagerForSurfacesConstraintError(t *testing.T) {
	m := rtl.NewModule("cfx")
	d := rtl.Bus{m.N.AddNet("d0"), m.N.AddNet("d1")}
	q := m.Reg("pc", d, m.Hi(), 0)
	next := m.Inc(q)
	for i := range d {
		m.N.AddGate(netlist.KindBuf, d[i], next[i])
	}
	m.Output("pc", q)
	if err := m.N.Freeze(); err != nil {
		t.Fatal(err)
	}
	spec, err := vvp.SpecFor(m.N, "pc")
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "facts.txt")
	if err := os.WriteFile(path, []byte("pc=* reg=pc min=0x3 max=0x1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	a := cliflags.Register(fs)
	if err := fs.Parse([]string{"-policy", "constrained", "-constraints", path}); err != nil {
		t.Fatal(err)
	}
	_, err = a.ManagerFor(spec)
	if err == nil {
		t.Fatal("inverted range accepted")
	}
	var cerr *csm.ConstraintError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *csm.ConstraintError", err)
	}
	if cerr.Index != 0 {
		t.Errorf("constraint index = %d, want 0", cerr.Index)
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the constraint file", err)
	}

	// A valid file constructs the constrained manager through the same path.
	if err := os.WriteFile(path, []byte("pc=* reg=pc min=0x1 max=0x3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	mgr, err := a.ManagerFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	if mgr.Name() != "constrained" {
		t.Errorf("manager = %q", mgr.Name())
	}
}

func TestNewPolicyMatchesCSMNames(t *testing.T) {
	for _, tc := range []struct{ policy, name string }{
		{"merge-all", csm.NewMergeAll().Name()},
		{"clustered", csm.NewClustered(4).Name()},
		{"exact", csm.NewExact(16).Name()},
	} {
		m, err := cliflags.NewPolicy(tc.policy, 4, 16)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != tc.name {
			t.Errorf("NewPolicy(%q).Name() = %q, want %q", tc.policy, m.Name(), tc.name)
		}
	}
}
