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
	"constraints", "deadline", "engine", "k", "lanes", "max-csm-states",
	"max-forks", "max-sim-cycles", "max-states", "memx", "policy",
	"workers",
}

// clusterFlagNames is the cmd/symsimd cluster-mode vocabulary registered
// through RegisterCluster, pinned the same way.
var clusterFlagNames = []string{
	"coordinator", "shard-lease-ttl", "worker", "worker-slots",
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
		"-engine", "batch", "-memx", "sound",
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

// TestClusterFlagsPinnedAndDisjoint registers the daemon's full flag
// surface the way cmd/symsimd does — shared analysis flags plus the
// cluster-mode flags — and checks (a) RegisterCluster's vocabulary is
// exactly the documented one, (b) it never collides with the shared
// analysis names (both register on one FlagSet in the daemon; a collision
// panics at startup), and (c) the values parse where they should.
func TestClusterFlagsPinnedAndDisjoint(t *testing.T) {
	fs := flag.NewFlagSet("symsimd", flag.ContinueOnError)
	cliflags.Register(fs)
	cl := cliflags.RegisterCluster(fs)

	want := append(append([]string{}, sharedFlagNames...), clusterFlagNames...)
	sort.Strings(want)
	if got := registered(fs); !reflect.DeepEqual(got, want) {
		t.Errorf("daemon flag surface drifted:\n got %v\nwant %v", got, want)
	}

	if err := fs.Parse([]string{
		"-coordinator", "-shard-lease-ttl", "3s", "-worker-slots", "2",
	}); err != nil {
		t.Fatal(err)
	}
	if !cl.Coordinator || cl.LeaseTTL != 3*time.Second || cl.Slots != 2 {
		t.Errorf("parsed cluster flags = %+v", cl)
	}
	if cl.Worker != "" {
		t.Errorf("worker URL should default empty, got %q", cl.Worker)
	}

	fs2 := flag.NewFlagSet("symsimd", flag.ContinueOnError)
	cliflags.Register(fs2)
	cl2 := cliflags.RegisterCluster(fs2)
	if err := fs2.Parse([]string{"-worker", "http://coord:8466"}); err != nil {
		t.Fatal(err)
	}
	if cl2.Worker != "http://coord:8466" || cl2.Coordinator {
		t.Errorf("parsed worker flags = %+v", cl2)
	}
}

func TestConfigInterpretsFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	a := cliflags.Register(fs)
	if err := fs.Parse([]string{"-policy", "exact", "-max-states", "32", "-engine", "batch", "-memx", "sound", "-workers", "2", "-max-forks", "5", "-deadline", "1500ms"}); err != nil {
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
	if cfg.Engine != vvp.EngineBatch || cfg.MemX != vvp.MemXSound || cfg.Workers != 2 {
		t.Errorf("config = %+v", cfg)
	}
	if want := (core.Budget{MaxForks: 5, WallClock: 1500 * time.Millisecond}); cfg.Budget != want {
		t.Errorf("budget = %+v", cfg.Budget)
	}
}

// TestBatchEngineFlags pins the batch-engine vocabulary: -engine=batch
// parses to vvp.EngineBatch, -lanes flows into Config.Lanes, and the
// unknown-engine error names the two engines a request may select — the
// interpreter is the differential suites' oracle, not an option.
func TestBatchEngineFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	a := cliflags.Register(fs)
	if err := fs.Parse([]string{"-engine", "batch", "-lanes", "16"}); err != nil {
		t.Fatal(err)
	}
	a.Design, a.Bench = "dr5", "tea8"
	cfg, err := a.Config(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Engine != vvp.EngineBatch || cfg.Lanes != 16 {
		t.Errorf("config = engine %v lanes %d, want batch/16", cfg.Engine, cfg.Lanes)
	}
	for _, name := range []string{"warp", "interp"} {
		if _, err := cliflags.ParseEngine(name); err == nil ||
			!strings.Contains(err.Error(), "want kernel | batch") {
			t.Errorf("-engine %s: error should list the selectable engines, got %v", name, err)
		}
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
		{"-memx", "bogus"},
		{"-engine", "bogus"},
		{"-policy", "bogus"},
		{"-policy", "constrained"}, // no spec/constraint file
		{"-policy", "clustered", "-k", "-1"},
		{"-lanes", "65"},
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
