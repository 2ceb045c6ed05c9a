// Package fault is symsim's deterministic fault-injection layer: a small
// virtual-filesystem seam (FS/File over the os calls the durable store
// makes) plus an Injector that executes a fault Plan against it — I/O
// errors, ENOSPC, short writes, latency, and hard crash-points after which
// every operation fails as if the process had died mid-write.
//
// Plans are deterministic: a rule fires on the Nth matching operation, and
// seeded plans derive their rules from a fixed-seed PRNG, so a failing
// torture-matrix case is reproduced by its (seed, crash-op) pair alone.
// The injector is test- and chaos-harness-facing; production code takes
// the zero-cost OS passthrough.
package fault

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"
)

// FS is the filesystem seam the service store writes through. It mirrors
// exactly the os-package surface the store uses; nothing more.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]os.DirEntry, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
}

// File is the writable-handle surface of FS.CreateTemp.
type File interface {
	Write(p []byte) (int, error)
	Close() error
	Name() string
}

// OS is the passthrough FS used outside fault-injection runs.
type OS struct{}

func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (OS) ReadDir(path string) ([]os.DirEntry, error)   { return os.ReadDir(path) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(path string) error                     { return os.Remove(path) }
func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

// Op identifies one FS operation kind for plan matching.
type Op string

// The injectable operations; OpAny in a rule matches all of them.
const (
	OpAny        Op = "any"
	OpMkdirAll   Op = "mkdirall"
	OpReadFile   Op = "readfile"
	OpReadDir    Op = "readdir"
	OpCreateTemp Op = "createtemp"
	OpWrite      Op = "write"
	OpClose      Op = "close"
	OpRename     Op = "rename"
	OpRemove     Op = "remove"
)

// ops lists every concrete operation, in a fixed order for seeded plans.
var ops = []Op{OpMkdirAll, OpReadFile, OpReadDir, OpCreateTemp, OpWrite, OpClose, OpRename, OpRemove}

// Kind is the fault a triggered rule injects.
type Kind string

const (
	// KindEIO fails the operation with syscall.EIO.
	KindEIO Kind = "eio"
	// KindENOSPC fails the operation with syscall.ENOSPC; on writes the
	// data is discarded, as a full disk would.
	KindENOSPC Kind = "enospc"
	// KindShort lands only half the buffer of a write, then fails with
	// ENOSPC — a torn write. On non-write operations it degrades to
	// KindENOSPC.
	KindShort Kind = "short"
	// KindLatency delays the operation by Rule.Latency, then lets it
	// succeed (and does not consume the rule's fault budget as an error).
	KindLatency Kind = "latency"
	// KindCrash leaves the filesystem exactly as it stands — the
	// operation itself does not execute — and fails this and every later
	// operation with ErrCrashed, as if the process died at this point.
	// On writes, half the buffer lands first: a crash mid-write.
	KindCrash Kind = "crash"
)

// kinds in a fixed order for seeded plans. Crash is excluded: seeded
// error plans exercise degraded operation, the crash sweep enumerates
// crash-points exhaustively on its own.
var errKinds = []Kind{KindEIO, KindENOSPC, KindShort, KindLatency}

// ErrInjected tags every error the injector produces (crash included), so
// tests and error-path audits can tell injected faults from real ones.
var ErrInjected = errors.New("fault: injected")

// ErrCrashed is returned by every operation at and after a crash-point.
// It wraps ErrInjected.
var ErrCrashed = fmt.Errorf("%w: crashed", ErrInjected)

// Rule arms one fault: the Nth operation matching (Op, Match substring)
// injects Kind.
type Rule struct {
	// Op restricts the rule to one operation kind; OpAny matches all.
	Op Op
	// Match, when non-empty, requires the operation path to contain it.
	Match string
	// Nth arms the rule on the Nth matching operation (1-based).
	Nth int
	// Kind is the injected fault.
	Kind Kind
	// Latency is the injected delay for KindLatency.
	Latency time.Duration
}

// Plan is an ordered set of armed fault rules.
type Plan struct {
	Rules []Rule
}

// PlanFromSeed derives a deterministic error plan: n rules drawn from a
// fixed-seed PRNG over the concrete operations and non-crash fault kinds,
// with occurrence indices spread over roughly the first maxNth matching
// calls. The same seed always yields the same plan.
func PlanFromSeed(seed int64, n, maxNth int) *Plan {
	if n <= 0 {
		n = 3
	}
	if maxNth <= 0 {
		maxNth = 8
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{}
	for i := 0; i < n; i++ {
		r := Rule{
			Op:   ops[rng.Intn(len(ops))],
			Nth:  1 + rng.Intn(maxNth),
			Kind: errKinds[rng.Intn(len(errKinds))],
		}
		if r.Kind == KindLatency {
			r.Latency = time.Duration(1+rng.Intn(5)) * time.Millisecond
		}
		p.Rules = append(p.Rules, r)
	}
	return p
}

// CrashPlan is the single-rule plan used by crash-point sweeps: die at the
// Nth filesystem operation of any kind.
func CrashPlan(nthOp int) *Plan {
	return &Plan{Rules: []Rule{{Op: OpAny, Nth: nthOp, Kind: KindCrash}}}
}

// Injector is an FS that executes a Plan over an inner filesystem. Every
// operation increments per-rule match counters; a rule whose Nth match
// arrives injects its fault. All methods are safe for concurrent use.
type Injector struct {
	inner FS
	plan  *Plan

	mu      sync.Mutex
	seen    []int // matches observed per rule
	totalOp int   // global operation count (OpAny matching)
	crashed bool
	faults  int
}

// NewInjector arms plan over inner (nil inner means the real OS).
func NewInjector(inner FS, plan *Plan) *Injector {
	if inner == nil {
		inner = OS{}
	}
	if plan == nil {
		plan = &Plan{}
	}
	return &Injector{inner: inner, plan: plan, seen: make([]int, len(plan.Rules))}
}

// Faults returns how many faults the injector has injected so far.
func (in *Injector) Faults() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.faults
}

// Ops returns the global operation count, the basis for crash-point
// sweeps: run once fault-free to learn the op count M, then re-run with
// CrashPlan(k) for every k in 1..M.
func (in *Injector) Ops() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.totalOp
}

// Crashed reports whether a crash-point has fired.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// decision is what check tells an operation to do.
type decision struct {
	err     error
	short   bool // land half the write before failing
	latency time.Duration
}

// check advances the match counters for one operation and returns the
// injected decision, if any.
func (in *Injector) check(op Op, path string) decision {
	in.mu.Lock()
	if in.crashed {
		in.mu.Unlock()
		return decision{err: ErrCrashed}
	}
	in.totalOp++
	var d decision
	for i, r := range in.plan.Rules {
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.Match != "" && !strings.Contains(path, r.Match) {
			continue
		}
		in.seen[i]++
		if in.seen[i] != r.Nth || d.err != nil || d.latency > 0 {
			continue
		}
		switch r.Kind {
		case KindEIO:
			d.err = fmt.Errorf("%w: %s %s: %w", ErrInjected, op, path, syscall.EIO)
		case KindENOSPC:
			d.err = fmt.Errorf("%w: %s %s: %w", ErrInjected, op, path, syscall.ENOSPC)
		case KindShort:
			d.err = fmt.Errorf("%w: short %s %s: %w", ErrInjected, op, path, syscall.ENOSPC)
			d.short = true
		case KindLatency:
			d.latency = r.Latency
		case KindCrash:
			in.crashed = true
			d.err = ErrCrashed
			d.short = op == OpWrite // a crash mid-write tears the buffer
		}
		in.faults++
	}
	in.mu.Unlock()
	if d.latency > 0 {
		time.Sleep(d.latency)
	}
	return d
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	if d := in.check(OpMkdirAll, path); d.err != nil {
		return d.err
	}
	return in.inner.MkdirAll(path, perm)
}

func (in *Injector) ReadFile(path string) ([]byte, error) {
	if d := in.check(OpReadFile, path); d.err != nil {
		return nil, d.err
	}
	return in.inner.ReadFile(path)
}

func (in *Injector) ReadDir(path string) ([]os.DirEntry, error) {
	if d := in.check(OpReadDir, path); d.err != nil {
		return nil, d.err
	}
	return in.inner.ReadDir(path)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if d := in.check(OpRename, newpath); d.err != nil {
		return d.err
	}
	return in.inner.Rename(oldpath, newpath)
}

func (in *Injector) Remove(path string) error {
	if d := in.check(OpRemove, path); d.err != nil {
		return d.err
	}
	return in.inner.Remove(path)
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if d := in.check(OpCreateTemp, dir); d.err != nil {
		return nil, d.err
	}
	f, err := in.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f}, nil
}

// injFile routes writes and closes of a temp file back through the plan.
type injFile struct {
	in *Injector
	f  File
}

func (w *injFile) Name() string { return w.f.Name() }

func (w *injFile) Write(p []byte) (int, error) {
	d := w.in.check(OpWrite, w.f.Name())
	if d.err != nil {
		if d.short && len(p) > 1 {
			// Torn write: half the buffer lands before the fault. The
			// inner write's own error (if any) is subsumed by the
			// injected one.
			n, _ := w.f.Write(p[:len(p)/2])
			return n, d.err
		}
		return 0, d.err
	}
	return w.f.Write(p)
}

func (w *injFile) Close() error {
	if d := w.in.check(OpClose, w.f.Name()); d.err != nil {
		if !errors.Is(d.err, ErrCrashed) {
			// The handle still closes underneath (the fd is not leaked);
			// the injected error models close-time writeback failure.
			_ = w.f.Close()
		}
		return d.err
	}
	return w.f.Close()
}

// IsNotExist reports whether err is a true does-not-exist condition (as
// opposed to an injected or real I/O failure). The store uses it to keep
// "miss" and "fault" separate on read paths.
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
