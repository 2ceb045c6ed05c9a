package fault

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestSeededPlansAreDeterministic(t *testing.T) {
	a := PlanFromSeed(42, 5, 10)
	b := PlanFromSeed(42, 5, 10)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different plans:\n %+v\n %+v", a, b)
	}
	c := PlanFromSeed(43, 5, 10)
	if reflect.DeepEqual(a, c) {
		t.Errorf("seeds 42 and 43 produced identical plans: %+v", a)
	}
}

// TestSeededPlanDefaults: a non-positive rule count or occurrence bound
// falls back to three rules over the first eight matching calls.
func TestSeededPlanDefaults(t *testing.T) {
	want := PlanFromSeed(7, 3, 8)
	if got := PlanFromSeed(7, 0, 0); !reflect.DeepEqual(want, got) {
		t.Errorf("PlanFromSeed(7, 0, 0) = %+v, want %+v", got, want)
	}
}

func TestInjectorNthOccurrence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(nil, &Plan{Rules: []Rule{{Op: OpReadFile, Nth: 2, Kind: KindEIO}}})
	if _, err := in.ReadFile(path); err != nil {
		t.Fatalf("first read: %v", err)
	}
	_, err := in.ReadFile(path)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("second read = %v, want injected EIO", err)
	}
	if _, err := in.ReadFile(path); err != nil {
		t.Fatalf("third read (rule spent): %v", err)
	}
	if in.Faults() != 1 {
		t.Errorf("Faults() = %d, want 1", in.Faults())
	}
}

func TestInjectorMatchSubstring(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"jobs.bin", "cache.bin"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	in := NewInjector(nil, &Plan{Rules: []Rule{{Op: OpReadFile, Match: "cache", Nth: 1, Kind: KindENOSPC}}})
	if _, err := in.ReadFile(filepath.Join(dir, "jobs.bin")); err != nil {
		t.Fatalf("non-matching path faulted: %v", err)
	}
	if _, err := in.ReadFile(filepath.Join(dir, "cache.bin")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("matching path = %v, want ENOSPC", err)
	}
}

func TestInjectorShortWrite(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil, &Plan{Rules: []Rule{{Op: OpWrite, Nth: 1, Kind: KindShort}}})
	f, err := in.CreateTemp(dir, "t*")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789")
	n, err := f.Write(payload)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("short write error = %v, want injected ENOSPC", err)
	}
	if n != len(payload)/2 {
		t.Errorf("short write landed %d bytes, want %d", n, len(payload)/2)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "01234" {
		t.Errorf("on-disk torn write = %q, want %q", data, "01234")
	}
}

func TestInjectorCrashMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(nil, CrashPlan(3))
	for i := 0; i < 2; i++ {
		if _, err := in.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if in.Crashed() {
		t.Fatal("crashed before the crash point")
	}
	// Third operation is the crash point; everything at and after it fails.
	if err := in.Remove(path); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash-point op = %v, want ErrCrashed", err)
	}
	if !in.Crashed() {
		t.Fatal("Crashed() = false after crash point")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("crash-point Remove executed anyway: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := in.ReadFile(path); !errors.Is(err, ErrCrashed) {
			t.Fatalf("post-crash op %d = %v, want ErrCrashed", i, err)
		}
	}
	if ops := in.Ops(); ops != 3 {
		t.Errorf("Ops() = %d, want 3 (post-crash ops don't count)", ops)
	}
}

func TestInjectorCrashOnWriteTearsBuffer(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil, &Plan{Rules: []Rule{{Op: OpWrite, Nth: 1, Kind: KindCrash}}})
	f, err := in.CreateTemp(dir, "t*")
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("write = %v, want ErrCrashed", err)
	}
	if n != 3 {
		t.Errorf("crash mid-write landed %d bytes, want 3", n)
	}
	if err := f.Close(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("close after crash = %v, want ErrCrashed", err)
	}
}

func TestInjectorLatencySucceeds(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(nil, &Plan{Rules: []Rule{{Op: OpReadFile, Nth: 1, Kind: KindLatency, Latency: 10 * time.Millisecond}}})
	start := time.Now()
	data, err := in.ReadFile(path)
	if err != nil || string(data) != "x" {
		t.Fatalf("delayed read = %q, %v", data, err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Errorf("latency fault took %v, want >= 10ms", d)
	}
	if in.Faults() != 1 {
		t.Errorf("Faults() = %d, want 1 (latency counts as injected)", in.Faults())
	}
}

func TestIsNotExistSeparatesMissFromFault(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil, &Plan{Rules: []Rule{{Op: OpReadFile, Nth: 2, Kind: KindEIO}}})
	_, err := in.ReadFile(filepath.Join(dir, "absent"))
	if !IsNotExist(err) {
		t.Errorf("true miss: IsNotExist = false (%v)", err)
	}
	_, err = in.ReadFile(filepath.Join(dir, "absent"))
	if IsNotExist(err) {
		t.Errorf("injected EIO classified as a miss")
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("injected error lost its tag: %v", err)
	}
}

// The passthrough must not alter semantics: every OS method reaches the
// real filesystem.
func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	var v FS = OS{}
	if err := v.MkdirAll(filepath.Join(dir, "a", "b"), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := v.CreateTemp(filepath.Join(dir, "a"), "t*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	final := filepath.Join(dir, "a", "final")
	if err := v.Rename(f.Name(), final); err != nil {
		t.Fatal(err)
	}
	if data, err := v.ReadFile(final); err != nil || string(data) != "hi" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	entries, err := v.ReadDir(filepath.Join(dir, "a"))
	if err != nil || len(entries) != 2 {
		t.Fatalf("ReadDir = %d entries, %v", len(entries), err)
	}
	if err := v.Remove(final); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f.Name(), "t") {
		t.Errorf("temp name %q", f.Name())
	}
}
