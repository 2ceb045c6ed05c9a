package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"symsim/internal/core"
	"symsim/internal/fault"
	"symsim/internal/obs"
	"symsim/internal/vvp"
)

// This file is the store torture matrix: every filesystem operation the
// durable store makes is a potential crash-point or fault site, and for
// each one the daemon must restart into a consistent state — accepted
// jobs never lost, job records never half-written (atomic rename), orphan
// temp files reaped, corrupt cache entries quarantined and never served.
// The sweep is automated: a fault-free probe run counts the store's
// operations, then the workload re-runs once per crash-point. Operation
// interleaving varies slightly run to run (the worker persists
// concurrently with submissions), so crash-point k does not always land
// on the same logical write — every run is still a valid crash scenario,
// and the sweep covers the write paths many times over.

// runTortureLifetime runs one daemon lifetime over dir through vfs:
// submit three jobs (two distinct, one duplicate to exercise the cache
// read path), wait bounded for the accepted ones to settle, then submit a
// fourth and drain while it runs, so the drain's re-queue is one of the
// store's writes too. A Submit refusal under fault (degraded store) is
// legal and simply skips that job; any other API error fails the test.
func runTortureLifetime(t *testing.T, dir string, vfs fault.FS) (accepted []string) {
	t.Helper()
	var (
		hold    atomic.Bool
		once    sync.Once
		midRun  = make(chan struct{})
		release = make(chan struct{})
	)
	svc, err := New(Config{
		DataDir:       dir,
		Workers:       1,
		progressEvery: time.Millisecond,
		BuildPlatform: loopPlatform(t, 0x3),
		fs:            vfs,
		// Once hold is set, the job that runs waits at its first saved
		// halt state until the drain has begun.
		tuneConfig: func(_ string, cc *core.Config) {
			if hold.Load() {
				cc.OnHalt = func(int, vvp.State) {
					once.Do(func() {
						close(midRun)
						<-release
					})
				}
			}
		},
	})
	if err != nil {
		// The injected fault killed the store open itself — a legal
		// crash-point; nothing was accepted, nothing can be lost.
		return nil
	}
	defer svc.Drain()
	submit := func(bench string) bool {
		view, err := svc.Submit(JobSpec{Design: "dr5", Bench: bench, Workers: 1})
		if err != nil {
			if errors.Is(err, ErrDegraded) || errors.Is(err, ErrQueueFull) {
				return false
			}
			t.Fatalf("submit %s: %v", bench, err)
		}
		accepted = append(accepted, view.ID)
		return true
	}
	for _, bench := range []string{"a", "b", "a"} {
		submit(bench)
	}
	// The in-memory lifecycle completes even when every store write
	// fails, so accepted jobs always settle.
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range accepted {
		for {
			v, err := svc.Job(id)
			if err != nil {
				t.Fatal(err)
			}
			if terminal(v.State) {
				break
			}
			if !time.Now().Before(deadline) {
				t.Fatalf("job %s stuck in %s under fault", id, v.State)
			}
			time.Sleep(time.Millisecond)
		}
	}
	hold.Store(true)
	if submit("drained") {
		select {
		case <-midRun:
		case <-time.After(30 * time.Second):
			t.Fatal("the job to drain never reached a halt state")
		}
	}
	svc.beginDrain()
	close(release)
	return accepted
}

// verifyRestartConsistency restarts over dir and asserts the post-crash
// invariants: the store opens, no temp litter survives the reap, every
// accepted job is still known (queued/repaired jobs re-run to done), and
// every done job serves a valid JSON result.
//
// The reap is checked on a bare openStore, before any daemon runs: a live
// worker re-running an interrupted job writes its own records through
// CreateTemp → Rename, and a directory listing taken meanwhile would
// report those short-lived temp files as orphans.
func verifyRestartConsistency(t *testing.T, dir string, accepted []string) {
	t.Helper()
	_, _, reapErrs, err := openStore(dir, nil)
	if err != nil {
		t.Fatalf("open crashed store: %v", err)
	}
	if len(reapErrs) != 0 {
		t.Errorf("reap errors on the crashed store: %v", reapErrs)
	}
	for _, sub := range storeDirs {
		if n := countTempFiles(t, filepath.Join(dir, sub)); n != 0 {
			t.Errorf("%d orphan temp file(s) survived the reap in %s/", n, sub)
		}
	}

	svc, err := New(Config{
		DataDir:       dir,
		Workers:       1,
		progressEvery: time.Millisecond,
		BuildPlatform: loopPlatform(t, 0x3),
	})
	if err != nil {
		t.Fatalf("restart over crashed store: %v", err)
	}
	defer svc.Drain()

	known := make(map[string]JobView)
	for _, v := range svc.Jobs() {
		known[v.ID] = v
	}
	for _, id := range accepted {
		if _, ok := known[id]; !ok {
			t.Errorf("accepted job %s lost across restart", id)
		}
	}
	// A record persisted as done must have its result intact (the store
	// writes result before record); interrupted jobs re-run to done.
	for _, v := range svc.Jobs() {
		switch v.State {
		case StateDone:
			assertValidResult(t, svc, v.ID)
		case StateQueued, StateRunning:
			waitState(t, svc, v.ID, StateDone)
			assertValidResult(t, svc, v.ID)
		default:
			t.Errorf("job %s in unexpected post-restart state %s (%s)", v.ID, v.State, v.Error)
		}
	}
}

func assertValidResult(t *testing.T, svc *Service, id string) {
	t.Helper()
	data, err := svc.Result(id)
	if err != nil {
		t.Errorf("result of done job %s: %v", id, err)
		return
	}
	sum := &ResultSummary{}
	if err := json.Unmarshal(data, sum); err != nil {
		t.Errorf("result of done job %s is not valid JSON: %v", id, err)
	}
}

// TestStoreCrashPointSweep is the torture matrix: learn the store's
// operation count M from a fault-free probe, then for every k in 1..M run
// the same workload with a hard crash at operation k and assert the
// restart invariants.
func TestStoreCrashPointSweep(t *testing.T) {
	probe := fault.NewInjector(nil, nil)
	probeDir := t.TempDir()
	accepted := runTortureLifetime(t, probeDir, probe)
	if len(accepted) != 4 {
		t.Fatalf("fault-free probe accepted %d jobs, want 4", len(accepted))
	}
	st, _, _, err := openStore(probeDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if recs, errs := st.loadJobs(); len(errs) != 0 || len(recs) != 4 || recs[3].State != StateQueued || recs[3].Started != 0 {
		t.Fatalf("after the probe's drain the store holds %+v (%v), want the last job queued and not started", recs, errs)
	}
	m := probe.Ops()
	if m < 20 {
		t.Fatalf("implausibly low store op count %d — did the VFS seam come unthreaded?", m)
	}
	if probe.Faults() != 0 {
		t.Fatalf("probe injected %d faults from an empty plan", probe.Faults())
	}
	t.Logf("torture sweep: %d store operations -> %d crash points", m, m)
	for k := 1; k <= m; k++ {
		k := k
		t.Run(fmt.Sprintf("crash@%d", k), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			inj := fault.NewInjector(nil, fault.CrashPlan(k))
			acc := runTortureLifetime(t, dir, inj)
			verifyRestartConsistency(t, dir, acc)
		})
	}
}

// TestStoreSeededFaultSweep drives the workload through deterministic
// seeded error plans (EIO, ENOSPC, torn writes, latency — no crash): the
// daemon must degrade rather than die, and the restart invariants must
// hold afterward. Fixed seeds keep CI reproducible; a failure names its
// seed.
func TestStoreSeededFaultSweep(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			inj := fault.NewInjector(nil, fault.PlanFromSeed(seed, 5, 12))
			acc := runTortureLifetime(t, dir, inj)
			verifyRestartConsistency(t, dir, acc)
		})
	}
}

// TestCrashBetweenCreateTempAndRenameReapsOrphan is the regression pin
// for the classic torn atomic write: the temp file exists, the rename
// never happened, the original record is intact, and the next open reaps
// the orphan.
func TestCrashBetweenCreateTempAndRenameReapsOrphan(t *testing.T) {
	dir := t.TempDir()
	clean, _, _, err := openStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord()
	if err := clean.saveJob(rec); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(clean.jobPath(rec.ID))
	if err != nil {
		t.Fatal(err)
	}

	// Crash exactly at the rename: CreateTemp, Write and Close succeed,
	// so a fully written temp file is stranded next to the intact record.
	plan := &fault.Plan{Rules: []fault.Rule{{Op: fault.OpRename, Nth: 1, Kind: fault.KindCrash}}}
	crashed, _, _, err := openStore(dir, fault.NewInjector(nil, plan))
	if err != nil {
		t.Fatal(err)
	}
	rec2 := sampleRecord()
	rec2.State = StateDone
	if err := crashed.saveJob(rec2); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("saveJob across crash = %v, want ErrCrashed", err)
	}
	tmps := countTempFiles(t, filepath.Join(dir, "jobs"))
	if tmps != 1 {
		t.Fatalf("stranded temp files = %d, want 1", tmps)
	}
	if after, err := os.ReadFile(clean.jobPath(rec.ID)); err != nil || string(after) != string(before) {
		t.Fatalf("original record damaged by torn overwrite: %v", err)
	}

	// Restart: the orphan is reaped, the record still decodes.
	st, reaped, reapErrs, err := openStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reapErrs) != 0 {
		t.Fatalf("reap errors: %v", reapErrs)
	}
	if reaped != 1 {
		t.Errorf("reaped = %d, want 1", reaped)
	}
	if countTempFiles(t, filepath.Join(dir, "jobs")) != 0 {
		t.Error("orphan temp file survived the reap")
	}
	recs, errs := st.loadJobs()
	if len(errs) != 0 || len(recs) != 1 || recs[0].ID != rec.ID || recs[0].State != rec.State {
		t.Errorf("loadJobs after reap = %+v, %v", recs, errs)
	}
}

func countTempFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			n++
		}
	}
	return n
}

// TestCorruptCacheEntryQuarantined: a truncated cache record counts as a
// miss, is quarantined to .corrupt, and is never served — on the store
// API and end to end through Submit.
func TestCorruptCacheEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := openStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.writeCache("k1", []byte(`{"ok":true`)); err != nil { // truncated JSON
		t.Fatal(err)
	}
	data, ok, ferr := st.readCache("k1")
	if ok || data != nil {
		t.Fatalf("corrupt cache entry served: %q", data)
	}
	if ferr == nil {
		t.Fatal("corrupt cache entry read reported no fault")
	}
	if _, err := os.Stat(st.cachePath("k1")); !os.IsNotExist(err) {
		t.Error("corrupt entry still at its cache path")
	}
	if _, err := os.Stat(st.cachePath("k1") + ".corrupt"); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
	// Quarantined means gone: the next lookup is a plain miss.
	if _, ok, ferr := st.readCache("k1"); ok || ferr != nil {
		t.Errorf("post-quarantine read = ok=%v err=%v, want plain miss", ok, ferr)
	}
}

// TestCorruptCacheEndToEnd corrupts the real cache entry a completed job
// wrote, then resubmits: the submission re-runs (no hit, no error) and
// the degraded-mode bookkeeping records the fault.
func TestCorruptCacheEndToEnd(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Design: "dr5", Bench: "loop", Workers: 1}
	svc, err := New(Config{
		DataDir:       dir,
		Workers:       1,
		progressEvery: time.Millisecond,
		BuildPlatform: loopPlatform(t, 0x3),
	})
	if err != nil {
		t.Fatal(err)
	}
	view, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, view.ID, StateDone)
	svc.Drain()

	// Truncate the cache entry mid-token: invalid JSON, like a torn write
	// that somehow reached its rename.
	cachePath := filepath.Join(dir, "cache", view.CacheKey+".json")
	data, err := os.ReadFile(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cachePath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(Config{
		DataDir: dir,
		// Own registry: the counter assertions below are about this
		// service alone.
		Metrics:       obs.NewRegistry(),
		Workers:       1,
		progressEvery: time.Millisecond,
		BuildPlatform: loopPlatform(t, 0x3),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	view2, err := svc2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if view2.Cached {
		t.Fatal("corrupt cache entry was served as a hit")
	}
	waitState(t, svc2, view2.ID, StateDone)
	assertValidResult(t, svc2, view2.ID)
	m := svc2.MetricsSnapshot()
	if m.StoreFaults == 0 {
		t.Errorf("corrupt cache entry not counted as a store fault: %+v", m)
	}
	if m.CacheHits != 0 {
		t.Errorf("cache hits = %d, want 0", m.CacheHits)
	}
	// The job re-ran and re-cached a complete result; the quarantine file
	// preserves the corrupt original.
	if _, err := os.Stat(cachePath + ".corrupt"); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
}

// TestSubmitRefusedWhileStoreDown: with the jobs directory failing every
// write, Submit must refuse with ErrDegraded (mapped to 503) rather than
// accept a job it could lose, and /healthz-visible state must flip to
// degraded — then recover on the next successful write.
func TestSubmitRefusedWhileStoreDown(t *testing.T) {
	dir := t.TempDir()
	// The first CreateTemp under jobs/ fails: the first submission's
	// record can't be written; the fault budget is then spent.
	plan := &fault.Plan{Rules: []fault.Rule{{Op: fault.OpCreateTemp, Match: "jobs", Nth: 1, Kind: fault.KindEIO}}}
	svc, err := New(Config{
		DataDir:       dir,
		Workers:       1,
		progressEvery: time.Millisecond,
		BuildPlatform: loopPlatform(t, 0x3),
		fs:            fault.NewInjector(nil, plan),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if h := svc.Health(); h.Status != "ok" {
		t.Fatalf("initial health = %+v", h)
	}
	_, err = svc.Submit(JobSpec{Design: "dr5", Bench: "x", Workers: 1})
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("submit with store down = %v, want ErrDegraded", err)
	}
	if h := svc.Health(); h.Status != "degraded" || h.Reason == "" {
		t.Errorf("health while degraded = %+v", h)
	}
	m := svc.MetricsSnapshot()
	if !m.StoreDegraded || m.StoreFaults == 0 {
		t.Errorf("metrics while degraded = %+v", m)
	}

	// The fault rule is spent: the next submission's write succeeds, the
	// job is accepted and the service leaves degraded mode.
	view, err := svc.Submit(JobSpec{Design: "dr5", Bench: "x", Workers: 1})
	if err != nil {
		t.Fatalf("submit after store recovery: %v", err)
	}
	waitState(t, svc, view.ID, StateDone)
	if h := svc.Health(); h.Status != "ok" {
		t.Errorf("health after recovery = %+v", h)
	}
}
