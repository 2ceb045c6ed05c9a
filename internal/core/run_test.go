package core_test

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"symsim/internal/core"
	"symsim/internal/vvp"
)

// handSource drives an opened run from outside it, the way a cluster worker
// does but without the network: a core.Source over *core.Run. After
// stopAfter settles (0 = never) it plays a driver that vanishes: it admits
// one more segment, abandons it unsettled, and cancels the run.
type handSource struct {
	t         *testing.T
	run       *core.Run
	stopAfter int
	cancel    context.CancelFunc

	mu      sync.Mutex
	settled int
	gone    bool
}

func (s *handSource) Admit() (int, []byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone {
		return 0, nil, false
	}
	id, work, ok := s.run.Admit()
	if ok && s.stopAfter > 0 && s.settled >= s.stopAfter {
		s.gone = true
		s.cancel()
		return 0, nil, false
	}
	return id, work, ok
}

func (s *handSource) Settle(id int, outcome []byte) {
	err := s.run.Settle(id, outcome)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settled++
	// Once the run is canceled it may take a lane's segment back before
	// the explorer gets to settle it; until then every settle must land.
	if err != nil && !s.gone {
		s.t.Errorf("settle path %d: %v", id, err)
	}
}

func (s *handSource) Stopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gone
}

func (s *handSource) Advance(uint64) {}

// TestOpenedRunDrivenByHandWithCheckpoint is the pairing a remote CSM used
// to exclude: a run whose drivers live outside it, checkpointed. It is
// opened without explorers and driven through Admit/Settle from test
// goroutines with Config.Checkpoint set; the driver vanishes mid-run with a
// segment in flight; a second hand-driven run resumes from the checkpoint
// and must reach the uninterrupted tie-offs byte for byte.
func TestOpenedRunDrivenByHandWithCheckpoint(t *testing.T) {
	full, err := core.Analyze(buildLoop(t, 0xF), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	forEngine(t, func(t *testing.T, eng vvp.Engine) {
		ck := t.TempDir() + "/run.ckpt"
		drive := func(cfg core.Config, stopAfter, drivers int) *core.Result {
			t.Helper()
			p := buildLoop(t, 0xF)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg.Engine = eng
			cfg.Checkpoint = &core.CheckpointConfig{Path: ck}
			run, err := core.Open(ctx, p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			src := &handSource{t: t, run: run, stopAfter: stopAfter, cancel: cancel}
			var wg sync.WaitGroup
			for d := 0; d < drivers; d++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := core.Explore(p, core.Config{Engine: eng}, src); err != nil {
						t.Error(err)
					}
				}()
			}
			res, err := run.Wait()
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}

		killed := drive(core.Config{}, 3, 1)
		if killed.Complete || killed.Degradation.Trip != core.TripCanceled {
			t.Fatalf("abandoned run: complete=%v degradation=%+v", killed.Complete, killed.Degradation)
		}
		// The abandoned segment was put back: it is pending, not lost.
		if killed.Degradation.PendingPaths == 0 {
			t.Error("abandoned in-flight segment is not among the pending paths")
		}
		checkAccounting(t, "killed", killed)

		ckpt, err := core.LoadCheckpoint(ck)
		if err != nil {
			t.Fatal(err)
		}
		if len(ckpt.Pending) != killed.Degradation.PendingPaths {
			t.Fatalf("final checkpoint has %d pending paths, the run reported %d", len(ckpt.Pending), killed.Degradation.PendingPaths)
		}
		resumed := drive(core.Config{Resume: ckpt}, 0, 2)
		if !resumed.Complete {
			t.Fatalf("resumed run did not complete: %+v", resumed.Degradation)
		}
		if resumed.ExercisableCount != full.ExercisableCount {
			t.Errorf("resumed exercisable = %d, uninterrupted = %d", resumed.ExercisableCount, full.ExercisableCount)
		}
		if !tieOffsEqual(resumed.TieOffs(), full.TieOffs()) {
			t.Error("resumed tie-off list differs from the uninterrupted run's")
		}
	})
}

// TestRunPutBackKeepsPathID pins what a lapsed lease relies on: a segment
// put back unsettled is the same segment — same path ID, same work — when
// it is admitted again, and it can no longer be settled in between.
func TestRunPutBackKeepsPathID(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	run, err := core.Open(ctx, buildLoop(t, 0x3), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	id, work, ok := run.Admit()
	if !ok {
		t.Fatal("fresh run admits nothing")
	}
	if _, _, ok := run.Admit(); ok {
		t.Fatal("a fresh run holds one entry, the cold boot; a second was admitted")
	}
	if pr := run.Progress(); pr.PathsInFlight != 1 || pr.PathsPending != 0 {
		t.Errorf("progress after admit: %+v", pr)
	}
	if !run.PutBack(id) || run.PutBack(id) {
		t.Error("PutBack must succeed exactly once per admission")
	}
	if err := run.Settle(id, nil); err == nil {
		t.Error("settled a segment that is not in flight")
	}
	id2, work2, ok := run.Admit()
	if !ok || id2 != id || !bytes.Equal(work2, work) {
		t.Errorf("readmitted as path %d (ok=%v), want path %d with identical work", id2, ok, id)
	}
	cancel()
	res, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete || res.Degradation.PendingPaths != 1 || res.PathsCreated != 1 {
		t.Errorf("canceled run: complete=%v created=%d degradation=%+v", res.Complete, res.PathsCreated, res.Degradation)
	}
}

// TestAdmitThatExhaustsTheRunWakesWait: when the entries left on the
// frontier are all superseded, it is an Admit — not a Settle — that makes
// the run exhausted, by dropping them. Wait must notice. (A fleet run hung
// here: its last report's settle woke Wait while the superseded entries
// were still on the frontier, and the admit that then dropped them woke
// nobody.)
func TestAdmitThatExhaustsTheRunWakesWait(t *testing.T) {
	run, err := core.Open(context.Background(), buildLoop(t, 0x3), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	core.StrandSuperseded(run)
	done := make(chan *core.Result)
	go func() {
		res, err := run.Wait()
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case <-done:
		t.Fatal("Wait returned with an entry still on the frontier")
	case <-time.After(50 * time.Millisecond):
	}
	if _, _, ok := run.Admit(); ok {
		t.Fatal("the superseded entry was admitted")
	}
	select {
	case res := <-done:
		if !res.Complete || res.PathsSuperseded != 1 {
			t.Errorf("complete=%v superseded=%d, want a complete run that dropped 1 entry", res.Complete, res.PathsSuperseded)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait slept through the admit that exhausted the run")
	}
}
