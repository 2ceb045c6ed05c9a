package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"symsim/internal/core"
	"symsim/internal/cpu/dr5"
	"symsim/internal/isa/rv32"
	"symsim/internal/obs"
	"symsim/internal/report"
	"symsim/internal/vvp"
)

// buildLoop assembles the X-bounded counter loop on a fresh dr5 platform —
// the canonical multi-path benchmark (one fork per possible trip count
// until the CSM merges). mask bounds the trip count.
func buildLoop(t *testing.T, mask int) *core.Platform {
	t.Helper()
	a := rv32.NewAsm()
	a.XWord(0)
	a.LW(rv32.T0, rv32.X0, 0)
	a.ANDI(rv32.T0, rv32.T0, int32(mask))
	a.LI(rv32.T1, 0)
	a.Label("loop")
	a.ADDI(rv32.T1, rv32.T1, 1)
	a.ADDI(rv32.T0, rv32.T0, -1)
	a.BNE(rv32.T0, rv32.X0, "loop")
	a.SW(rv32.T1, rv32.X0, 4)
	a.Halt()
	img, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	p, err := dr5.Build(img)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// loopPlatform adapts buildLoop to the service's buildPlatform seam. A
// fresh platform is built per call, like the real report.BuildPlatform.
func loopPlatform(t *testing.T, mask int) func(design, bench string) (*core.Platform, error) {
	return func(design, bench string) (*core.Platform, error) {
		if design != "dr5" {
			return nil, fmt.Errorf("unknown design %q", design)
		}
		return buildLoop(t, mask), nil
	}
}

func waitState(t *testing.T, s *Service, id string, want State) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == want {
			return v
		}
		if v.State.Terminal() && v.State != want {
			t.Fatalf("job %s settled as %s (error %q), want %s", id, v.State, v.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobView{}
}

// TestServiceEndToEndHTTP drives the full HTTP surface: submit a job, read
// at least one progress heartbeat off its SSE stream, fetch the result,
// then resubmit the identical spec and watch it come back instantly from
// the content-addressed cache without a single new simulated cycle.
func TestServiceEndToEndHTTP(t *testing.T) {
	gate := make(chan struct{})
	svc, err := New(Config{
		DataDir:       t.TempDir(),
		Workers:       1,
		progressEvery: time.Millisecond,
		buildPlatform: loopPlatform(t, 0x7),
		// Own registry: the Prometheus assertions below count this
		// service's jobs only, not everything else in the test binary.
		Metrics:    obs.NewRegistry(),
		tuneConfig: func(string, *core.Config) { <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}

	spec := `{"design":"dr5","bench":"loop"}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %s", resp.Status)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.DesignHash == "" || view.CacheKey == "" {
		t.Errorf("submit view missing hash/key: %+v", view)
	}

	// Attach to the event stream while the analysis is gated, so no
	// heartbeat can be missed, then let the job run.
	events, err := http.Get(ts.URL + "/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	if ct := events.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	close(gate)

	var progressEvents int
	var final State
	sc := bufio.NewScanner(events.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		switch ev.Type {
		case "progress":
			progressEvents++
			if ev.Progress == nil {
				t.Error("progress event without payload")
			}
		case "state":
			if ev.State.Terminal() {
				final = ev.State
			}
		}
		if final != "" {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if progressEvents < 1 {
		t.Errorf("streamed %d progress events, want >= 1", progressEvents)
	}
	if final != StateDone {
		t.Fatalf("job ended %s, want done", final)
	}

	res1, err := http.Get(ts.URL + "/jobs/" + view.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body1, sum1 := readSummary(t, res1)
	if !sum1.Complete {
		t.Error("first run not complete")
	}
	if len(sum1.TieOffs) == 0 {
		t.Error("no tie-offs in result")
	}

	before := svc.MetricsSnapshot()

	// Identical resubmission: served from the cache, done immediately,
	// byte-identical result, zero new analysis work.
	resp2, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var view2 JobView
	if err := json.NewDecoder(resp2.Body).Decode(&view2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if !view2.Cached || view2.State != StateDone {
		t.Errorf("resubmission not served from cache: %+v", view2)
	}
	if view2.CacheKey != view.CacheKey {
		t.Errorf("cache keys differ across identical submissions")
	}
	res2, err := http.Get(ts.URL + "/jobs/" + view2.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := readSummary(t, res2)
	if !bytes.Equal(body1, body2) {
		t.Error("cached result differs from original")
	}

	after := svc.MetricsSnapshot()
	if after.CacheHits != before.CacheHits+1 {
		t.Errorf("cache hits %d -> %d, want +1", before.CacheHits, after.CacheHits)
	}
	if after.SimulatedCycles != before.SimulatedCycles || after.BusySeconds != before.BusySeconds {
		t.Errorf("cache hit burned analysis cycles: %d cycles in %gs -> %d in %gs",
			before.SimulatedCycles, before.BusySeconds, after.SimulatedCycles, after.BusySeconds)
	}
	if after.CacheHitRate <= 0 {
		t.Errorf("cache hit rate = %v", after.CacheHitRate)
	}

	// JSON metrics endpoint serves the same snapshot.
	mresp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if m.Accepted != 2 || m.CacheHits != 1 {
		t.Errorf("metrics = %+v", m)
	}

	// /metrics serves Prometheus text exposition fed by every layer.
	presp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := presp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prometheus content type = %q", ct)
	}
	var pbuf bytes.Buffer
	if _, err := pbuf.ReadFrom(presp.Body); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	expo := pbuf.String()
	for _, want := range []string{
		"# TYPE symsim_service_jobs_accepted_total counter",
		"symsim_service_jobs_accepted_total 2",
		"symsim_service_cache_hits_total 1",
		"symsim_service_jobs_done_total 1",
		"symsim_service_queue_depth 0",
		"symsim_runs_complete_total 1",
		"symsim_csm_decisions_total",
		"symsim_vvp_gate_evals_total",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}

	// CPU attribution: the executed job reports busy time, the cache hit
	// reports none of its own.
	jresp, err := http.Get(ts.URL + "/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	var jv JobView
	if err := json.NewDecoder(jresp.Body).Decode(&jv); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	if jv.CPUSeconds <= 0 {
		t.Errorf("executed job CPUSeconds = %v, want > 0", jv.CPUSeconds)
	}

	// Unknown-job and not-done error mapping.
	if resp, _ := http.Get(ts.URL + "/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %s", resp.Status)
	}
}

func readSummary(t *testing.T, resp *http.Response) ([]byte, *ResultSummary) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %s", resp.Status)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	sum := &ResultSummary{}
	if err := json.Unmarshal(buf.Bytes(), sum); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sum
}

// TestDrainRequeuesAndRestartRunsFromColdBoot is the recovery acceptance
// path: a drain interrupts a running job mid-flight, the job goes back to
// the queue as one that has not started, and a fresh Service over the same
// data directory runs it again to completion — with tie-offs byte-identical
// to an uninterrupted run, and no checkpoint directory in the store.
func TestDrainRequeuesAndRestartRunsFromColdBoot(t *testing.T) {
	const mask = 0x7
	spec := JobSpec{Design: "dr5", Bench: "loop"}

	// Uninterrupted reference run.
	refRes, err := core.Analyze(buildLoop(t, mask), core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !refRes.Complete {
		t.Fatal("reference run incomplete")
	}
	normSpec, err := normalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	refTieOffs, err := json.Marshal(report.Summarize(normSpec.Design, normSpec.Bench, refRes).TieOffs)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	midRun := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc1, err := New(Config{
		DataDir:       dir,
		Workers:       1,
		progressEvery: time.Millisecond,
		buildPlatform: loopPlatform(t, mask),
		// Block the path worker at its first saved halt state, so the
		// drain deterministically lands mid-exploration.
		tuneConfig: func(id string, cc *core.Config) {
			cc.OnHalt = func(int, vvp.State) {
				once.Do(func() {
					close(midRun)
					<-release
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	view, err := svc1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	<-midRun
	svc1.beginDrain()
	close(release)
	svc1.waitIdle()

	if _, err := svc1.Submit(spec); !errors.Is(err, ErrDraining) {
		t.Errorf("submit while draining = %v, want ErrDraining", err)
	}
	v, err := svc1.Job(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateQueued || v.Started != 0 {
		t.Fatalf("drained job: state %s, started %d; want queued and not started", v.State, v.Started)
	}

	// Restart over the same data directory: the job is recovered from the
	// durable store and runs again from cold boot to completion.
	svc2, err := New(Config{
		DataDir:       dir,
		Metrics:       obs.NewRegistry(),
		Workers:       1,
		progressEvery: time.Millisecond,
		buildPlatform: loopPlatform(t, mask),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()

	waitState(t, svc2, view.ID, StateDone)
	data, err := svc2.Result(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Complete bool            `json:"complete"`
		TieOffs  json.RawMessage `json:"tieOffs"`
	}
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Complete {
		t.Error("restarted run did not complete")
	}
	if !bytes.Equal(sum.TieOffs, refTieOffs) {
		t.Errorf("restarted tie-offs differ from uninterrupted run:\n restarted %s\n reference %s", sum.TieOffs, refTieOffs)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt")); !os.IsNotExist(err) {
		t.Errorf("the data directory has a ckpt/ entry (stat: %v)", err)
	}
}

// TestBackpressureAndCancel exercises the bounded queue (ErrQueueFull at
// capacity, recovered jobs exempt) and both cancellation paths: a queued
// job is withdrawn, a running job's analysis context is canceled and the
// job settles as canceled.
func TestBackpressureAndCancel(t *testing.T) {
	gate := make(chan struct{})
	svc, err := New(Config{
		DataDir:       t.TempDir(),
		Workers:       1,
		QueueCap:      1,
		progressEvery: time.Millisecond,
		buildPlatform: loopPlatform(t, 0x3),
		tuneConfig:    func(string, *core.Config) { <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	running, err := svc.Submit(JobSpec{Design: "dr5", Bench: "a"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, running.ID, StateRunning)

	queued, err := svc.Submit(JobSpec{Design: "dr5", Bench: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(JobSpec{Design: "dr5", Bench: "c"}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("submit over capacity = %v, want ErrQueueFull", err)
	}

	// Withdraw the queued job before it runs.
	if err := svc.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if v, _ := svc.Job(queued.ID); v.State != StateCanceled {
		t.Errorf("queued job after cancel = %s, want canceled", v.State)
	}

	// Cancel the running job: its context is canceled while the analysis
	// is gated; once released it settles as canceled, not done.
	if err := svc.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitState(t, svc, running.ID, StateCanceled)
	if err := svc.Cancel(running.ID); !errors.Is(err, ErrJobFinished) {
		t.Errorf("cancel after finish = %v, want ErrJobFinished", err)
	}
	if _, err := svc.Result(running.ID); !errors.Is(err, ErrNotDone) {
		t.Errorf("result of canceled job = %v, want ErrNotDone", err)
	}
}

// TestDegradedResultIsServedButNotCached submits a job with a fork budget
// it must trip; the degraded (sound, over-approximate) result is stored
// and served, but an identical resubmission re-runs instead of hitting the
// cache — degradation must never be frozen into the content cache.
func TestDegradedResultIsServedButNotCached(t *testing.T) {
	svc, err := New(Config{
		DataDir: t.TempDir(),
		// Own registry: the counter assertions below are about this
		// service alone.
		Metrics:       obs.NewRegistry(),
		Workers:       1,
		progressEvery: time.Millisecond,
		buildPlatform: loopPlatform(t, 0xF),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	spec := JobSpec{Design: "dr5", Bench: "loop", MaxForks: 2}
	view, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, view.ID, StateDone)
	data, err := svc.Result(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	sum := &ResultSummary{}
	if err := json.Unmarshal(data, sum); err != nil {
		t.Fatal(err)
	}
	if sum.Complete {
		t.Fatal("fork-budgeted run completed; budget did not trip")
	}
	if sum.Degradation == nil || sum.Degradation.Trip != core.TripForks.String() {
		t.Errorf("degradation = %+v, want fork trip", sum.Degradation)
	}

	view2, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if view2.Cached {
		t.Error("degraded result was served from cache")
	}
	waitState(t, svc, view2.ID, StateDone)
	if m := svc.MetricsSnapshot(); m.Degraded != 2 || m.CacheHits != 0 {
		t.Errorf("metrics = degraded %d cacheHits %d, want 2 and 0", m.Degraded, m.CacheHits)
	}
}

// TestIdenticalSubmissionsEachRun: one worker, a gated first job, and the
// same spec submitted twice more while it runs. Each duplicate is queued
// like any other job, and the one left queued runs once the gate opens: it is not served from the cache
// and its bytes equal the first job's. A canceled duplicate leaves the
// queue. Only a submission after a finished analysis is a cache hit.
func TestIdenticalSubmissionsEachRun(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	svc, err := New(Config{
		DataDir:       t.TempDir(),
		Workers:       1,
		progressEvery: time.Millisecond,
		buildPlatform: loopPlatform(t, 0x7),
		Metrics:       obs.NewRegistry(),
		// Gate only the first analysis; the duplicate behind it runs free.
		tuneConfig: func(string, *core.Config) { gateOnce.Do(func() { <-gate }) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate) }) }
	defer release() // before Close: a failed check must not leave the worker gated

	spec := JobSpec{Design: "dr5", Bench: "loop"}
	submit := func() JobView {
		t.Helper()
		v, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	first := submit()
	waitState(t, svc, first.ID, StateRunning)
	second, third := submit(), submit()
	for _, v := range []JobView{second, third} {
		if v.State != StateQueued || v.Cached {
			t.Fatalf("duplicate not queued: %+v", v)
		}
	}
	if d := svc.MetricsSnapshot().QueueDepth; d != 2 {
		t.Fatalf("queue depth = %d, want both duplicates in the queue", d)
	}

	if err := svc.Cancel(third.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, third.ID, StateCanceled)
	if d := svc.MetricsSnapshot().QueueDepth; d != 1 {
		t.Fatalf("queue depth after the cancel = %d, want 1", d)
	}

	release()
	var results [][]byte
	for _, v := range []JobView{first, second} {
		if done := waitState(t, svc, v.ID, StateDone); done.Cached {
			t.Errorf("job %s was served from the cache; it should have run", v.ID)
		}
		data, err := svc.Result(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, data)
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Error("two runs of one spec produced different results")
	}

	c := scrapeCounters(t, svc)
	for name, want := range map[string]uint64{"cache_misses": 3, "jobs_done": 2, "jobs_canceled": 1, "cache_hits": 0} {
		if got := c["symsim_service_"+name+"_total"]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if hit := submit(); !hit.Cached || hit.State != StateDone {
		t.Errorf("submission after a finished analysis = %+v, want a cache hit", hit)
	}
}
