package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"symsim/internal/cliflags"
	"symsim/internal/core"
	"symsim/internal/obs"
	"symsim/internal/report"
	"symsim/internal/vvp"
)

// testCluster is one in-process fleet: a coordinator behind a real HTTP
// server and n workers pulling from it over the wire — the full
// lease/report round-trip, nothing short-circuited.
type testCluster struct {
	coord   *Coordinator
	ts      *httptest.Server
	workers []*Worker
}

// startCluster spins the fleet up and registers its teardown on t.
func startCluster(t *testing.T, cfg Config, n int) *testCluster {
	t.Helper()
	return startClusterSlots(t, cfg, n, 1)
}

// startClusterSlots is startCluster with slots explorers per worker.
func startClusterSlots(t *testing.T, cfg Config, n, slots int) *testCluster {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	coord := NewCoordinator(cfg)
	ts := httptest.NewServer(coord.Handler())
	tc := &testCluster{coord: coord, ts: ts}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{
			Coordinator: ts.URL,
			Name:        fmt.Sprintf("w%d", i),
			Slots:       slots,
			Metrics:     obs.NewRegistry(),
			PollEvery:   10 * time.Millisecond,
		}
		tc.workers = append(tc.workers, w)
		wg.Add(1)
		go func() { defer wg.Done(); _ = w.Run(ctx) }()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		coord.Close()
		ts.Close()
	})
	return tc
}

// requireDichotomyEqual asserts the cluster result agrees with the
// single-node reference on everything the engine-equivalence contract
// guarantees: the exercisable set and the tie-off list. Path counts,
// cycles and CSM state counts may legally differ — merge order does —
// exactly as batch-vs-kernel may differ single-node; the dichotomy is a
// fixpoint of sound over-approximations and may not.
func requireDichotomyEqual(t *testing.T, got, want *core.Result) {
	t.Helper()
	if !got.Complete {
		t.Fatalf("cluster run degraded: %+v", got.Degradation)
	}
	if got.ExercisableCount != want.ExercisableCount {
		t.Errorf("exercisable count diverged: cluster %d vs single-node %d",
			got.ExercisableCount, want.ExercisableCount)
	}
	for gi := range want.ExercisableGates {
		if got.ExercisableGates[gi] != want.ExercisableGates[gi] {
			t.Fatalf("gate %d exercisability diverged", gi)
		}
	}
	to, tw := got.TieOffs(), want.TieOffs()
	if len(to) != len(tw) {
		t.Fatalf("tie-off counts diverged: cluster %d vs single-node %d", len(to), len(tw))
	}
	for i := range to {
		if to[i] != tw[i] {
			t.Fatalf("tie-off %d diverged: %+v vs %+v", i, to[i], tw[i])
		}
	}
}

// requireAccounted asserts the path accounting of a complete run: every
// created entry was simulated exactly once or dropped as superseded — the
// same invariant core's own tests hold a single-node run to.
func requireAccounted(t *testing.T, res *core.Result) {
	t.Helper()
	if res.PathsCreated != len(res.Paths)+res.PathsSuperseded {
		t.Errorf("path accounting violated: created %d, simulated %d, superseded %d",
			res.PathsCreated, len(res.Paths), res.PathsSuperseded)
	}
	for i, ps := range res.Paths {
		if ps.ID != i {
			t.Fatalf("path IDs not dense: Paths[%d].ID = %d (a segment settled twice or never)", i, ps.ID)
		}
	}
}

// TestClusterEquivalenceEndToEnd is the distributed differential check, in
// two legs. A 1-worker × 1-slot fleet is Algorithm 1's deterministic order
// with an HTTP round trip between the frontier and the simulator, so it
// must reproduce the kernel's pinned path and cycle counts of every Table-4
// cell exactly. A 3-worker fleet explores in whatever order the network
// gives it and must still reproduce the single-node dichotomy and tie-off
// lists exactly, on all three CPUs, under every policy the cluster
// accepts.
func TestClusterEquivalenceEndToEnd(t *testing.T) {
	t.Run("one-slot/table4-counts", func(t *testing.T) {
		b, err := os.ReadFile("../../testdata/table4_counts.json")
		if err != nil {
			t.Fatal(err)
		}
		var pinned []struct {
			Bench, Design                string
			Created, Skipped, Superseded int
			Cycles                       uint64
		}
		if err := json.Unmarshal(b, &pinned); err != nil {
			t.Fatal(err)
		}
		tc := startCluster(t, Config{}, 1)
		for _, want := range pinned {
			id, err := tc.coord.NewRun(RunSpec{Design: want.Design, Bench: want.Bench})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			got, err := tc.coord.Wait(ctx, id)
			cancel()
			if err != nil {
				st, _ := tc.coord.Status(id)
				t.Fatalf("%s/%s: %v (status %+v)", want.Design, want.Bench, err, st)
			}
			if got.PathsCreated != want.Created || got.PathsSkipped != want.Skipped ||
				got.PathsSuperseded != want.Superseded || got.SimulatedCycles != want.Cycles {
				t.Errorf("%s/%s: fleet created/skipped/superseded/cycles = %d/%d/%d/%d, kernel pins %d/%d/%d/%d",
					want.Design, want.Bench, got.PathsCreated, got.PathsSkipped, got.PathsSuperseded, got.SimulatedCycles,
					want.Created, want.Skipped, want.Superseded, want.Cycles)
			}
			requireAccounted(t, got)
		}
	})

	tc := startCluster(t, Config{}, 3)
	for _, d := range []report.Design{report.BM32, report.OMSP430, report.DR5} {
		for _, v := range []struct {
			policy string
			k, max int
		}{
			{policy: "merge-all"},
			{policy: "clustered", k: 3},
			{policy: "exact", max: 64},
		} {
			t.Run(fmt.Sprintf("%s/%s", d, v.policy), func(t *testing.T) {
				p, err := report.BuildPlatform(d, "tHold")
				if err != nil {
					t.Fatal(err)
				}
				m, err := cliflags.NewPolicy(v.policy, v.k, v.max)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.Analyze(p, core.Config{
					Engine: vvp.EngineKernel, Policy: m, Metrics: obs.NewRegistry(),
				})
				if err != nil {
					t.Fatal(err)
				}

				id, err := tc.coord.NewRun(RunSpec{
					Design: string(d), Bench: "tHold",
					Policy: v.policy, K: v.k, MaxStates: v.max,
				})
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
				defer cancel()
				got, err := tc.coord.Wait(ctx, id)
				if err != nil {
					t.Fatal(err)
				}
				requireDichotomyEqual(t, got, want)
				requireAccounted(t, got)

				st, err := tc.coord.Status(id)
				if err != nil {
					t.Fatal(err)
				}
				if st.State != "done" || st.PathsPending != 0 || st.PathsInFlight != 0 || st.PathsDone != len(got.Paths) {
					t.Errorf("finished run's status disagrees with its result: %+v vs %d paths", st, len(got.Paths))
				}
			})
		}
	}
}

// TestClusterPolicySweep runs the non-default policies on a 2-worker fleet
// of two slots each — four explorers, two per worker, each holding one
// segment: clustered and exact runs must each match their single-node
// counterpart's dichotomy.
func TestClusterPolicySweep(t *testing.T) {
	tc := startClusterSlots(t, Config{}, 2, 2)
	for _, pc := range []struct {
		policy string
		k      int
		max    int
	}{
		{policy: "clustered", k: 3},
		{policy: "exact", max: 64},
	} {
		t.Run(pc.policy, func(t *testing.T) {
			p, err := report.BuildPlatform(report.DR5, "tHold")
			if err != nil {
				t.Fatal(err)
			}
			m, err := cliflags.NewPolicy(pc.policy, pc.k, pc.max)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Analyze(p, core.Config{
				Engine: vvp.EngineKernel, Policy: m, Metrics: obs.NewRegistry(),
			})
			if err != nil {
				t.Fatal(err)
			}

			id, err := tc.coord.NewRun(RunSpec{
				Design: "dr5", Bench: "tHold",
				Policy: pc.policy, K: pc.k, MaxStates: pc.max,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			got, err := tc.coord.Wait(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			requireDichotomyEqual(t, got, want)
			requireAccounted(t, got)
		})
	}
}

// TestClusterRejectsBadSpecs pins the validation surface of NewRun.
func TestClusterRejectsBadSpecs(t *testing.T) {
	coord := NewCoordinator(Config{Metrics: obs.NewRegistry()})
	defer coord.Close()
	for _, spec := range []RunSpec{
		{},                               // no design/bench
		{Design: "dr5"},                  // no bench
		{Design: "nope", Bench: "tHold"}, // unknown design
		{Design: "dr5", Bench: "tHold", Policy: "constrained"}, // needs local file
		{Design: "dr5", Bench: "tHold", Policy: "nope"},
	} {
		if _, err := coord.NewRun(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

// TestClusterRejectsConstrainedActionably pins the shape of the
// constrained-policy rejection: a 400-class ErrBadPayload whose message
// says WHY (the fact file and state spec are local) and what to do
// instead — not the generic unknown-policy error.
func TestClusterRejectsConstrainedActionably(t *testing.T) {
	coord := NewCoordinator(Config{Metrics: obs.NewRegistry()})
	defer coord.Close()
	_, err := coord.NewRun(RunSpec{Design: "dr5", Bench: "tHold", Policy: "constrained"})
	if !errors.Is(err, ErrBadPayload) {
		t.Fatalf("err = %v, want ErrBadPayload", err)
	}
	msg := err.Error()
	if strings.Contains(msg, "unknown policy") {
		t.Errorf("constrained rejected as unknown: %q", msg)
	}
	for _, want := range []string{"-constraints", "locally"} {
		if !strings.Contains(msg, want) {
			t.Errorf("rejection %q does not mention %q", msg, want)
		}
	}
}

// TestClusterRejectsWhatItCannotHonour: the run spec is the job spec, but a
// fleet carries no budgets. A field it would have to ignore is a 400 that
// names the field, not a silently different analysis. (A worker count is
// read by no door, so it is dropped here as everywhere: TestOneVocabulary.)
func TestClusterRejectsWhatItCannotHonour(t *testing.T) {
	coord := NewCoordinator(Config{Metrics: obs.NewRegistry()})
	defer coord.Close()
	for field, spec := range map[string]RunSpec{
		"deadlineMs":   {Design: "dr5", Bench: "tHold", DeadlineMS: 5000},
		"maxCycles":    {Design: "dr5", Bench: "tHold", MaxCycles: 1 << 20},
		"maxForks":     {Design: "dr5", Bench: "tHold", MaxForks: 10},
		"maxCsmStates": {Design: "dr5", Bench: "tHold", MaxCSMStates: 10},
	} {
		_, err := coord.NewRun(spec)
		if !errors.Is(err, ErrBadPayload) || !strings.Contains(err.Error(), field) {
			t.Errorf("%s set: err = %v, want ErrBadPayload naming the field", field, err)
		}
	}
}

// TestClusterRunOverHTTP pins the coordinator's HTTP surface: the worker
// RPCs and nothing else. The run-management routes a daemon once mounted —
// POST /cluster/runs, GET /cluster/runs/{id}, GET .../result — are gone (a
// run is opened with NewRun and collected with Wait), so they answer 404
// or 405, while a lease and a report sent to the handler are served and
// move the run.
func TestClusterRunOverHTTP(t *testing.T) {
	coord := NewCoordinator(Config{Metrics: obs.NewRegistry()})
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { coord.Close(); ts.Close() })
	id, err := coord.NewRun(RunSpec{Design: "dr5", Bench: "tHold"})
	if err != nil {
		t.Fatal(err)
	}

	for _, req := range []struct{ method, path string }{
		{http.MethodPost, "/cluster/runs"},
		{http.MethodGet, "/cluster/runs/" + id},
		{http.MethodGet, "/cluster/runs/" + id + "/result"},
	} {
		r, err := http.NewRequest(req.method, ts.URL+req.path, strings.NewReader(`{"design":"dr5","bench":"tHold"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %s, want 404 or 405", req.method, req.path, resp.Status)
		}
	}

	cc := newCoordClient(ts.URL)
	ls, ok, err := cc.lease()
	if err != nil || !ok || ls.RunID != id || len(ls.Segments) != 1 {
		t.Fatalf("lease over HTTP: ls=%+v ok=%v err=%v", ls, ok, err)
	}
	sg := ls.Segments[0]
	resp, err := cc.report(id, sg.ID, sg.Epoch, simulate(t, sg))
	if err != nil {
		t.Fatalf("report over HTTP: %v", err)
	}
	// dr5/tHold's cold-boot segment forks; the report's response leases one
	// child to the reporting slot.
	st, err := coord.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Segments) != 1 || st.PathsDone != 1 || st.PathsInFlight != 1 {
		t.Errorf("after one report: handed %d segments, status %+v; want 1 segment, 1 path done, 1 leased", len(resp.Segments), st)
	}
}

// TestClusterRunTracesLikeALocalOne pins what hosting core's own analysis
// buys the trace: a fleet run traced with Config.Tracer yields the same
// kind of trace a laptop run does — every CSM decision is logged against
// the path whose halt it classified (a remote CSM logged them all against
// -1; only a degradation drain may still do so, and a complete run has
// none), and the spans form one fork tree under the cold-boot path.
func TestClusterRunTracesLikeALocalOne(t *testing.T) {
	var buf bytes.Buffer
	tc := startCluster(t, Config{}, 2)
	tc.coord.tuneConfig = func(cc *core.Config) { cc.Tracer = obs.NewTracer(&buf) }
	id, err := tc.coord.NewRun(RunSpec{Design: "dr5", Bench: "tHold"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := tc.coord.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	log, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if log.Meta == nil || log.Done == nil || !log.Done.Complete || log.Done.PathsCreated != res.PathsCreated {
		t.Fatalf("trace is not bracketed by the run's meta and done records: %+v %+v", log.Meta, log.Done)
	}

	halted := 0
	simulated := make(map[int]bool)
	roots := 0
	for _, s := range log.Spans {
		if s.Parent == -1 {
			roots++
		}
		if s.End == obs.EndSuperseded {
			continue
		}
		if simulated[s.ID] {
			t.Errorf("path %d has two spans", s.ID)
		}
		simulated[s.ID] = true
		if s.End == core.EndForked.String() || s.End == core.EndSubsumed.String() {
			halted++
		}
	}
	if roots != 1 {
		t.Errorf("span tree has %d roots, want 1 (the cold-boot path)", roots)
	}
	if len(simulated) != len(res.Paths) {
		t.Errorf("%d simulated spans for %d paths", len(simulated), len(res.Paths))
	}
	for _, s := range log.Spans {
		if s.Parent != -1 && !simulated[s.Parent] {
			t.Errorf("span of path %d hangs off path %d, which has no span", s.ID, s.Parent)
		}
	}
	if len(log.Decisions) != halted {
		t.Errorf("%d CSM decisions for %d halted segments", len(log.Decisions), halted)
	}
	for _, d := range log.Decisions {
		if !simulated[d.Path] {
			t.Errorf("decision at pc %#x is logged against path %d, which no span simulated", d.PC, d.Path)
		}
	}
}
