package cliflags_test

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"testing"

	"symsim/internal/cliflags"
	"symsim/internal/cluster"
	"symsim/internal/obs"
	"symsim/internal/service"
)

// TestOneVocabulary drives under- and mis-specified requests through the
// two doors an analysis can come in by — the flags of cmd/symsim
// (Register → Normalize/Config) and POST /jobs (Service.Submit, on a
// service, which takes no defaults of its own) — and through the fleet
// library's Coordinator.NewRun, and requires one answer: the same
// normalized spec, echoed alike by the job view and the run status, or a
// rejection from all three. A body is decoded as the HTTP door decodes it,
// so a field the spec no longer has or no longer reads — an older client's
// engine, lane count or worker count — is ignored there, and the flags
// cannot say it (TestBatchEngineFlags).
func TestOneVocabulary(t *testing.T) {
	svc, err := service.New(service.Config{DataDir: t.TempDir(), Workers: 1, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	coord := cluster.NewCoordinator(cluster.Config{Metrics: obs.NewRegistry()})
	defer coord.Close()

	base := cliflags.Spec{Design: "dr5", Bench: "tea8", Policy: "merge-all"}
	with := func(edit func(*cliflags.Spec)) *cliflags.Spec {
		s := base
		edit(&s)
		return &s
	}
	for _, tc := range []struct {
		name string
		args []string // the request as symsim flags
		body string   // the same request as a JSON body (design/bench added below)
		want *cliflags.Spec
	}{
		{"nothing said", nil, `{}`, &base},
		{"clustered without k", []string{"-policy", "clustered"}, `{"policy":"clustered"}`,
			with(func(s *cliflags.Spec) { s.Policy, s.K = "clustered", 4 })},
		{"exact without maxStates", []string{"-policy", "exact"}, `{"policy":"exact"}`,
			with(func(s *cliflags.Spec) { s.Policy, s.MaxStates = "exact", 4096 })},
		{"merge-all with stray k", []string{"-k", "9", "-max-states", "77"}, `{"policy":"merge-all","k":9,"maxStates":77}`, &base},
		{"clustered with stray maxStates", []string{"-policy", "clustered", "-k", "2", "-max-states", "77"}, `{"policy":"clustered","k":2,"maxStates":77}`,
			with(func(s *cliflags.Spec) { s.Policy, s.K = "clustered", 2 })},
		// An older client's engine and lane count, including values its
		// daemon refused, mean the analysis without them.
		{"batch with lanes", nil, `{"engine":"batch","lanes":8}`, &base},
		{"negative k", []string{"-policy", "clustered", "-k", "-1"}, `{"policy":"clustered","k":-1}`, nil},
		{"negative maxStates", []string{"-policy", "exact", "-max-states", "-5"}, `{"policy":"exact","maxStates":-5}`, nil},
		{"lanes over the cap", nil, `{"lanes":65}`, &base},
		{"unknown engine", nil, `{"engine":"warp"}`, &base},
		{"the interpreter", nil, `{"engine":"interp"}`, &base},
		// A worker count, which the fleet refused above one and every door
		// refused below zero, means the analysis without it.
		{"two workers", nil, `{"workers":2}`, &base},
		{"negative workers", nil, `{"workers":-1}`, &base},
		{"unknown policy", []string{"-policy", "bogus"}, `{"policy":"bogus"}`, nil},
		{"constrained without its file", []string{"-policy", "constrained"}, `{"policy":"constrained"}`, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("symsim", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			a := cliflags.Register(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			a.Design, a.Bench = base.Design, base.Bench
			var spec cliflags.Spec
			if err := json.Unmarshal([]byte(tc.body), &spec); err != nil {
				t.Fatal(err)
			}
			spec.Design, spec.Bench = base.Design, base.Bench

			_, flagErr := a.Config(nil)
			view, jobErr := svc.Submit(spec)
			if jobErr == nil {
				// Only the spec is wanted; the analysis need not run.
				if err := svc.Cancel(view.ID); err != nil && !errors.Is(err, service.ErrJobFinished) {
					t.Error(err)
				}
			}
			id, runErr := coord.NewRun(spec)

			if tc.want == nil {
				var bad *service.BadSpecError
				if flagErr == nil || !errors.As(jobErr, &bad) || !errors.Is(runErr, cluster.ErrBadPayload) {
					t.Fatalf("want a rejection from all three, got flags: %v, /jobs: %v, NewRun: %v", flagErr, jobErr, runErr)
				}
				return
			}
			if flagErr != nil || jobErr != nil || runErr != nil {
				t.Fatalf("want all three to accept, got flags: %v, /jobs: %v, NewRun: %v", flagErr, jobErr, runErr)
			}
			fromFlags, err := a.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			st, err := coord.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if fromFlags != *tc.want || view.Spec != *tc.want || st.Spec != *tc.want {
				t.Errorf("normalized spec\n flags  %+v\n /jobs  %+v\n NewRun %+v\n want   %+v", fromFlags, view.Spec, st.Spec, *tc.want)
			}
		})
	}
}
