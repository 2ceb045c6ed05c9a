package cliflags_test

import (
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
// three doors an analysis can come in by — the flags of cmd/symsim
// (Register → Normalize/Config), POST /jobs (Service.Submit, on a service
// with no daemon defaults) and POST /cluster/runs (Coordinator.NewRun) —
// and requires one answer: the same normalized spec, echoed alike by the
// job view and the run status, or a rejection from all three.
func TestOneVocabulary(t *testing.T) {
	svc, err := service.New(service.Config{DataDir: t.TempDir(), Workers: 1, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	coord := cluster.NewCoordinator(cluster.Config{Metrics: obs.NewRegistry()})
	defer coord.Close()

	base := cliflags.Spec{Design: "dr5", Bench: "tea8", Policy: "merge-all", Engine: "kernel", MemX: "verilog", Workers: 1}
	with := func(edit func(*cliflags.Spec)) *cliflags.Spec {
		s := base
		edit(&s)
		return &s
	}
	for _, tc := range []struct {
		name string
		args []string      // the request as symsim flags
		spec cliflags.Spec // the same request as a JSON body (design/bench added below)
		want *cliflags.Spec
	}{
		{"nothing said", nil, cliflags.Spec{}, &base},
		{"clustered without k", []string{"-policy", "clustered"}, cliflags.Spec{Policy: "clustered"},
			with(func(s *cliflags.Spec) { s.Policy, s.K = "clustered", 4 })},
		{"exact without maxStates", []string{"-policy", "exact"}, cliflags.Spec{Policy: "exact"},
			with(func(s *cliflags.Spec) { s.Policy, s.MaxStates = "exact", 4096 })},
		{"merge-all with stray k", []string{"-k", "9", "-max-states", "77"}, cliflags.Spec{Policy: "merge-all", K: 9, MaxStates: 77}, &base},
		{"clustered with stray maxStates", []string{"-policy", "clustered", "-k", "2", "-max-states", "77"}, cliflags.Spec{Policy: "clustered", K: 2, MaxStates: 77},
			with(func(s *cliflags.Spec) { s.Policy, s.K = "clustered", 2 })},
		{"batch with lanes", []string{"-engine", "batch", "-lanes", "8", "-memx", "sound"}, cliflags.Spec{Engine: "batch", Lanes: 8, MemX: "sound"},
			with(func(s *cliflags.Spec) { s.Engine, s.Lanes, s.MemX = "batch", 8, "sound" })},
		{"negative k", []string{"-policy", "clustered", "-k", "-1"}, cliflags.Spec{Policy: "clustered", K: -1}, nil},
		{"negative maxStates", []string{"-policy", "exact", "-max-states", "-5"}, cliflags.Spec{Policy: "exact", MaxStates: -5}, nil},
		{"lanes over the cap", []string{"-lanes", "65"}, cliflags.Spec{Lanes: 65}, nil},
		{"unknown engine", []string{"-engine", "warp"}, cliflags.Spec{Engine: "warp"}, nil},
		{"the interpreter", []string{"-engine", "interp"}, cliflags.Spec{Engine: "interp"}, nil},
		{"unknown memx", []string{"-memx", "maybe"}, cliflags.Spec{MemX: "maybe"}, nil},
		{"unknown policy", []string{"-policy", "bogus"}, cliflags.Spec{Policy: "bogus"}, nil},
		{"constrained without its file", []string{"-policy", "constrained"}, cliflags.Spec{Policy: "constrained"}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("symsim", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			a := cliflags.Register(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			a.Design, a.Bench = base.Design, base.Bench
			tc.spec.Design, tc.spec.Bench = base.Design, base.Bench

			_, flagErr := a.Config(nil)
			view, jobErr := svc.Submit(tc.spec)
			if jobErr == nil {
				// Only the spec is wanted; the analysis need not run.
				if err := svc.Cancel(view.ID); err != nil && !errors.Is(err, service.ErrJobFinished) {
					t.Error(err)
				}
			}
			id, runErr := coord.NewRun(tc.spec)

			if tc.want == nil {
				var bad *service.BadSpecError
				if flagErr == nil || !errors.As(jobErr, &bad) || !errors.Is(runErr, cluster.ErrBadPayload) {
					t.Fatalf("want a rejection at every door, got flags: %v, /jobs: %v, /cluster/runs: %v", flagErr, jobErr, runErr)
				}
				return
			}
			if flagErr != nil || jobErr != nil || runErr != nil {
				t.Fatalf("want every door open, got flags: %v, /jobs: %v, /cluster/runs: %v", flagErr, jobErr, runErr)
			}
			fromFlags, err := a.Normalize(nil)
			if err != nil {
				t.Fatal(err)
			}
			st, err := coord.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if fromFlags != *tc.want || view.Spec != *tc.want || st.Spec != *tc.want {
				t.Errorf("normalized spec\n flags         %+v\n /jobs         %+v\n /cluster/runs %+v\n want          %+v", fromFlags, view.Spec, st.Spec, *tc.want)
			}
		})
	}
}
