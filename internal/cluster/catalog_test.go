package cluster

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"symsim/internal/obs"
)

// familyNames lists the metric families of reg's exposition, in its
// (sorted) order.
func familyNames(t *testing.T, reg *obs.Registry) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			names = append(names, name)
		}
	}
	return names
}

// catalogRun runs dr5/tHold on a one-worker fleet and returns it.
func catalogRun(t *testing.T) *testCluster {
	t.Helper()
	tc := startCluster(t, Config{}, 1)
	id, err := tc.coord.NewRun(RunSpec{Design: "dr5", Bench: "tHold"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := tc.coord.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	return tc
}

// The catalog of a coordinator's registry (DESIGN §10): its own series and
// those of the core runs it hosts. A new series is added here, deliberately,
// along with the test or benchmark metric that reads it.
func TestCoordinatorMetricsCatalog(t *testing.T) {
	tc := catalogRun(t)
	want := []string{
		"symsim_budget_trips_total",
		"symsim_cluster_duplicate_reports_total",
		"symsim_cluster_frontier_depth",
		"symsim_cluster_heartbeats_total",
		"symsim_cluster_lease_expiries_total",
		"symsim_cluster_rpcs_total",
		"symsim_cluster_runs_active",
		"symsim_cluster_runs_done_total",
		"symsim_cluster_runs_failed_total",
		"symsim_cluster_runs_total",
		"symsim_cluster_stale_rpcs_total",
		"symsim_cluster_units_inflight",
		"symsim_cluster_units_leased_total",
		"symsim_cluster_units_requeued_total",
		"symsim_cluster_units_retired_total",
		"symsim_csm_decisions_total",
		"symsim_csm_pruned_forks_total",
		"symsim_csm_x_gained_bits_total",
		"symsim_cycles_total",
		"symsim_paths_total",
		"symsim_quarantines_total",
		"symsim_runs_complete_total",
		"symsim_runs_total",
		"symsim_segment_cycles",
		"symsim_vvp_gate_evals_total",
		"symsim_vvp_kernel_sweeps_total",
		"symsim_vvp_lane_occupancy",
	}
	if got := familyNames(t, tc.coord.cfg.Metrics); !reflect.DeepEqual(got, want) {
		t.Errorf("coordinator families:\n got %q\nwant %q", got, want)
	}
}

// The catalog of a worker's registry: its own series and the lane occupancy
// of the explorers it drives.
func TestWorkerMetricsCatalog(t *testing.T) {
	tc := catalogRun(t)
	want := []string{
		"symsim_cluster_worker_heartbeats_total",
		"symsim_cluster_worker_lease_empty_total",
		"symsim_cluster_worker_rpc_errors_total",
		"symsim_cluster_worker_units_failed_total",
		"symsim_cluster_worker_units_reported_total",
		"symsim_cluster_worker_units_stale_total",
		"symsim_vvp_lane_occupancy",
	}
	if got := familyNames(t, tc.workers[0].Metrics); !reflect.DeepEqual(got, want) {
		t.Errorf("worker families:\n got %q\nwant %q", got, want)
	}
}
