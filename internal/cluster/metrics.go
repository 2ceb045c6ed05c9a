package cluster

import (
	"symsim/internal/obs"
)

// Coordinator metrics. A counter is an atomic add, made where its event
// happens, under c.mu or not; the gauges are GaugeFuncs that take the
// mutex themselves when a scrape renders them (the registry calls them
// outside its own lock — TestScrapeWhileMutating). What the runs explore
// — paths, forks, CSM verdicts, cycles — is published by core into the
// same registry.
type coordMetrics struct {
	runs             *obs.Counter
	runsDone         *obs.Counter
	runsFailed       *obs.Counter
	leases           *obs.Counter
	settles          *obs.Counter
	requeues         *obs.Counter
	expiries         *obs.Counter
	heartbeats       *obs.Counter
	staleRPCs        *obs.Counter
	duplicateReports *obs.Counter
	rpcs             *obs.CounterVec
}

func newCoordMetrics(reg *obs.Registry, c *Coordinator) *coordMetrics {
	m := &coordMetrics{
		runs:             reg.Counter("symsim_cluster_runs_total", "Distributed runs registered with the coordinator."),
		runsDone:         reg.Counter("symsim_cluster_runs_done_total", "Distributed runs finished with a valid result."),
		runsFailed:       reg.Counter("symsim_cluster_runs_failed_total", "Distributed runs failed (attempt exhaustion, incomplete exploration, fatal error or shutdown)."),
		leases:           reg.Counter("symsim_cluster_units_leased_total", "Path-segment leases granted (includes re-leases after a put-back)."),
		settles:          reg.Counter("symsim_cluster_units_retired_total", "Path segments settled by an accepted report."),
		requeues:         reg.Counter("symsim_cluster_units_requeued_total", "Path segments put back on the frontier after a lease expiry or failure, to go out again under a new epoch."),
		expiries:         reg.Counter("symsim_cluster_lease_expiries_total", "Leases lapsed without a progress heartbeat (crashed or wedged worker)."),
		heartbeats:       reg.Counter("symsim_cluster_heartbeats_total", "Lease extensions accepted."),
		staleRPCs:        reg.Counter("symsim_cluster_stale_rpcs_total", "RPCs fenced off for carrying a dead lease epoch (zombie workers)."),
		duplicateReports: reg.Counter("symsim_cluster_duplicate_reports_total", "Same-epoch report retransmissions acknowledged without absorbing twice."),
		rpcs:             reg.CounterVec("symsim_cluster_rpcs_total", "Cluster API requests served, by endpoint.", "endpoint"),
	}
	// live sums f over the running runs under c.mu.
	live := func(f func(*run) int) func() float64 {
		return func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			n := 0
			for _, r := range c.runs {
				if r.state == "running" {
					n += f(r)
				}
			}
			return float64(n)
		}
	}
	reg.GaugeFunc("symsim_cluster_runs_active", "Distributed runs currently exploring.",
		live(func(*run) int { return 1 }))
	reg.GaugeFunc("symsim_cluster_frontier_depth", "Pending paths across all live runs.",
		live(func(r *run) int { return r.h.Progress().PathsPending }))
	reg.GaugeFunc("symsim_cluster_units_inflight", "Path segments currently leased to workers across all live runs.",
		live(func(r *run) int { return r.h.Progress().PathsInFlight }))
	return m
}

// Worker metrics. The explorers' own series (lane occupancy) land in the
// same per-worker registry.
type workerMetrics struct {
	unitsReported *obs.Counter
	unitsFailed   *obs.Counter
	unitsStale    *obs.Counter
	leaseEmpty    *obs.Counter
	heartbeats    *obs.Counter
	rpcErrors     *obs.CounterVec
}

func newWorkerMetrics(reg *obs.Registry) *workerMetrics {
	return &workerMetrics{
		unitsReported: reg.Counter("symsim_cluster_worker_units_reported_total", "Path segments this worker simulated and settled."),
		unitsFailed:   reg.Counter("symsim_cluster_worker_units_failed_total", "Path segments this worker handed back unsimulated."),
		unitsStale:    reg.Counter("symsim_cluster_worker_units_stale_total", "Path segments whose outcome the coordinator fenced as stale (lease lost mid-segment)."),
		leaseEmpty:    reg.Counter("symsim_cluster_worker_lease_empty_total", "Lease polls that returned no work."),
		heartbeats:    reg.Counter("symsim_cluster_worker_heartbeats_total", "Progress heartbeats sent."),
		rpcErrors:     reg.CounterVec("symsim_cluster_worker_rpc_errors_total", "Cluster RPCs that failed after retries, by endpoint.", "endpoint"),
	}
}
