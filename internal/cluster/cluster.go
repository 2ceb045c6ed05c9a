// Package cluster runs one symbolic co-analysis across a fleet of
// explorers over HTTP by splitting Algorithm 1 where internal/core already
// splits it, at admit and settle: a coordinator hosts the run's state —
// core.Run: the frontier, the Conservative State Manager, the toggle
// profile, path IDs — and workers run the driver, core.Explore, against it.
// There is no second frontier, fork rule or profile fold: what a worker
// leases is what core.Run.Admit handed out, and what it reports is what
// core.Run.Settle absorbs, forks and publishes (DESIGN.md §14).
//
// The package is a library with no user-facing entry point: no command
// starts a coordinator or a worker, and a run is opened with NewRun and
// collected with Wait in the coordinator's own process. It is kept for the
// benchmark's fleet workload, which has not measured it faster than the
// in-process explorers of core.Analyze (DESIGN.md §14).
//
//   - A lease is one path segment for the asking worker slot: a path ID,
//     the work encoding of its frontier entry, and a lease epoch. A slot
//     holds one segment at a time, on the compiled kernel. A report settles
//     it and its response carries the slot's next segment, so a busy worker
//     costs one round trip per segment.
//   - A lease lapses when its worker stops heartbeating: the segment is put
//     back on the frontier and handed out again under the same path ID and
//     epoch+1, and every RPC from the dead epoch is fenced with 409. A
//     segment is absorbed exactly once because settling takes it out of
//     flight, whatever the retries.
//   - A run is requested with the job API's spec (RunSpec), normalized by
//     the same Normalize, and answered with a core.Result.
//
// Transport between worker and coordinator is stdlib HTTP, through the
// shared hardened client in internal/httpx (real timeouts, jittered
// retries).
package cluster

import (
	"errors"

	"symsim/internal/cliflags"
)

// RunSpec describes one distributed co-analysis. It is the analysis spec
// of the shared vocabulary (cliflags.Spec), normalized exactly as a job's
// is; what a fleet cannot honour — the constrained policy, budgets —
// NewRun rejects by name.
// The normalized spec rides with every lease.
type RunSpec = cliflags.Spec

// Errors the worker RPCs map onto HTTP statuses (and back).
var (
	// ErrUnknownRun is returned for operations on a run ID the
	// coordinator has never seen (404).
	ErrUnknownRun = errors.New("cluster: unknown run")
	// ErrStale fences RPCs from a dead lease epoch: the segment was put
	// back (or already settled under another epoch), or the run is over,
	// and the caller's outcome is void (409).
	ErrStale = errors.New("cluster: stale lease epoch")
	// ErrClosed is returned once the coordinator has shut down (503).
	ErrClosed = errors.New("cluster: coordinator closed")
	// ErrBadPayload tags malformed request payloads (400).
	ErrBadPayload = errors.New("cluster: bad payload")
)

// --- wire messages (JSON bodies of the worker RPCs; the one
// exception is the report request, see reportResponse) ---

// segment is one leased path segment: its path ID, the lease epoch every
// RPC about it must echo, and the work core.Run.Admit encoded.
type segment struct {
	ID    int    `json:"id"`
	Epoch int    `json:"epoch"`
	Work  []byte `json:"work"`
}

// leaseResponse grants a segment of one run and the spec the slot
// explores it under.
type leaseResponse struct {
	RunID      string    `json:"runId"`
	LeaseTTLMS int64     `json:"leaseTtlMs"`
	Spec       RunSpec   `json:"spec"`
	Segments   []segment `json:"segments"`
}

// reportResponse acknowledges a report — POST .../report with the lease in
// the query and the segment's outcome, in the encoding core.Run.Settle
// takes, as the raw body — and carries the slot's next segment, if any.
type reportResponse struct {
	Segments []segment `json:"segments,omitempty"`
}

// failRequest hands back a segment the worker could not simulate; the
// coordinator puts it back for another attempt.
type failRequest struct {
	ID     int    `json:"id"`
	Epoch  int    `json:"epoch"`
	Reason string `json:"reason,omitempty"`
}

// heartbeatRequest extends the leases of segments that are advancing.
type heartbeatRequest struct {
	Leases []leaseRef `json:"leases"`
}

// leaseRef names one lease.
type leaseRef struct {
	ID    int `json:"id"`
	Epoch int `json:"epoch"`
}

// RunStatusView is the externally visible state of a run: its lifecycle
// state plus the core.Progress snapshot of the analysis behind it.
type RunStatusView struct {
	ID    string  `json:"id"`
	State string  `json:"state"`
	Error string  `json:"error,omitempty"`
	Spec  RunSpec `json:"spec"`
	// PathsDone counts settled segments, PathsPending the frontier depth
	// and PathsInFlight the segments leased out; a finished run has no
	// pending and none in flight.
	PathsDone       int    `json:"pathsDone"`
	PathsPending    int    `json:"pathsPending"`
	PathsInFlight   int    `json:"pathsInFlight"`
	SimulatedCycles uint64 `json:"simulatedCycles"`
	CSMStates       int    `json:"csmStates"`
}
