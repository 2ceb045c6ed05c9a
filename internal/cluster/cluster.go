// Package cluster runs one symbolic co-analysis across a fleet of symsimd
// processes by splitting Algorithm 1 where internal/core already splits it,
// at admit and settle: a coordinator hosts the run's state — core.Run: the
// frontier, the Conservative State Manager, the toggle profile, path IDs —
// and workers run the driver, core.Explore, against it over HTTP. There is
// no second frontier, fork rule or profile fold: what a worker leases is
// what core.Run.Admit handed out, and what it reports is what
// core.Run.Settle absorbs, forks and publishes (DESIGN.md §14).
//
//   - A lease is one path segment per free lane of the asking worker slot:
//     a path ID, the work encoding of its frontier entry, and a lease epoch.
//     A report settles one segment and its response carries the slot's next
//     segments, so a busy worker costs one round trip per segment.
//   - Leases lapse like the job leases of internal/service: a segment whose
//     worker stops heartbeating is put back on the frontier and handed out
//     again under the same path ID and epoch+1, and every RPC from the dead
//     epoch is fenced with 409. A segment is absorbed exactly once because
//     settling takes it out of flight, whatever the retries.
//   - A run is requested with the job API's spec (RunSpec) and answered
//     with the job API's result view, tie-off list included.
//
// Transport is the stdlib HTTP the daemon already speaks, through the
// shared hardened client in internal/httpx (real timeouts, jittered
// retries).
package cluster

import (
	"errors"

	"symsim/internal/cliflags"
)

// RunSpec describes one distributed co-analysis. It is the analysis spec
// of the shared vocabulary (cliflags.Spec), normalized exactly as a job's
// is; what a fleet cannot honour — more than one explorer per slot, the
// constrained policy, budgets, a queue priority — NewRun rejects by name.
// The normalized spec rides with every lease.
type RunSpec = cliflags.Spec

// Errors the coordinator API maps onto HTTP statuses (and back).
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
	// ErrNotDone is returned by Result for a run still exploring (409).
	ErrNotDone = errors.New("cluster: run has no result yet")
	// ErrBadPayload tags malformed request payloads (400).
	ErrBadPayload = errors.New("cluster: bad payload")
)

// --- wire messages (JSON bodies of the /cluster endpoints; the one
// exception is the report request, see reportResponse) ---

// leaseRequest asks for work for one worker slot.
type leaseRequest struct {
	Worker string `json:"worker,omitempty"`
}

// segment is one leased path segment: its path ID, the lease epoch every
// RPC about it must echo, and the work core.Run.Admit encoded.
type segment struct {
	ID    int    `json:"id"`
	Epoch int    `json:"epoch"`
	Work  []byte `json:"work"`
}

// leaseResponse grants segments of one run, at most one per lane of the
// engine its spec selects, and the spec the slot explores them under.
type leaseResponse struct {
	RunID      string    `json:"runId"`
	LeaseTTLMS int64     `json:"leaseTtlMs"`
	Spec       RunSpec   `json:"spec"`
	Lanes      int       `json:"lanes"`
	Segments   []segment `json:"segments"`
}

// reportResponse acknowledges a report — POST .../report with the lease in
// the query and the segment's outcome, in the encoding core.Run.Settle
// takes, as the raw body — and carries the slot's next work.
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
