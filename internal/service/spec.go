// Package service exposes symsim as a long-lived analysis daemon: the
// paper's hours-long co-analyses (Table 4) become submitted jobs with a
// bounded priority queue, a durable on-disk job store, per-job budgets and
// cancellation, SSE-streamed progress heartbeats, graceful drain that
// checkpoints in-flight jobs and resumes them on restart, and a
// content-addressed result cache keyed by the canonical netlist hash —
// identical submissions return instantly and the Table-4 sweep becomes
// incremental.
//
// The package is transport-agnostic at its core (Submit/Cancel/Drain on a
// Service) with a stdlib net/http front end (Handler); cmd/symsimd wraps
// it as a daemon and cmd/symsim's submit/status/result/cancel/jobs
// subcommands are its client.
//
// What a job asks for and what it answers are not defined here: the spec
// is cliflags.Spec (one Normalize, one Config, shared with the CLI and the
// fleet API) and the result view report.ResultSummary. This file derives
// the content address of a normalized spec's complete result.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"symsim/internal/cliflags"
	"symsim/internal/netlist"
	"symsim/internal/report"
	"symsim/internal/wire"
)

// JobSpec is the shared analysis spec: zero-valued tuning fields inherit the
// daemon's defaults, then the flag defaults, at submission time, and the
// normalized spec is what gets persisted and keyed. ResultSummary is the
// digest of a finished analysis the service persists, caches and serves,
// TieOffView one entry of its tie-off list.
type (
	JobSpec       = cliflags.Spec
	ResultSummary = report.ResultSummary
	TieOffView    = report.TieOffView
)

// normalize is the shared Normalize as the job API applies it: def is the
// daemon's own flags (nil for none) and every rejection a *BadSpecError.
func normalize(spec JobSpec, def *JobSpec) (JobSpec, error) {
	spec, err := spec.Normalize(def)
	if err != nil {
		return spec, &BadSpecError{Reason: err.Error()}
	}
	return spec, nil
}

// policyKey is the canonical result-affecting policy identity: the policy
// plus exactly the parameters that change its merging behaviour.
func policyKey(spec JobSpec) string {
	switch spec.Policy {
	case "clustered":
		return fmt.Sprintf("clustered-%d", spec.K)
	case "exact":
		return fmt.Sprintf("exact-%d", spec.MaxStates)
	}
	return spec.Policy
}

// cacheKey derives the content address of a job's complete result. It
// covers everything that can change a *complete* analysis outcome: the
// canonical design content hash (netlist.Hash: the structure digest of the
// processor, computed once per process, combined with the digest of each
// memory's contents, so the program image is covered and a submission
// hashes the image, not the netlist), the design/bench pair that selected
// the platform harness
// (monitors, stimulus, state spec), the CSM policy with its parameters and
// the memory-X semantics. Engine, worker count and budgets are deliberately
// excluded: engines are result-identical, parallelism does not change the
// dichotomy, and budget-degraded (incomplete) results are never cached.
func cacheKey(designHash netlist.Digest, spec JobSpec) string {
	h := sha256.New()
	h.Write([]byte(wire.CacheKeyMagic))
	for _, part := range []string{spec.Design, spec.Bench, designHash.String(), policyKey(spec), spec.MemX} {
		var n [4]byte
		n[0], n[1], n[2], n[3] = byte(len(part)), byte(len(part)>>8), byte(len(part)>>16), byte(len(part)>>24)
		h.Write(n[:])
		h.Write([]byte(part))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BadSpecError reports an invalid or unsupported job specification.
type BadSpecError struct{ Reason string }

func (e *BadSpecError) Error() string { return "service: invalid job spec: " + e.Reason }
