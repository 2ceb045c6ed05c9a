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
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"symsim/internal/cliflags"
	"symsim/internal/netlist"
	"symsim/internal/vvp"
	"symsim/internal/wire"
)

// JobSpec describes one requested co-analysis: a built-in design/benchmark
// pair plus the analysis-tuning knobs of the shared CLI flag vocabulary
// (cliflags). Zero-valued tuning fields inherit the daemon's defaults at
// submission time; the normalized spec is what gets persisted and keyed.
type JobSpec struct {
	// Design and Bench select the platform, e.g. "dr5" / "tea8".
	Design string `json:"design"`
	Bench  string `json:"bench"`

	// Policy selects the CSM policy: merge-all | clustered | exact.
	// (constrained needs a constraint file and is not accepted over the
	// job API.) K and MaxStates parameterize clustered and exact.
	Policy    string `json:"policy,omitempty"`
	K         int    `json:"k,omitempty"`
	MaxStates int    `json:"maxStates,omitempty"`

	// Engine (kernel | interp | batch), MemX (verilog | sound), Workers
	// and Lanes tune the simulation machinery. Engine, Workers and Lanes
	// never change a complete result, so they do not enter the cache key.
	// Lanes caps the scenarios the batch engine packs per sweep (1..64,
	// 0 = 64); scalar engines ignore it.
	Engine  string `json:"engine,omitempty"`
	MemX    string `json:"memx,omitempty"`
	Workers int    `json:"workers,omitempty"`
	Lanes   int    `json:"lanes,omitempty"`

	// Priority orders the queue: higher runs first, FIFO within a level.
	Priority int `json:"priority,omitempty"`

	// Per-job budgets (graceful degradation, see core.Budget).
	// DeadlineMS is the wall-clock budget in milliseconds.
	DeadlineMS   int64  `json:"deadlineMs,omitempty"`
	MaxCycles    uint64 `json:"maxCycles,omitempty"`
	MaxForks     int    `json:"maxForks,omitempty"`
	MaxCSMStates int    `json:"maxCsmStates,omitempty"`
}

// SpecFromFlags is the one mapping from the shared analysis flags to a
// JobSpec's tuning fields: the daemon's defaults for submissions that leave
// fields zero, and what `symsim submit` sends. Design, Bench and Priority
// are not flags of that vocabulary and stay zero.
func SpecFromFlags(a *cliflags.Analysis) JobSpec {
	return JobSpec{
		Policy:       a.Policy,
		K:            a.K,
		MaxStates:    a.MaxStates,
		Engine:       a.Engine,
		MemX:         a.MemX,
		Workers:      a.Workers,
		Lanes:        a.Lanes,
		DeadlineMS:   a.Deadline.Milliseconds(),
		MaxCycles:    a.MaxCycles,
		MaxForks:     a.MaxForks,
		MaxCSMStates: a.MaxCSMStates,
	}
}

// normalize fills zero fields from the defaults and validates the result.
// The returned spec is canonical: two submissions meaning the same
// analysis normalize to identical specs.
func normalize(spec, def JobSpec) (JobSpec, error) {
	if spec.Design == "" {
		return spec, &BadSpecError{Reason: "missing design"}
	}
	if spec.Bench == "" {
		return spec, &BadSpecError{Reason: "missing bench"}
	}
	fill := func(dst *string, d, fallback string) {
		if *dst == "" {
			*dst = d
		}
		if *dst == "" {
			*dst = fallback
		}
	}
	fill(&spec.Policy, def.Policy, "merge-all")
	fill(&spec.Engine, def.Engine, "kernel")
	fill(&spec.MemX, def.MemX, "verilog")
	if spec.K == 0 {
		spec.K = def.K
	}
	if spec.MaxStates == 0 {
		spec.MaxStates = def.MaxStates
	}
	if spec.Workers == 0 {
		spec.Workers = def.Workers
	}
	if spec.Workers == 0 {
		spec.Workers = 1
	}
	if spec.Lanes == 0 {
		spec.Lanes = def.Lanes
	}
	if spec.DeadlineMS == 0 {
		spec.DeadlineMS = def.DeadlineMS
	}
	if spec.MaxCycles == 0 {
		spec.MaxCycles = def.MaxCycles
	}
	if spec.MaxForks == 0 {
		spec.MaxForks = def.MaxForks
	}
	if spec.MaxCSMStates == 0 {
		spec.MaxCSMStates = def.MaxCSMStates
	}

	// Parameters irrelevant to the selected policy are zeroed so they
	// cannot split the cache key between equivalent submissions.
	switch spec.Policy {
	case "merge-all":
		spec.K, spec.MaxStates = 0, 0
	case "clustered":
		spec.MaxStates = 0
		if spec.K <= 0 {
			return spec, &BadSpecError{Reason: fmt.Sprintf("clustered policy needs k > 0, got %d", spec.K)}
		}
	case "exact":
		spec.K = 0
		if spec.MaxStates <= 0 {
			return spec, &BadSpecError{Reason: fmt.Sprintf("exact policy needs maxStates > 0, got %d", spec.MaxStates)}
		}
	default:
		return spec, &BadSpecError{Reason: fmt.Sprintf("unknown or unsupported policy %q (want merge-all | clustered | exact)", spec.Policy)}
	}
	if _, err := cliflags.ParseEngine(spec.Engine); err != nil {
		return spec, &BadSpecError{Reason: err.Error()}
	}
	if _, err := cliflags.ParseMemX(spec.MemX); err != nil {
		return spec, &BadSpecError{Reason: err.Error()}
	}
	if spec.Workers < 0 || spec.DeadlineMS < 0 || spec.MaxForks < 0 || spec.MaxCSMStates < 0 {
		return spec, &BadSpecError{Reason: "negative budget or worker count"}
	}
	if spec.Lanes < 0 || spec.Lanes > vvp.BatchLanes {
		return spec, &BadSpecError{Reason: fmt.Sprintf("lanes %d out of range [0,%d]", spec.Lanes, vvp.BatchLanes)}
	}
	if spec.Priority < -1<<20 || spec.Priority > 1<<20 {
		return spec, &BadSpecError{Reason: fmt.Sprintf("priority %d out of range", spec.Priority)}
	}
	return spec, nil
}

// cacheKeyMagic versions the cache key derivation; bump on any change to
// what the key covers so stale entries cannot alias.
const cacheKeyMagic = wire.CacheKeyMagic

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
	h.Write([]byte(cacheKeyMagic))
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
