// Package wire is the single registry of symsim's binary wire-format
// magics. Every on-disk or on-wire artifact symsim produces opens with an
// 8-byte magic "SYMSIM" + format letter + version digit; the codecs that
// read and write them live next to their subsystems (checkpoint in
// internal/core, job records in internal/service, …) but the magic
// constants live here, once, so two formats can never collide and the
// SA004 analyzer can verify that no magic literal is minted outside this
// file and that every decodable format keeps a round-trip fuzz target.
// The framing the decodable formats share — length-prefixed strings and
// the strict first-error cursor their decoders read through — is here too
// (reader.go).
//
// Bumping a format version means adding a new constant and registry row —
// never editing an existing one; old magics stay reserved so stale files
// are recognized rather than misparsed.
package wire

// The registered format magics. These are the only places in non-test
// symsim source where a SYMSIM?? literal may appear (enforced by SA004).
const (
	// CheckpointMagic identifies version 1 of the analysis checkpoint
	// file (internal/core checkpoint.go): the consistent-cut snapshot
	// that `symsim -checkpoint` writes and `symsim -resume` restarts from.
	// symsimd writes none: a drained or crashed job runs again from cold
	// boot.
	CheckpointMagic = "SYMSIMC1"
	// JobMagic identifies version 1 of the durable job record
	// (internal/service store.go): one fully-validated record per job,
	// crash-repaired on daemon restart.
	JobMagic = "SYMSIMJ1"
	// JobMagic2 identifies version 2 of the durable job record: version 1
	// plus a lane-count slot after the worker count. Version-1 records
	// still decode.
	JobMagic2 = "SYMSIMJ2"
	// JobMagic3 identifies version 3 of the durable job record, the one
	// written: version 2 less the spec's X-address write rule, of which
	// one is left. Its engine, lane-count and priority slots are
	// retired: written empty and 0, and read and dropped, since every job
	// runs on the compiled kernel in the order the FIFO queue took it.
	// Version-1 and version-2 records still decode; their rule, engine,
	// lane count and priority are read and dropped.
	JobMagic3 = "SYMSIMJ3"
	// CacheKeyMagic identifies version 3 of the content-addressed result
	// cache key (internal/service spec.go): a digest over the canonical
	// netlist hash plus normalized analysis parameters. Digest-only —
	// keys are derived, never decoded. Version 1 (SYMSIMK1) was keyed on
	// the version-1 netlist hash, version 2 (SYMSIMK2) on the X-address
	// write rule too, whose Verilog setting dropped writes the one rule
	// merges; neither's entries can be reached.
	CacheKeyMagic = "SYMSIMK3"
	// HashMagic identifies version 2 of the canonical netlist content
	// hash construction (internal/netlist hash.go): a structure digest
	// that leaves the memory contents out, combined with one digest per
	// memory image. Digest-only — bump it whenever the label refinement
	// changes. Version 1 (SYMSIMH1) folded the contents into the memory
	// labels.
	HashMagic = "SYMSIMH2"
	// WorkMagic and OutcomeMagic identify version 1 of the two halves of
	// the segment encoding (internal/core segment.go): one frontier entry
	// on its way from a run's state to a driver in another process, and
	// what simulating it produced on its way back.
	WorkMagic    = "SYMSIMW1"
	OutcomeMagic = "SYMSIMO1"
)

// Format describes one registered wire format.
type Format struct {
	// Magic is the 8-byte format identifier.
	Magic string
	// Name is the short human name used in docs and diagnostics.
	Name string
	// Package is the import path of the owning codec.
	Package string
	// Fuzz names the round-trip fuzz target guarding the decoder.
	// Empty only when DigestOnly: a format with a decoder must keep its
	// fuzz corpus (enforced by SA004).
	Fuzz string
	// DigestOnly marks formats that are produced but never parsed
	// (content hashes, cache keys) and therefore have no decoder to fuzz.
	DigestOnly bool
}

// Formats is the registry, one row per magic, in magic order.
var Formats = []Format{
	{Magic: CheckpointMagic, Name: "checkpoint", Package: "symsim/internal/core", Fuzz: "FuzzCheckpointRoundTrip"},
	{Magic: HashMagic, Name: "netlist content hash", Package: "symsim/internal/netlist", DigestOnly: true},
	{Magic: JobMagic, Name: "job record v1", Package: "symsim/internal/service", Fuzz: "FuzzJobRecordRoundTrip"},
	{Magic: JobMagic2, Name: "job record v2", Package: "symsim/internal/service", Fuzz: "FuzzJobRecordRoundTrip"},
	{Magic: JobMagic3, Name: "job record", Package: "symsim/internal/service", Fuzz: "FuzzJobRecordRoundTrip"},
	{Magic: CacheKeyMagic, Name: "result cache key", Package: "symsim/internal/service", DigestOnly: true},
	{Magic: OutcomeMagic, Name: "segment outcome", Package: "symsim/internal/core", Fuzz: "FuzzSegmentRoundTrip"},
	{Magic: WorkMagic, Name: "segment work", Package: "symsim/internal/core", Fuzz: "FuzzSegmentRoundTrip"},
}

// ByMagic returns the registered format for magic, or nil.
func ByMagic(magic string) *Format {
	for i := range Formats {
		if Formats[i].Magic == magic {
			return &Formats[i]
		}
	}
	return nil
}
