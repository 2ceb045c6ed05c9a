package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"symsim/internal/fault"
	"symsim/internal/wire"
)

// This file is the durable job store: every accepted job is persisted as
// one record file under <data>/jobs, written atomically (temp file +
// rename) with the same canonical-codec discipline as the SYMSIMC1
// checkpoint format — a fixed magic, fully validated decode that never
// panics on malformed input, and byte-identical re-encoding of anything it
// accepts (fuzzed by FuzzJobRecordRoundTrip). The daemon therefore
// survives a crash without losing accepted jobs: on restart the store is
// scanned, interrupted jobs return to the queue, and jobs with a
// checkpoint resume from it.

// State is a job's lifecycle state.
type State string

// Job lifecycle states. A drained or crashed job goes back to StateQueued
// (with Resumable set when a checkpoint exists) rather than getting a
// distinct state: queued-with-history is exactly what it is.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// stateCodes maps states to their on-disk encoding. Append only.
var stateCodes = []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}

// jobRecord is the persisted form of one job.
type jobRecord struct {
	ID   string
	Spec JobSpec
	// State is the lifecycle state at the last persist.
	State State
	// Submitted/Started/Finished are unix nanoseconds (0 = not yet).
	Submitted int64
	Started   int64
	Finished  int64
	// Error holds the failure cause for StateFailed.
	Error string
	// CacheKey is the content address of the job's (future) result;
	// DesignHash the canonical netlist digest it was derived from.
	CacheKey   string
	DesignHash string
	// Cached marks a job satisfied instantly from the result cache.
	Cached bool
	// Resumable marks a queued job with a usable checkpoint on disk.
	Resumable bool
}

// jobMagic identifies the job record format written: version 2.
// jobMagicV1 records, which lack Spec.Lanes, are still read.
const (
	jobMagic   = wire.JobMagic2
	jobMagicV1 = wire.JobMagic
)

// ErrJobRecordCorrupt tags every job record decode failure, so callers can
// distinguish corruption from I/O errors with errors.Is.
var ErrJobRecordCorrupt = errors.New("service: corrupt job record")

func (r *jobRecord) encode() []byte {
	b := []byte(jobMagic)
	for _, s := range []string{r.ID, r.Spec.Design, r.Spec.Bench, r.Spec.Policy, r.Spec.Engine, r.Spec.MemX} {
		b = wire.AppendString(b, s)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Spec.K))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Spec.MaxStates))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Spec.Workers))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Spec.Lanes))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(r.Spec.Priority)))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Spec.DeadlineMS))
	b = binary.LittleEndian.AppendUint64(b, r.Spec.MaxCycles)
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Spec.MaxForks))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Spec.MaxCSMStates))

	var code uint8
	for i, s := range stateCodes {
		if s == r.State {
			code = uint8(i)
		}
	}
	b = append(b, code)
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Submitted))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Started))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Finished))
	b = wire.AppendString(b, r.Error)
	b = wire.AppendString(b, r.CacheKey)
	b = wire.AppendString(b, r.DesignHash)
	var flags uint8
	if r.Cached {
		flags |= 1
	}
	if r.Resumable {
		flags |= 2
	}
	b = append(b, flags)
	return b
}

// decodeJobRecord parses a job record image; malformed input yields an
// error wrapping ErrJobRecordCorrupt, never a panic, and any accepted
// input re-encodes byte-identically — a version-1 input as the version-2
// image of the same record.
func decodeJobRecord(data []byte) (*jobRecord, error) {
	r := wire.NewReader(data, ErrJobRecordCorrupt)
	magic := string(r.Bytes(len(jobMagic)))
	if r.Err() == nil && magic != jobMagic && magic != jobMagicV1 {
		return nil, fmt.Errorf("%w: bad magic %q", ErrJobRecordCorrupt, magic)
	}
	rec := &jobRecord{}
	rec.ID = r.Str()
	rec.Spec.Design = r.Str()
	rec.Spec.Bench = r.Str()
	rec.Spec.Policy = r.Str()
	rec.Spec.Engine = r.Str()
	rec.Spec.MemX = r.Str()
	rec.Spec.K = int(r.U32())
	rec.Spec.MaxStates = int(r.U32())
	rec.Spec.Workers = int(r.U32())
	if magic == jobMagic {
		rec.Spec.Lanes = int(r.U32())
	}
	rec.Spec.Priority = int(int32(r.U32()))
	rec.Spec.DeadlineMS = int64(r.U64())
	rec.Spec.MaxCycles = r.U64()
	rec.Spec.MaxForks = int(r.U32())
	rec.Spec.MaxCSMStates = int(r.U32())
	code := r.U8()
	rec.Submitted = int64(r.U64())
	rec.Started = int64(r.U64())
	rec.Finished = int64(r.U64())
	rec.Error = r.Str()
	rec.CacheKey = r.Str()
	rec.DesignHash = r.Str()
	flags := r.U8()
	if err := r.End(); err != nil {
		return nil, err
	}
	if int(code) >= len(stateCodes) {
		return nil, fmt.Errorf("%w: unknown state code %d", ErrJobRecordCorrupt, code)
	}
	rec.State = stateCodes[code]
	if flags > 3 {
		return nil, fmt.Errorf("%w: unknown flag bits %#x", ErrJobRecordCorrupt, flags)
	}
	rec.Cached = flags&1 != 0
	rec.Resumable = flags&2 != 0
	return rec, nil
}

// store lays the service's durable state out under one root directory:
//
//	jobs/<id>.job      canonical job records (SYMSIMJ2)
//	results/<id>.json  per-job result summaries
//	cache/<key>.json   content-addressed complete results
//	ckpt/<id>.ckpt     per-job exploration checkpoints (SYMSIMC1)
//
// Every filesystem touch goes through the fault.FS seam, so the torture
// matrix can inject I/O errors, torn writes and crash-points into any
// write path and prove the restart invariants hold.
type store struct {
	root string
	fs   fault.FS
}

// storeDirs lists the store's subdirectories, shared by openStore's
// mkdir/reap sweep and the test-side litter checks.
var storeDirs = []string{"jobs", "results", "cache", "ckpt"}

// openStore opens (or creates) the layout under root on vfs and reaps any
// orphan temp files a crash mid-atomic-write left behind, returning how
// many were removed. Reap errors are reported but do not fail the open:
// a leftover .tmp file is litter, not corruption.
func openStore(root string, vfs fault.FS) (st *store, reaped int, errs []error, err error) {
	if vfs == nil {
		vfs = fault.OS{}
	}
	st = &store{root: root, fs: vfs}
	for _, d := range append([]string{root}, storeDirs...) {
		dir := root
		if d != root {
			dir = filepath.Join(root, d)
		}
		if err := vfs.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, nil, err
		}
	}
	for _, sub := range storeDirs {
		dir := filepath.Join(root, sub)
		entries, rerr := vfs.ReadDir(dir)
		if rerr != nil {
			errs = append(errs, rerr)
			continue
		}
		for _, e := range entries {
			if e.IsDir() || !strings.Contains(e.Name(), ".tmp") {
				continue
			}
			// A temp file that survived to the next open belongs to an
			// atomic write that never reached its rename: the record it
			// was replacing is still intact, so the temp is pure litter.
			if rerr := vfs.Remove(filepath.Join(dir, e.Name())); rerr != nil {
				errs = append(errs, rerr)
				continue
			}
			reaped++
		}
	}
	return st, reaped, errs, nil
}

func (s *store) jobPath(id string) string        { return filepath.Join(s.root, "jobs", id+".job") }
func (s *store) resultPath(id string) string     { return filepath.Join(s.root, "results", id+".json") }
func (s *store) cachePath(key string) string     { return filepath.Join(s.root, "cache", key+".json") }
func (s *store) checkpointPath(id string) string { return filepath.Join(s.root, "ckpt", id+".ckpt") }

func (s *store) saveJob(r *jobRecord) error { return s.atomicWrite(s.jobPath(r.ID), r.encode()) }

// loadJobs scans the job directory. Records that fail to decode are
// reported in errs but do not abort the scan: one corrupt file must not
// take the whole daemon down. Records are returned in submission order.
func (s *store) loadJobs() (recs []*jobRecord, errs []error) {
	entries, err := s.fs.ReadDir(filepath.Join(s.root, "jobs"))
	if err != nil {
		return nil, []error{err}
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".job") {
			continue
		}
		path := filepath.Join(s.root, "jobs", e.Name())
		data, err := s.fs.ReadFile(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		rec, err := decodeJobRecord(data)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", path, err))
			continue
		}
		if rec.ID+".job" != e.Name() {
			errs = append(errs, fmt.Errorf("%s: %w: record ID %q does not match file name", path, ErrJobRecordCorrupt, rec.ID))
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Submitted != recs[j].Submitted {
			return recs[i].Submitted < recs[j].Submitted
		}
		return recs[i].ID < recs[j].ID
	})
	return recs, errs
}

func (s *store) writeResult(id string, data []byte) error {
	return s.atomicWrite(s.resultPath(id), data)
}

func (s *store) readResult(id string) ([]byte, error) { return s.fs.ReadFile(s.resultPath(id)) }

func (s *store) writeCache(key string, data []byte) error {
	return s.atomicWrite(s.cachePath(key), data)
}

// readCache returns the cached result blob for key. A missing entry is a
// plain miss; a corrupt entry (an interrupted or bit-rotted write that
// is not valid JSON) is quarantined to <key>.json.corrupt and counted as
// a miss — a damaged cache record must never be served as a result. faultErr
// reports a real I/O failure (injected or otherwise), which the caller
// counts toward degraded-mode detection; a miss has faultErr nil.
func (s *store) readCache(key string) (data []byte, ok bool, faultErr error) {
	path := s.cachePath(key)
	data, err := s.fs.ReadFile(path)
	switch {
	case fault.IsNotExist(err):
		return nil, false, nil
	case err != nil:
		return nil, false, err
	}
	if !json.Valid(data) {
		// Quarantine preserves the evidence for post-mortem without ever
		// letting the entry satisfy a future lookup.
		if qerr := s.fs.Rename(path, path+".corrupt"); qerr != nil {
			return nil, false, fmt.Errorf("quarantining corrupt cache entry: %w", qerr)
		}
		return nil, false, fmt.Errorf("%w: cache entry %s quarantined (invalid JSON)", ErrJobRecordCorrupt, key)
	}
	return data, true, nil
}

// removeCheckpoint is best-effort: a checkpoint that survives a failed
// Remove is overwritten by the job's next run or ignored, costing disk
// only — so the error is deliberately discarded.
func (s *store) removeCheckpoint(id string) { _ = s.fs.Remove(s.checkpointPath(id)) }

func (s *store) hasCheckpoint(id string) bool {
	_, err := s.fs.Stat(s.checkpointPath(id))
	return err == nil
}

// atomicWrite lands data in a temp file in the target's directory and
// renames it over path, so a crash mid-write never corrupts a record.
// Cleanup removals after a failed write are best-effort (the open-time
// reap catches what they miss); the original write error always wins.
func (s *store) atomicWrite(path string, data []byte) error {
	tmp, err := s.fs.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close() // the write error takes precedence
		_ = s.fs.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = s.fs.Remove(tmp.Name())
		return err
	}
	if err := s.fs.Rename(tmp.Name(), path); err != nil {
		_ = s.fs.Remove(tmp.Name())
		return err
	}
	return nil
}
