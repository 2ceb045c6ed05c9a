package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"symsim/internal/obs"
	"symsim/internal/wire"
)

func sampleRecord() *jobRecord {
	return &jobRecord{
		ID: "a1b2c3",
		Spec: JobSpec{
			Design: "dr5", Bench: "tea8", Policy: "clustered", K: 4,
			DeadlineMS: 90_000, MaxCycles: 1 << 40, MaxForks: 7, MaxCSMStates: 11,
		},
		State:      StateQueued,
		Submitted:  1_722_000_000_000_000_001,
		Started:    1_722_000_000_000_000_002,
		Finished:   0,
		Error:      "",
		CacheKey:   "deadbeef",
		DesignHash: "cafe",
		Cached:     false,
	}
}

func TestJobRecordRoundTrip(t *testing.T) {
	rec := sampleRecord()
	data := rec.encode()
	got, err := decodeJobRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, rec)
	}
	if !bytes.Equal(got.encode(), data) {
		t.Error("re-encode is not byte-identical")
	}
}

// parent is what an older daemon wrote into a record beside the current
// image: its magic, the engine name, worker count, lane count and queue
// priority of its spec in the slots version 3 retired, and for versions 1
// and 2 the X-address write rule after the engine.
type parent struct {
	magic, engine, rule      string
	workers, lanes, priority int
}

// image rewrites rec's current image into the layout p's daemon wrote:
// version 1 has no lane count after the worker count.
func (p parent) image(rec *jobRecord) []byte {
	cur := rec.encode()
	at := len(jobMagic)
	for _, s := range []string{rec.ID, rec.Spec.Design, rec.Spec.Bench, rec.Spec.Policy} {
		at += 4 + len(s)
	}
	img := wire.AppendString(append([]byte(p.magic), cur[len(jobMagic):at]...), p.engine)
	if p.magic != jobMagic {
		img = wire.AppendString(img, p.rule)
	}
	at += 4             // the empty engine
	workers := at + 2*4 // K, MaxStates
	img = append(img, cur[at:workers]...)
	img = binary.LittleEndian.AppendUint32(img, uint32(p.workers))
	if p.magic != jobMagicV1 {
		img = binary.LittleEndian.AppendUint32(img, uint32(p.lanes))
	}
	img = binary.LittleEndian.AppendUint32(img, uint32(int32(p.priority)))
	return append(img, cur[workers+3*4:]...)
}

// A record written before the lane count was persisted still decodes, its
// engine, X-address write rule, worker count and priority read and
// dropped, and is rewritten in the current version.
func TestJobRecordVersion1StillDecodes(t *testing.T) {
	want := sampleRecord()
	got, err := decodeJobRecord(parent{magic: jobMagicV1, engine: "batch", rule: "sound", workers: 2, priority: -3}.image(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("version-1 decode:\n got %+v\nwant %+v", got, want)
	}
	if !bytes.Equal(got.encode(), want.encode()) {
		t.Error("version-1 record does not re-encode as its version-3 image")
	}
}

// A version-2 record decodes to the same spec, less its engine, worker
// count, lane count, priority and X-address write rule, whichever rule it
// chose.
func TestJobRecordVersion2StillDecodes(t *testing.T) {
	for _, rule := range []string{"sound", "verilog"} {
		want := sampleRecord()
		got, err := decodeJobRecord(parent{magic: jobMagicV2, engine: "batch", rule: rule, workers: 3, lanes: 4, priority: 5}.image(want))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("version-2 decode under %s:\n got %+v\nwant %+v", rule, got, want)
		}
		if !bytes.Equal(got.encode(), want.encode()) {
			t.Errorf("version-2 record under %s does not re-encode as its version-3 image", rule)
		}
	}
}

func TestDecodeJobRecordRejectsMalformed(t *testing.T) {
	good := sampleRecord().encode()
	cases := map[string][]byte{
		"empty":          nil,
		"short magic":    good[:4],
		"wrong magic":    append([]byte("SYMSIMJ9"), good[8:]...),
		"truncated half": good[:len(good)/2],
		"truncated tail": good[:len(good)-1],
		"trailing junk":  append(append([]byte{}, good...), 0),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeJobRecord(data); !errors.Is(err, ErrJobRecordCorrupt) {
				t.Errorf("want ErrJobRecordCorrupt, got %v", err)
			}
		})
	}

	// Unknown state code and unknown flag bits are rejected explicitly.
	bad := append([]byte{}, good...)
	bad[len(bad)-1] = 0xFF // flags byte is last
	if _, err := decodeJobRecord(bad); !errors.Is(err, ErrJobRecordCorrupt) {
		t.Errorf("bad flags: want ErrJobRecordCorrupt, got %v", err)
	}
}

// reencoded is the image an accepted version-3 record re-encodes as:
// itself, with the retired engine, worker, lane and priority slots emptied
// and less the retired flag bit (the flags byte is last).
func reencoded(img []byte) []byte {
	at := len(jobMagic)
	for range 4 { // ID, Design, Bench, Policy
		at += 4 + int(binary.LittleEndian.Uint32(img[at:]))
	}
	rest := img[at+4+int(binary.LittleEndian.Uint32(img[at:])):]
	out := wire.AppendString(append([]byte{}, img[:at]...), "")
	out = append(out, rest[:2*4]...) // K, MaxStates
	for range 3 {                    // workers, lanes, priority
		out = binary.LittleEndian.AppendUint32(out, 0)
	}
	out = append(out, rest[5*4:]...)
	out[len(out)-1] &^= retiredFlag
	return out
}

// Every single-bit flip of a valid record — one an older daemon wrote, its
// retired slots filled — must either decode to something that re-encodes
// canonically or fail with ErrJobRecordCorrupt — never panic, never
// round-trip inconsistently.
func TestJobRecordBitFlips(t *testing.T) {
	good := parent{magic: jobMagic, engine: "batch", workers: 2, lanes: 4, priority: -3}.image(sampleRecord())
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte{}, good...)
			mut[i] ^= 1 << bit
			rec, err := decodeJobRecord(mut)
			if err != nil {
				if !errors.Is(err, ErrJobRecordCorrupt) {
					t.Fatalf("flip %d/%d: error %v does not wrap ErrJobRecordCorrupt", i, bit, err)
				}
				continue
			}
			if !bytes.Equal(rec.encode(), reencoded(mut)) {
				t.Fatalf("flip %d/%d: accepted input does not re-encode canonically", i, bit)
			}
		}
	}
}

func FuzzJobRecordRoundTrip(f *testing.F) {
	f.Add(sampleRecord().encode())
	f.Add(parent{magic: jobMagicV1, engine: "kernel", rule: "sound"}.image(sampleRecord()))
	f.Add([]byte(jobMagic))
	f.Add([]byte(jobMagicV1))
	f.Add([]byte("SYMSIMJ9junk"))
	trunc := sampleRecord().encode()
	f.Add(trunc[:len(trunc)-3])
	f.Add(parent{magic: jobMagicV2, engine: "batch", rule: "verilog", lanes: 8, priority: 5}.image(sampleRecord()))
	retired := parent{magic: jobMagic, engine: "batch", lanes: 4}.image(sampleRecord())
	f.Add(retired)
	f.Add(parent{magic: jobMagic, priority: 7}.image(sampleRecord()))
	f.Add(parent{magic: jobMagic, workers: 8}.image(sampleRecord()))
	retired = sampleRecord().encode()
	retired[len(retired)-1] |= retiredFlag
	f.Add(retired)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeJobRecord(data)
		if err != nil {
			if !errors.Is(err, ErrJobRecordCorrupt) {
				t.Fatalf("error %v does not wrap ErrJobRecordCorrupt", err)
			}
			return
		}
		enc := rec.encode()
		if bytes.HasPrefix(data, []byte(jobMagicV1)) || bytes.HasPrefix(data, []byte(jobMagicV2)) {
			// An old-version input is rewritten as version 3: the same
			// record, less the X-address write rule it no longer carries.
			again, err := decodeJobRecord(enc)
			if err != nil || !reflect.DeepEqual(again, rec) {
				t.Fatalf("old-version input does not survive its rewrite: %v", err)
			}
			return
		}
		if !bytes.Equal(enc, reencoded(data)) {
			t.Fatal("accepted input does not re-encode byte-identically, less the retired slots and flag")
		}
	})
}

func TestStoreLayoutAndAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := openStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord()
	if err := st.saveJob(rec); err != nil {
		t.Fatal(err)
	}
	if err := st.writeResult(rec.ID, []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.writeCache("k123", []byte(`{"cached":true}`)); err != nil {
		t.Fatal(err)
	}

	// A corrupt sibling record must not poison the scan.
	if err := os.WriteFile(filepath.Join(dir, "jobs", "bad.job"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, errs := st.loadJobs()
	if len(errs) != 1 || !errors.Is(errs[0], ErrJobRecordCorrupt) {
		t.Errorf("errs = %v, want one ErrJobRecordCorrupt", errs)
	}
	if len(recs) != 1 || !reflect.DeepEqual(recs[0], rec) {
		t.Errorf("loadJobs = %+v", recs)
	}

	if data, err := st.readResult(rec.ID); err != nil || string(data) != `{"ok":true}` {
		t.Errorf("readResult = %q, %v", data, err)
	}
	if data, ok, err := st.readCache("k123"); !ok || err != nil || string(data) != `{"cached":true}` {
		t.Errorf("readCache = %q, %v, %v", data, ok, err)
	}
	if _, ok, err := st.readCache("missing"); ok || err != nil {
		t.Errorf("cache miss reported as hit (ok=%v err=%v)", ok, err)
	}

	// No temp litter after atomic writes.
	for _, sub := range []string{"jobs", "results", "cache"} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".job" && filepath.Ext(e.Name()) != ".json" {
				t.Errorf("unexpected file %s/%s", sub, e.Name())
			}
		}
	}
}

// loadJobs must reject a record whose embedded ID disagrees with its file
// name (a copied or renamed record would otherwise shadow another job).
func TestLoadJobsRejectsRenamedRecord(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := openStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord()
	if err := os.WriteFile(filepath.Join(dir, "jobs", "other.job"), rec.encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, errs := st.loadJobs()
	if len(recs) != 0 || len(errs) != 1 {
		t.Errorf("recs=%v errs=%v, want rejection", recs, errs)
	}
}

// TestRetiredFlagJobRestarts: a version-3 record an older daemon wrote with
// the retired flag set — a queued job it meant to resume from the
// checkpoint in its ckpt/ directory — decodes, re-encodes without the bit,
// and its job runs from cold boot to done; the checkpoint is never read.
func TestRetiredFlagJobRestarts(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := openStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := normalize(JobSpec{Design: "dr5", Bench: "loop"})
	if err != nil {
		t.Fatal(err)
	}
	rec := &jobRecord{ID: "drained", Spec: spec, State: StateQueued, Submitted: 1, CacheKey: "drained"}
	img := rec.encode()
	img[len(img)-1] |= retiredFlag
	got, err := decodeJobRecord(img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("decode with the retired flag:\n got %+v\nwant %+v", got, rec)
	}
	if !bytes.Equal(got.encode(), reencoded(img)) {
		t.Error("record with the retired flag does not re-encode without it")
	}
	if err := os.WriteFile(st.jobPath(rec.ID), img, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "ckpt"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ckpt", rec.ID+".ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{DataDir: dir, Workers: 1, buildPlatform: loopPlatform(t, 0x1), Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	waitState(t, svc, rec.ID, StateDone)
	assertValidResult(t, svc, rec.ID)
	data, err := os.ReadFile(st.jobPath(rec.ID))
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1]&retiredFlag != 0 {
		t.Error("the finished job's record still carries the retired flag")
	}
}

// TestParentEngineAndLanesJobRuns: a version-3 record an older daemon
// wrote for a batch submission with four lanes and queue priority 7 loads
// as the plain spec, re-encodes with those slots emptied, and its job runs
// to done on the kernel with the tie-off list a plain submission of the
// same cell gets from a fresh service.
func TestParentEngineAndLanesJobRuns(t *testing.T) {
	parentJobRuns(t, "batch4", parent{magic: jobMagic, engine: "batch", lanes: 4, priority: 7})
}

// TestParentWorkerSlotJobRuns: a version-3 record an older daemon wrote
// for a submission with two path workers loads as the plain spec,
// re-encodes with its worker slot emptied, and its job runs on one
// explorer to the tie-off list of a plain submission.
func TestParentWorkerSlotJobRuns(t *testing.T) {
	parentJobRuns(t, "workers2", parent{magic: jobMagic, workers: 2})
}

// parentJobRuns writes the record p's daemon wrote for a plain dr5/loop
// job under id, and requires it to load as the plain spec, re-encode with
// the retired slots emptied, and run to the tie-off list a fresh service
// gives the plain submission.
func parentJobRuns(t *testing.T, id string, p parent) {
	t.Helper()
	const mask = 0x7
	tieOffs := func(svc *Service, id string) json.RawMessage {
		t.Helper()
		waitState(t, svc, id, StateDone)
		data, err := svc.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		var sum struct {
			TieOffs json.RawMessage `json:"tieOffs"`
		}
		if err := json.Unmarshal(data, &sum); err != nil {
			t.Fatal(err)
		}
		return sum.TieOffs
	}

	dir := t.TempDir()
	st, _, _, err := openStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := normalize(JobSpec{Design: "dr5", Bench: "loop"})
	if err != nil {
		t.Fatal(err)
	}
	rec := &jobRecord{ID: id, Spec: spec, State: StateQueued, Submitted: 1, CacheKey: id}
	img := p.image(rec)
	got, err := decodeJobRecord(img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("decode of the parent's record:\n got %+v\nwant %+v", got, rec)
	}
	if !bytes.Equal(got.encode(), reencoded(img)) {
		t.Error("the parent's record does not re-encode with its retired slots emptied")
	}
	if err := os.WriteFile(st.jobPath(rec.ID), img, 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{DataDir: dir, Workers: 1, buildPlatform: loopPlatform(t, mask), Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	restarted := tieOffs(svc, rec.ID)

	fresh, err := New(Config{DataDir: t.TempDir(), Workers: 1, buildPlatform: loopPlatform(t, mask), Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	view, err := fresh.Submit(JobSpec{Design: "dr5", Bench: "loop"})
	if err != nil {
		t.Fatal(err)
	}
	if plain := tieOffs(fresh, view.ID); len(plain) == 0 || !bytes.Equal(restarted, plain) {
		t.Errorf("tie-offs of the parent's job differ from a plain submission's:\n parent %s\n plain  %s", restarted, plain)
	}
}
