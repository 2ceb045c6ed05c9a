package service

import (
	"bytes"
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
			Engine: "batch", Workers: 2, Lanes: 4, Priority: -3,
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

// legacyImage rewrites a current record image into the layout of an older
// version: its magic, the X-address write rule after the engine, and for
// version 1 no lane count after the worker count.
func legacyImage(t testing.TB, rec *jobRecord, magic, rule string) []byte {
	t.Helper()
	cur := rec.encode()
	at := len(jobMagic)
	for _, s := range []string{rec.ID, rec.Spec.Design, rec.Spec.Bench, rec.Spec.Policy, rec.Spec.Engine} {
		at += 4 + len(s)
	}
	img := wire.AppendString(append([]byte(magic), cur[len(jobMagic):at]...), rule)
	lanes := at + 3*4 // K, MaxStates, Workers
	img = append(img, cur[at:lanes]...)
	if magic == jobMagicV1 {
		return append(img, cur[lanes+4:]...)
	}
	return append(img, cur[lanes:]...)
}

// A record written before Lanes was persisted still decodes, with the
// engine-default lane count, its X-address write rule read and dropped,
// and is rewritten in the current version.
func TestJobRecordVersion1StillDecodes(t *testing.T) {
	want := sampleRecord()
	want.Spec.Lanes = 0
	got, err := decodeJobRecord(legacyImage(t, want, jobMagicV1, "sound"))
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

// A version-2 record decodes to the same spec, less its X-address write
// rule, whichever rule it chose.
func TestJobRecordVersion2StillDecodes(t *testing.T) {
	for _, rule := range []string{"sound", "verilog"} {
		want := sampleRecord()
		got, err := decodeJobRecord(legacyImage(t, want, jobMagicV2, rule))
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

// withoutRetiredFlag is the image a version-3 record re-encodes as: itself,
// less the retired flag bit (the flags byte is last).
func withoutRetiredFlag(img []byte) []byte {
	img = append([]byte{}, img...)
	img[len(img)-1] &^= retiredFlag
	return img
}

// Every single-bit flip of a valid record must either decode to something
// that re-encodes canonically or fail with ErrJobRecordCorrupt — never
// panic, never round-trip inconsistently.
func TestJobRecordBitFlips(t *testing.T) {
	good := sampleRecord().encode()
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
			if !bytes.Equal(rec.encode(), withoutRetiredFlag(mut)) {
				t.Fatalf("flip %d/%d: accepted input does not re-encode canonically", i, bit)
			}
		}
	}
}

func FuzzJobRecordRoundTrip(f *testing.F) {
	f.Add(sampleRecord().encode())
	f.Add(legacyImage(f, sampleRecord(), jobMagicV1, "sound"))
	f.Add([]byte(jobMagic))
	f.Add([]byte(jobMagicV1))
	f.Add([]byte("SYMSIMJ9junk"))
	trunc := sampleRecord().encode()
	f.Add(trunc[:len(trunc)-3])
	f.Add(legacyImage(f, sampleRecord(), jobMagicV2, "verilog"))
	retired := sampleRecord().encode()
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
		if !bytes.Equal(enc, withoutRetiredFlag(data)) {
			t.Fatal("accepted input does not re-encode byte-identically, less the retired flag")
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
	spec, err := normalize(JobSpec{Design: "dr5", Bench: "loop", Workers: 1}, nil)
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
	if !bytes.Equal(got.encode(), withoutRetiredFlag(img)) {
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
	svc, err := New(Config{DataDir: dir, Workers: 1, BuildPlatform: loopPlatform(t, 0x1), Metrics: obs.NewRegistry()})
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
