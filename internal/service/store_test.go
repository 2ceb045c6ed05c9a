package service

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleRecord() *jobRecord {
	return &jobRecord{
		ID: "a1b2c3",
		Spec: JobSpec{
			Design: "dr5", Bench: "tea8", Policy: "clustered", K: 4,
			Engine: "batch", MemX: "verilog", Workers: 2, Lanes: 4, Priority: -3,
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
		Resumable:  true,
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

// v1Image rewrites a version-2 record image into the version-1 layout:
// the old magic, and no lane count after the worker count.
func v1Image(t testing.TB, rec *jobRecord) []byte {
	t.Helper()
	v2 := rec.encode()
	lanes := len(jobMagic)
	for _, s := range []string{rec.ID, rec.Spec.Design, rec.Spec.Bench, rec.Spec.Policy, rec.Spec.Engine, rec.Spec.MemX} {
		lanes += 4 + len(s)
	}
	lanes += 3 * 4 // K, MaxStates, Workers
	v1 := append([]byte(jobMagicV1), v2[len(jobMagic):lanes]...)
	return append(v1, v2[lanes+4:]...)
}

// A record written before Lanes was persisted still decodes, with the
// engine-default lane count, and is rewritten in the current version.
func TestJobRecordVersion1StillDecodes(t *testing.T) {
	want := sampleRecord()
	want.Spec.Lanes = 0
	got, err := decodeJobRecord(v1Image(t, sampleRecord()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("version-1 decode:\n got %+v\nwant %+v", got, want)
	}
	if !bytes.Equal(got.encode(), want.encode()) {
		t.Error("version-1 record does not re-encode as its version-2 image")
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
			if !bytes.Equal(rec.encode(), mut) {
				t.Fatalf("flip %d/%d: accepted input does not re-encode canonically", i, bit)
			}
		}
	}
}

func FuzzJobRecordRoundTrip(f *testing.F) {
	f.Add(sampleRecord().encode())
	f.Add(v1Image(f, sampleRecord()))
	f.Add([]byte(jobMagic))
	f.Add([]byte(jobMagicV1))
	f.Add([]byte("SYMSIMJ9junk"))
	trunc := sampleRecord().encode()
	f.Add(trunc[:len(trunc)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeJobRecord(data)
		if err != nil {
			if !errors.Is(err, ErrJobRecordCorrupt) {
				t.Fatalf("error %v does not wrap ErrJobRecordCorrupt", err)
			}
			return
		}
		enc := rec.encode()
		if bytes.HasPrefix(data, []byte(jobMagicV1)) {
			// A version-1 input is rewritten as version 2: same record.
			again, err := decodeJobRecord(enc)
			if err != nil || !reflect.DeepEqual(again, rec) {
				t.Fatalf("version-1 input does not survive its rewrite: %v", err)
			}
			return
		}
		if !bytes.Equal(enc, data) {
			t.Fatal("accepted input does not re-encode byte-identically")
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
	if st.hasCheckpoint(rec.ID) {
		t.Error("phantom checkpoint")
	}
	if err := st.atomicWrite(st.checkpointPath(rec.ID), []byte("ck")); err != nil {
		t.Fatal(err)
	}
	if !st.hasCheckpoint(rec.ID) {
		t.Error("checkpoint not seen")
	}
	st.removeCheckpoint(rec.ID)
	if st.hasCheckpoint(rec.ID) {
		t.Error("checkpoint survived removal")
	}

	// No temp litter after atomic writes.
	for _, sub := range []string{"jobs", "results", "cache", "ckpt"} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".job" && filepath.Ext(e.Name()) != ".json" && filepath.Ext(e.Name()) != ".ckpt" {
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
