package wire

import (
	"errors"
	"strings"
	"testing"
)

// TestRegistryShape enforces the registry's own invariants: well-formed
// unique magics, names, owners, and a fuzz target on every decodable
// format. (SA004 additionally verifies the fuzz targets exist and that no
// magic literal appears outside this package.)
func TestRegistryShape(t *testing.T) {
	seen := make(map[string]bool)
	for _, f := range Formats {
		if len(f.Magic) != 8 || !strings.HasPrefix(f.Magic, "SYMSIM") {
			t.Errorf("magic %q is not an 8-byte SYMSIM?? identifier", f.Magic)
		}
		if seen[f.Magic] {
			t.Errorf("duplicate magic %q", f.Magic)
		}
		seen[f.Magic] = true
		if f.Name == "" || f.Package == "" {
			t.Errorf("magic %q missing name or package", f.Magic)
		}
		if f.DigestOnly && f.Fuzz != "" {
			t.Errorf("digest-only format %q claims fuzz target %q", f.Magic, f.Fuzz)
		}
		if !f.DigestOnly && f.Fuzz == "" {
			t.Errorf("decodable format %q has no fuzz target", f.Magic)
		}
	}
}

func TestByMagic(t *testing.T) {
	if f := ByMagic(CheckpointMagic); f == nil || f.Name != "checkpoint" {
		t.Fatalf("ByMagic(CheckpointMagic) = %+v", f)
	}
	if f := ByMagic("SYMSIMZ9"); f != nil {
		t.Fatalf("ByMagic(unknown) = %+v, want nil", f)
	}
}

// TestReaderKeepsFirstErrorUnderSentinel: a read past the end fails with
// an error wrapping the caller's sentinel, later reads and failures leave
// it in place and return zero values, and End rejects trailing bytes.
func TestReaderKeepsFirstErrorUnderSentinel(t *testing.T) {
	corrupt := errors.New("corrupt")
	img := AppendString([]byte{7, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}, "ab")

	r := NewReader(img, corrupt)
	if r.U8() != 7 || r.U32() != 1 || r.U64() != 2 || r.Str() != "ab" || r.End() != nil {
		t.Fatalf("well-formed image: err %v", r.Err())
	}

	r = NewReader(img[:len(img)-1], corrupt)
	r.Bytes(13)
	if s := r.Str(); s != "" || !errors.Is(r.Err(), corrupt) {
		t.Fatalf("truncated string = %q, err %v; want the sentinel", s, r.Err())
	}
	first := r.Err()
	r.Failf("a later failure")
	if r.U64() != 0 || r.Rest() != nil || r.End() != first {
		t.Errorf("reads after an error must be zero and keep it; err now %v", r.Err())
	}

	r = NewReader(img, corrupt)
	r.Bytes(5)
	if rest := r.Rest(); len(rest) != len(img)-5 || r.Err() != nil {
		t.Errorf("Rest = %d bytes, err %v", len(rest), r.Err())
	}
	if err := r.End(); !errors.Is(err, corrupt) {
		t.Errorf("trailing bytes: End = %v, want the sentinel", err)
	}
}
