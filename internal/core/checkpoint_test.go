package core_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"symsim/internal/core"
	"symsim/internal/csm"
	"symsim/internal/logic"
	"symsim/internal/netlist"
	"symsim/internal/vvp"
)

// sampleCheckpoint builds a small checkpoint exercising every section of
// the format: CSM states, pending paths (cold-boot and forced), bitmaps
// with non-byte-aligned widths, path stats and quarantine records.
func sampleCheckpoint() *core.Checkpoint {
	bits := logic.NewVec(5)
	bits.Set(0, logic.Hi)
	bits.Set(2, logic.X)
	bits.Set(4, logic.Lo)
	return &core.Checkpoint{
		Design:    "sample",
		Nets:      11,
		StateBits: 5,
		// Trails the encoding; the zero value (a file from before the
		// field) is the fuzz target's second seed.
		DesignHash: netlist.Digest{0: 0xC0, 7: 0x01, 31: 0xFE},
		Policy:     "merge-all",
		CSM:        []csm.SavedState{{PC: 0x42, Bits: bits.Clone()}},
		Pending: []core.PendingPath{
			{State: vvp.State{}}, // cold boot
			{State: vvp.State{Bits: bits.Clone(), Time: 99, PC: 0x44, PCKnown: true}, Forced: logic.Hi, HasForce: true},
		},
		Toggled:         []bool{true, false, true, false, false, false, true, false, false, false, true},
		ConstSeen:       []bool{false, true, false, true, true, true, false, true, true, true, false},
		ConstVals:       []logic.Value{0, logic.Hi, 0, logic.Lo, logic.X, logic.Hi, 0, logic.Lo, logic.Lo, logic.Hi, 0},
		PathsCreated:    3,
		PathsSkipped:    1,
		SimulatedCycles: 1234,
		NextID:          2,
		Paths: []core.PathStat{
			{ID: 0, Cycles: 700, HaltPC: 0x42, End: core.EndForked},
			{ID: 1, Cycles: 534, HaltPC: 0, End: core.EndQuarantined},
		},
		Quarantined: []core.Quarantine{
			{PathID: 1, PC: 0x44, Time: 99, Panic: "boom", Stack: "goroutine 7 [running]:\n..."},
		},
	}
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	c := sampleCheckpoint()
	enc := c.EncodeBinary()
	dec, err := core.DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	re := dec.EncodeBinary()
	if !bytes.Equal(enc, re) {
		t.Fatal("decode-then-encode is not byte-identical")
	}
	if dec.Design != c.Design || dec.NextID != c.NextID || len(dec.Pending) != len(c.Pending) || dec.DesignHash != c.DesignHash {
		t.Fatalf("decoded checkpoint lost fields: %+v", dec)
	}
	if !dec.Pending[1].HasForce || dec.Pending[1].Forced != logic.Hi {
		t.Error("forced pending path lost its force")
	}
	if dec.Pending[0].State.Bits.Width() != 0 {
		t.Error("cold-boot pending path gained state bits")
	}
}

func TestDecodeCheckpointRejectsMalformed(t *testing.T) {
	enc := sampleCheckpoint().EncodeBinary()
	if _, err := core.DecodeCheckpoint(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := core.DecodeCheckpoint([]byte("NOTACKPT")); err == nil {
		t.Error("bad magic accepted")
	}
	for _, cut := range []int{9, len(enc) / 2, len(enc) - 1} {
		if _, err := core.DecodeCheckpoint(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := core.DecodeCheckpoint(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// The design hash is left out when zero; spelling the zero out is a
	// second encoding of the same checkpoint and must not decode.
	c := sampleCheckpoint()
	c.DesignHash = netlist.Digest{}
	bare := c.EncodeBinary()
	if len(bare) != len(enc)-len(c.DesignHash) {
		t.Fatalf("zero design hash encodes to %d bytes, want %d", len(bare), len(enc)-len(c.DesignHash))
	}
	if _, err := core.DecodeCheckpoint(append(bare, make([]byte, len(c.DesignHash))...)); !errors.Is(err, core.ErrCheckpointCorrupt) {
		t.Errorf("explicit zero design hash: err = %v, want ErrCheckpointCorrupt", err)
	}
}

// LoadCheckpoint on a damaged file must return a typed error wrapping
// ErrCheckpointCorrupt naming the file — and never panic — so the caller
// can tell a corrupt checkpoint from an I/O failure and restart fresh.
func TestLoadCheckpointErrorPaths(t *testing.T) {
	dir := t.TempDir()
	good := sampleCheckpoint().EncodeBinary()
	write := func(t *testing.T, data []byte) string {
		t.Helper()
		path := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_")+".ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	t.Run("missing file", func(t *testing.T) {
		_, err := core.LoadCheckpoint(filepath.Join(dir, "nope.ckpt"))
		if err == nil || errors.Is(err, core.ErrCheckpointCorrupt) {
			t.Errorf("missing file: err = %v, want I/O error, not corruption", err)
		}
	})

	cases := map[string][]byte{
		"empty":            {},
		"wrong magic":      append([]byte("SYMSIMZ9"), good[8:]...),
		"magic only":       []byte("SYMSIMC1"),
		"truncated header": good[:10],
		"truncated body":   good[:len(good)/2],
		"truncated tail":   good[:len(good)-1],
		"trailing junk":    append(append([]byte(nil), good...), 0xAA),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			path := write(t, data)
			c, err := core.LoadCheckpoint(path)
			if c != nil {
				t.Fatal("corrupt checkpoint returned a value")
			}
			if !errors.Is(err, core.ErrCheckpointCorrupt) {
				t.Fatalf("err = %v, want ErrCheckpointCorrupt", err)
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("error %q does not name the file", err)
			}
		})
	}

	t.Run("valid file loads", func(t *testing.T) {
		path := write(t, good)
		c, err := core.LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.EncodeBinary(), good) {
			t.Error("loaded checkpoint does not re-encode identically")
		}
	})
}

// Every single-bit flip of a valid checkpoint must either decode to
// something that re-encodes canonically or fail with a typed
// ErrCheckpointCorrupt — never panic, never decode inconsistently.
func TestDecodeCheckpointBitFlips(t *testing.T) {
	good := sampleCheckpoint().EncodeBinary()
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), good...)
			mut[i] ^= 1 << bit
			c, err := core.DecodeCheckpoint(mut)
			if err != nil {
				if !errors.Is(err, core.ErrCheckpointCorrupt) {
					t.Fatalf("flip byte %d bit %d: error %v does not wrap ErrCheckpointCorrupt", i, bit, err)
				}
				continue
			}
			if !bytes.Equal(c.EncodeBinary(), mut) {
				t.Fatalf("flip byte %d bit %d: accepted input does not re-encode canonically", i, bit)
			}
		}
	}
}

// FuzzCheckpointRoundTrip: DecodeCheckpoint must never panic, and any
// input it accepts must re-encode to the identical bytes (the encoding is
// canonical).
func FuzzCheckpointRoundTrip(f *testing.F) {
	good := sampleCheckpoint().EncodeBinary()
	f.Add(good)
	f.Add((&core.Checkpoint{Design: "d", Policy: "p"}).EncodeBinary())
	f.Add([]byte("SYMSIMC1"))
	f.Add([]byte{})
	// Error-path seeds: truncations, a wrong magic and targeted bit flips
	// (length prefix, flags byte, padding region) steer the fuzzer at the
	// validation branches.
	f.Add(good[:len(good)-1])
	f.Add(good[:len(good)/2])
	f.Add(good[:9])
	f.Add(append([]byte("SYMSIMZ9"), good[8:]...))
	for _, i := range []int{8, 12, len(good) / 3, len(good) - 2} {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0x40
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := core.DecodeCheckpoint(data)
		if err != nil {
			if !errors.Is(err, core.ErrCheckpointCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCheckpointCorrupt", err)
			}
			return
		}
		if !bytes.Equal(c.EncodeBinary(), data) {
			t.Fatalf("accepted input does not re-encode byte-identically")
		}
	})
}
