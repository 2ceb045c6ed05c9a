package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"symsim/internal/csm"
	"symsim/internal/logic"
	"symsim/internal/netlist"
	"symsim/internal/vvp"
	"symsim/internal/wire"
)

// This file implements checkpoint/resume for long co-analyses: a periodic,
// atomic serialization of everything a run needs to continue — the CSM's
// conservative states, the pending-path worklist (in-flight segments
// included, so a kill mid-path loses no work), and the accumulated toggle
// activity. Checkpoints are taken under the scheduler lock at path
// completion, which — together with CSM observation happening under the
// same lock — guarantees a consistent cut: a path is either still pending
// in the checkpoint or fully absorbed into it, never half of each.
//
// The encoding is canonical and fully validated on decode: any byte
// sequence that decodes successfully re-encodes to the identical bytes,
// and malformed input yields an error, never a panic (fuzzed by
// FuzzCheckpointRoundTrip).

// checkpointMagic identifies version 1 of the checkpoint file format.
const checkpointMagic = wire.CheckpointMagic

// ErrCheckpointCorrupt tags every checkpoint decode failure — wrong magic,
// truncation, non-canonical or out-of-range content — so callers can
// distinguish a damaged checkpoint file from I/O errors with errors.Is and
// decide to restart fresh instead of aborting.
var ErrCheckpointCorrupt = errors.New("core: corrupt checkpoint")

// corruptf builds a decode error wrapping ErrCheckpointCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCheckpointCorrupt, fmt.Sprintf(format, args...))
}

// CheckpointConfig enables periodic checkpointing of a run.
type CheckpointConfig struct {
	// Path is the checkpoint file. Writes are atomic: a temporary file in
	// the same directory is renamed over Path, so a crash mid-write never
	// corrupts the previous checkpoint.
	Path string
	// Interval is the minimum time between periodic writes; 0 checkpoints
	// after every absorbed path segment (useful in tests). Independent of
	// the interval, a final checkpoint is written when a run degrades —
	// before pending paths are force-merged — so a resumed run continues
	// the exact exploration frontier the degraded run abandoned.
	Interval time.Duration
}

// PendingPath is one unexplored worklist entry inside a checkpoint.
type PendingPath struct {
	// State is the saved simulation state the path resumes from; a
	// zero-width state denotes the cold-boot path.
	State vvp.State
	// Forced, when HasForce is set, is the branch-condition value this
	// path explores.
	Forced   logic.Value
	HasForce bool
}

// Checkpoint is a consistent snapshot of a running co-analysis: enough to
// resume exploration and reproduce, bit for bit, the dichotomy an
// uninterrupted run would have produced.
type Checkpoint struct {
	// Design, Nets and StateBits identify the platform the checkpoint
	// belongs to; resume validates all three against the live platform.
	Design    string
	Nets      int
	StateBits int
	// DesignHash is the content hash of the platform's netlist, program
	// and data image included: resuming under another benchmark of the
	// same processor is rejected. Zero in a file written before the field
	// existed, which resumes unchecked.
	DesignHash netlist.Digest
	// Policy names the CSM policy; resuming under a different policy is
	// rejected (the stored states would be re-interpreted unsoundly).
	Policy string
	// CSM holds the policy's exported conservative states.
	CSM []csm.SavedState
	// Pending is the unexplored worklist, bottom of the stack first;
	// segments that were in flight when the snapshot was taken are
	// appended last so a resumed run pops them first.
	Pending []PendingPath
	// Toggled, ConstSeen and ConstVals are the accumulated toggle profile
	// and untoggled-net constants, indexed by net.
	Toggled   []bool
	ConstSeen []bool
	ConstVals []logic.Value
	// Path/cycle accounting at the snapshot.
	PathsCreated    int
	PathsSkipped    int
	SimulatedCycles uint64
	NextID          int
	Paths           []PathStat
	// Quarantined carries crashed paths from the interrupted run so a
	// resumed result still reports them (and stays Complete=false).
	Quarantined []Quarantine
}

// EncodeBinary serializes c into the canonical checkpoint format.
func (c *Checkpoint) EncodeBinary() []byte {
	b := []byte(checkpointMagic)
	b = wire.AppendString(b, c.Design)
	b = wire.AppendString(b, c.Policy)
	b = binary.LittleEndian.AppendUint32(b, uint32(c.Nets))
	b = binary.LittleEndian.AppendUint32(b, uint32(c.StateBits))

	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.CSM)))
	for _, s := range c.CSM {
		b = binary.LittleEndian.AppendUint64(b, s.PC)
		b = s.Bits.AppendBinary(b)
	}

	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Pending)))
	for _, p := range c.Pending {
		b = appendPending(b, p)
	}

	b = appendBitmap(b, c.Toggled)
	b = appendBitmap(b, c.ConstSeen)
	b = appendValues(b, c.ConstVals)

	b = binary.LittleEndian.AppendUint64(b, uint64(c.PathsCreated))
	b = binary.LittleEndian.AppendUint64(b, uint64(c.PathsSkipped))
	b = binary.LittleEndian.AppendUint64(b, c.SimulatedCycles)
	b = binary.LittleEndian.AppendUint64(b, uint64(c.NextID))

	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Paths)))
	for _, p := range c.Paths {
		b = binary.LittleEndian.AppendUint64(b, uint64(p.ID))
		b = binary.LittleEndian.AppendUint64(b, p.Cycles)
		b = binary.LittleEndian.AppendUint64(b, p.HaltPC)
		b = append(b, uint8(p.End))
	}

	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Quarantined)))
	for _, q := range c.Quarantined {
		b = binary.LittleEndian.AppendUint64(b, uint64(q.PathID))
		b = binary.LittleEndian.AppendUint64(b, q.PC)
		b = binary.LittleEndian.AppendUint64(b, q.Time)
		b = wire.AppendString(b, q.Panic)
		b = wire.AppendString(b, q.Stack)
	}
	// The design hash trails the version-1 layout and is left out when
	// zero, so a file without it is still canonical.
	if c.DesignHash != (netlist.Digest{}) {
		b = append(b, c.DesignHash[:]...)
	}
	return b
}

// DecodeCheckpoint parses a checkpoint file image. It validates every
// field — truncated, oversized or non-canonical input yields an error,
// never a panic — and a successful decode re-encodes byte-identically.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	r := newByteReader(data)
	r.magic(checkpointMagic)
	c := &Checkpoint{}
	c.Design = r.Str()
	c.Policy = r.Str()
	c.Nets = int(r.U32())
	c.StateBits = int(r.U32())

	nCSM := int(r.U32())
	for i := 0; i < nCSM && r.Err() == nil; i++ {
		pc := r.U64()
		bits := r.vec()
		if r.Err() == nil && bits.Width() != c.StateBits {
			return nil, corruptf("CSM state %d has %d bits, header says %d", i, bits.Width(), c.StateBits)
		}
		c.CSM = append(c.CSM, csm.SavedState{PC: pc, Bits: bits})
	}

	nPend := int(r.U32())
	for i := 0; i < nPend && r.Err() == nil; i++ {
		c.Pending = append(c.Pending, r.pending(c.StateBits))
	}

	c.Toggled = r.bitmap(c.Nets)
	c.ConstSeen = r.bitmap(c.Nets)
	c.ConstVals = r.values(c.Nets)

	c.PathsCreated = r.count()
	c.PathsSkipped = r.count()
	c.SimulatedCycles = r.U64()
	c.NextID = r.count()

	nPaths := int(r.U32())
	for i := 0; i < nPaths && r.Err() == nil; i++ {
		var p PathStat
		id := r.U64()
		p.Cycles = r.U64()
		p.HaltPC = r.U64()
		end := r.U8()
		if r.Err() != nil {
			break
		}
		if id > 1<<31 {
			return nil, corruptf("path %d has implausible ID %d", i, id)
		}
		if end > uint8(EndQuarantined) {
			return nil, corruptf("path %d has unknown end %d", i, end)
		}
		p.ID, p.End = int(id), PathEnd(end)
		c.Paths = append(c.Paths, p)
	}

	nQuar := int(r.U32())
	for i := 0; i < nQuar && r.Err() == nil; i++ {
		var q Quarantine
		id := r.U64()
		q.PC = r.U64()
		q.Time = r.U64()
		q.Panic = r.Str()
		q.Stack = r.Str()
		if r.Err() != nil {
			break
		}
		if id > 1<<31 {
			return nil, corruptf("quarantine %d has implausible ID %d", i, id)
		}
		q.PathID = int(id)
		c.Quarantined = append(c.Quarantined, q)
	}

	if len(r.Rest()) > 0 {
		copy(c.DesignHash[:], r.Bytes(len(c.DesignHash)))
		if r.Err() == nil && c.DesignHash == (netlist.Digest{}) {
			return nil, corruptf("zero design hash is encoded by omission")
		}
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return c, nil
}

// LoadCheckpoint reads and decodes a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	return c, nil
}

// WriteFile atomically writes c to path: the encoding lands in a
// temporary file in the same directory which is then renamed over path.
func (c *Checkpoint) WriteFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	data := c.EncodeBinary()
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close() // the write error takes precedence
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return nil
}

// validateFor checks that c belongs to the given platform and policy
// before a resume re-seeds an analysis from it.
func (c *Checkpoint) validateFor(p *Platform, policy csm.Manager) error {
	if c.Design != p.Design.Name {
		return &ValidationError{Field: "Config.Resume", Reason: fmt.Sprintf("checkpoint is for design %q, platform is %q", c.Design, p.Design.Name)}
	}
	if c.Nets != len(p.Design.Nets) {
		return &ValidationError{Field: "Config.Resume", Reason: fmt.Sprintf("checkpoint has %d nets, design has %d", c.Nets, len(p.Design.Nets))}
	}
	if c.StateBits != p.Spec.Bits() {
		return &ValidationError{Field: "Config.Resume", Reason: fmt.Sprintf("checkpoint has %d state bits, spec has %d", c.StateBits, p.Spec.Bits())}
	}
	if c.DesignHash != (netlist.Digest{}) {
		if h := p.Design.Hash(); h != c.DesignHash {
			return &ValidationError{Field: "Config.Resume", Reason: fmt.Sprintf("checkpoint is for design and image %s, platform is %s (another benchmark of %q?)", c.DesignHash, h, p.Design.Name)}
		}
	}
	if c.Policy != policy.Name() {
		return &ValidationError{Field: "Config.Resume", Reason: fmt.Sprintf("checkpoint used policy %q, run configures %q", c.Policy, policy.Name())}
	}
	if len(c.Toggled) != c.Nets || len(c.ConstSeen) != c.Nets || len(c.ConstVals) != c.Nets {
		return &ValidationError{Field: "Config.Resume", Reason: "checkpoint net-indexed arrays disagree with its net count"}
	}
	return nil
}

// --- framing helpers ---

// appendBitmap packs a []bool as ceil(n/8) bytes, LSB first.
func appendBitmap(b []byte, bits []bool) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(bits)))
	off := len(b)
	b = append(b, make([]byte, (len(bits)+7)/8)...)
	for i, v := range bits {
		if v {
			b[off+i/8] |= 1 << (i % 8)
		}
	}
	return b
}

// appendValues packs a []logic.Value as 2 bits per entry, LSB first.
func appendValues(b []byte, vals []logic.Value) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vals)))
	off := len(b)
	b = append(b, make([]byte, (len(vals)+3)/4)...)
	for i, v := range vals {
		b[off+i/4] |= uint8(v&3) << ((i % 4) * 2)
	}
	return b
}

// byteReader is the strict cursor (wire.Reader, errors wrapping
// ErrCheckpointCorrupt) with the reads the checkpoint and segment formats
// are built from.
type byteReader struct{ *wire.Reader }

func newByteReader(data []byte) byteReader {
	return byteReader{wire.NewReader(data, ErrCheckpointCorrupt)}
}

// magic consumes a format magic.
func (r byteReader) magic(want string) {
	if got := r.Bytes(len(want)); r.Err() == nil && string(got) != want {
		r.Failf("bad magic %q, want %q", got, want)
	}
}

// count reads a u64 that must fit comfortably in an int.
func (r byteReader) count() int {
	v := r.U64()
	if v > 1<<31 {
		r.Failf("counter %d out of range", v)
		return 0
	}
	return int(v)
}

// nested hands the unread bytes to another package's decoder and consumes
// what it took.
func nested[T any](r byteReader, decode func([]byte) (T, []byte, error)) T {
	rest := r.Rest() // nil after an error, which the decoders reject
	v, after, err := decode(rest)
	if err != nil {
		r.Failf("%v", err)
		var zero T
		return zero
	}
	r.Bytes(len(rest) - len(after))
	return v
}

func (r byteReader) vec() logic.Vec { return nested(r, logic.DecodeVec) }

func (r byteReader) state() vvp.State { return nested(r, vvp.DecodeState) }

// bitmap reads a []bool whose length must equal want; padding bits in the
// final byte must be zero (canonical form).
func (r byteReader) bitmap(want int) []bool {
	n := int(r.U32())
	if r.Err() != nil {
		return nil
	}
	if n != want {
		r.Failf("bitmap length %d, want %d", n, want)
		return nil
	}
	body := r.Bytes((n + 7) / 8)
	if r.Err() != nil {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = body[i/8]>>(i%8)&1 == 1
	}
	if n%8 != 0 && body[len(body)-1]>>(n%8) != 0 {
		r.Failf("bitmap has padding bits set")
		return nil
	}
	return out
}

// values reads a []logic.Value whose length must equal want; padding
// entries in the final byte must be zero.
func (r byteReader) values(want int) []logic.Value {
	n := int(r.U32())
	if r.Err() != nil {
		return nil
	}
	if n != want {
		r.Failf("value array length %d, want %d", n, want)
		return nil
	}
	body := r.Bytes((n + 3) / 4)
	if r.Err() != nil {
		return nil
	}
	out := make([]logic.Value, n)
	for i := range out {
		out[i] = logic.Value(body[i/4] >> ((i % 4) * 2) & 3)
	}
	if n%4 != 0 && body[len(body)-1]>>((n%4)*2) != 0 {
		r.Failf("value array has padding bits set")
		return nil
	}
	return out
}
