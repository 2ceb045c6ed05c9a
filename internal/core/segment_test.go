package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"symsim/internal/logic"
	"symsim/internal/vvp"
	"symsim/internal/wire"
)

// The sample segments live on an 11-net, 5-state-bit platform: widths that
// are not multiples of 8 or 4, so the bitmap and value-array padding rules
// are exercised.
const (
	sampleNets      = 11
	sampleStateBits = 5
)

func sampleState() vvp.State {
	bits := logic.NewVec(sampleStateBits)
	bits.Set(0, logic.Hi)
	bits.Set(2, logic.X)
	bits.Set(4, logic.Lo)
	return vvp.State{Bits: bits, Time: 99, PC: 0x44, PCKnown: true}
}

// sampleWork is one encoding per kind of entry: cold boot and forced child.
func sampleWork() [][]byte {
	return [][]byte{
		appendWork(nil, entry{parent: -1}),
		appendWork(nil, entry{state: sampleState(), forced: logic.Hi, hasForce: true, parent: 3}),
	}
}

// sampleOutcomes is one encoding per shape and end: a fork with its halt
// state, a finished and an interrupted profile, a fatal error, a quarantine.
func sampleOutcomes() [][]byte {
	toggled := []uint64{0b100_0100_0101}
	vals := []logic.Value{0, logic.Hi, 0, logic.Lo, logic.X, logic.Hi, 0, logic.Lo, logic.Lo, logic.Hi, logic.Z}
	profile := func(end PathEnd) pathOutcome {
		return pathOutcome{stat: PathStat{Cycles: 700, End: end}, toggled: toggled, endVals: vals, evals: 12345, sweeps: 67}
	}
	forked := profile(EndForked)
	forked.halt = sampleState()
	forked.stat.HaltPC = forked.halt.PC
	finished, interrupted := profile(EndFinished), profile(EndInterrupted)
	failed := pathOutcome{err: errors.New("core: program counter contained X at halt")}
	quarantined := pathOutcome{
		stat:       PathStat{HaltPC: 0x44, End: EndQuarantined},
		quarantine: &Quarantine{PC: 0x44, Time: 99, Panic: "boom", Stack: "goroutine 7 [running]:\n..."},
	}
	var encs [][]byte
	for _, out := range []*pathOutcome{&forked, &finished, &interrupted, &failed, &quarantined} {
		encs = append(encs, appendOutcome(nil, out, 1500*time.Microsecond))
	}
	return encs
}

// reencode decodes data as whichever half of the segment encoding its magic
// names and encodes the result again.
func reencode(data []byte) ([]byte, error) {
	if bytes.HasPrefix(data, []byte(wire.WorkMagic)) {
		e, err := decodeWork(sampleStateBits, data)
		if err != nil {
			return nil, err
		}
		return appendWork(nil, e), nil
	}
	out, wall, err := decodeOutcome(sampleNets, sampleStateBits, data)
	if err != nil {
		return nil, err
	}
	return appendOutcome(nil, &out, wall), nil
}

func TestSegmentCodecRoundTrip(t *testing.T) {
	for i, enc := range append(sampleWork(), sampleOutcomes()...) {
		re, err := reencode(enc)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if !bytes.Equal(re, enc) {
			t.Errorf("sample %d: decode-then-encode is not byte-identical", i)
		}
	}

	e, err := decodeWork(sampleStateBits, sampleWork()[1])
	if err != nil {
		t.Fatal(err)
	}
	if !e.hasForce || e.forced != logic.Hi || !e.state.Bits.Equal(sampleState().Bits) || e.state.PC != 0x44 {
		t.Errorf("forced entry lost fields: %+v", e)
	}
	out, wall, err := decodeOutcome(sampleNets, sampleStateBits, sampleOutcomes()[0])
	if err != nil {
		t.Fatal(err)
	}
	if out.stat.End != EndForked || out.stat.Cycles != 700 || out.evals != 12345 || out.sweeps != 67 ||
		wall != 1500*time.Microsecond || out.toggled[0]>>10&1 == 0 || out.endVals[4] != logic.X || out.halt.PC != 0x44 {
		t.Errorf("forked outcome lost fields: %+v wall %v", out, wall)
	}
	if out, _, err = decodeOutcome(sampleNets, sampleStateBits, sampleOutcomes()[4]); err != nil || out.quarantine == nil || out.quarantine.Panic != "boom" {
		t.Errorf("quarantined outcome lost its record: %+v, %v", out, err)
	}
}

// An outcome's toggle profile travels in the checkpoint's bitmap encoding:
// appendWords of packed marks is appendBitmap of the marks, for every
// length across two words.
func TestOutcomeProfileEncodingUnchanged(t *testing.T) {
	for n := 0; n <= 130; n++ {
		marks := make([]bool, n)
		for i := range marks {
			marks[i] = (i*7+n)%3 == 0
		}
		words := make([]uint64, (n+63)/64)
		packBits(words, marks)
		if got, want := appendWords(nil, words, n), appendBitmap(nil, marks); !bytes.Equal(got, want) {
			t.Fatalf("%d nets: %x, want %x", n, got, want)
		}
	}
}

func TestSegmentDecodeRejectsMalformed(t *testing.T) {
	work, forked := sampleWork()[1], sampleOutcomes()[0]
	for name, data := range map[string][]byte{
		"empty":              nil,
		"work magic only":    []byte(wire.WorkMagic),
		"outcome magic only": []byte(wire.OutcomeMagic),
		"checkpoint magic":   append([]byte(wire.CheckpointMagic), forked[8:]...),
		"truncated work":     work[:len(work)-1],
		"truncated outcome":  forked[:len(forked)/2],
		"trailing byte":      append(append([]byte(nil), forked...), 0),
	} {
		if _, err := reencode(data); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: err = %v, want ErrCheckpointCorrupt", name, err)
		}
	}
	// Right bytes, wrong platform.
	if _, err := decodeWork(sampleStateBits+1, work); err == nil {
		t.Error("work for another state width accepted")
	}
	if _, _, err := decodeOutcome(sampleNets+1, sampleStateBits, forked); err == nil {
		t.Error("outcome for another net count accepted")
	}
	if _, _, err := decodeOutcome(sampleNets, sampleStateBits+1, forked); err == nil {
		t.Error("outcome with a halt state of another width accepted")
	}
	// A driver never reports a CSM verdict, and a profile is not a crash.
	for _, end := range []PathEnd{EndSubsumed, EndQuarantined, EndQuarantined + 1} {
		mut := append([]byte(nil), sampleOutcomes()[1]...)
		mut[8] = uint8(end)
		if _, _, err := decodeOutcome(sampleNets, sampleStateBits, mut); err == nil {
			t.Errorf("profiled outcome ending %v accepted", end)
		}
	}
}

// Every single-bit flip of a valid segment encoding must either decode to
// something that re-encodes canonically or fail with a typed
// ErrCheckpointCorrupt — never panic, never decode inconsistently.
func TestSegmentDecodeBitFlips(t *testing.T) {
	for si, good := range append(sampleWork(), sampleOutcomes()...) {
		for i := range good {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), good...)
				mut[i] ^= 1 << bit
				re, err := reencode(mut)
				if err != nil {
					if !errors.Is(err, ErrCheckpointCorrupt) {
						t.Fatalf("sample %d flip byte %d bit %d: error %v does not wrap ErrCheckpointCorrupt", si, i, bit, err)
					}
					continue
				}
				if !bytes.Equal(re, mut) {
					t.Fatalf("sample %d flip byte %d bit %d: accepted input does not re-encode canonically", si, i, bit)
				}
			}
		}
	}
}

// FuzzSegmentRoundTrip: neither decoder may panic, and any input one
// accepts must re-encode to the identical bytes (the encoding is canonical).
func FuzzSegmentRoundTrip(f *testing.F) {
	for _, good := range append(sampleWork(), sampleOutcomes()...) {
		f.Add(good)
		f.Add(good[:len(good)-1])
		f.Add(good[:len(good)/2])
		for _, i := range []int{8, 9, len(good) / 3, len(good) - 2} {
			mut := append([]byte(nil), good...)
			mut[i] ^= 0x40
			f.Add(mut)
		}
	}
	f.Add([]byte(wire.WorkMagic))
	f.Add([]byte(wire.OutcomeMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		re, err := reencode(data)
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCheckpointCorrupt", err)
			}
			return
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted input does not re-encode byte-identically")
		}
	})
}
