package core

import (
	"encoding/binary"
	"errors"
	"slices"
	"time"

	"symsim/internal/logic"
	"symsim/internal/wire"
)

// The segment encoding: what crosses between a run's state and a driver in
// another process (Run.Admit → Source → Explore → Source → Run.Settle).
// Work is one frontier entry, an outcome is what simulating it produced.
// Both are built from the SYMSIMC1 primitives — a pending path, a bitmap,
// a value array — under magics of their own, are canonical (an accepted
// input re-encodes to the same bytes) and are validated against the
// platform on decode; malformed input yields an error wrapping
// ErrCheckpointCorrupt, never a panic (FuzzSegmentRoundTrip).

// appendWork encodes e for a driver: its start state and branch force. The
// rest of the entry (ancestry, path ID) stays with the state, which keeps
// the entry in flight.
func appendWork(b []byte, e entry) []byte {
	// Two 64-bit planes per 64 state bits, plus magic and header: one
	// allocation instead of a doubling chain per admitted segment.
	b = slices.Grow(b, 64+e.state.Bits.Width()/4)
	b = append(b, wire.WorkMagic...)
	return appendPending(b, PendingPath{State: e.state, Forced: e.forced, HasForce: e.hasForce})
}

// decodeWork parses appendWork's output for a platform whose machine state
// is stateBits wide.
func decodeWork(stateBits int, data []byte) (entry, error) {
	r := newByteReader(data)
	r.magic(wire.WorkMagic)
	pp := r.pending(stateBits)
	if err := r.End(); err != nil {
		return entry{}, err
	}
	return entry{state: pp.State, forced: pp.Forced, hasForce: pp.HasForce, parent: -1}, nil
}

// appendOutcome encodes what a driver hands to settle: the segment's
// statistics (the path ID travels beside the encoding, not in it), effort
// and wall time, its toggle profile and end valuation, the halt state of a
// forked segment, and the error or quarantine record of one that died.
func appendOutcome(b []byte, out *pathOutcome, wall time.Duration) []byte {
	b = append(b, wire.OutcomeMagic...)
	b = append(b, uint8(out.stat.End))
	b = binary.LittleEndian.AppendUint64(b, out.stat.Cycles)
	b = binary.LittleEndian.AppendUint64(b, out.stat.HaltPC)
	b = binary.LittleEndian.AppendUint64(b, out.evals)
	b = binary.LittleEndian.AppendUint64(b, out.sweeps)
	b = binary.LittleEndian.AppendUint64(b, uint64(wall))
	switch {
	case out.err != nil:
		b = append(b, outcomeFailed)
		b = wire.AppendString(b, out.err.Error())
	case out.quarantine != nil:
		q := out.quarantine
		b = append(b, outcomeQuarantined)
		b = binary.LittleEndian.AppendUint64(b, q.PC)
		b = binary.LittleEndian.AppendUint64(b, q.Time)
		b = wire.AppendString(b, q.Panic)
		b = wire.AppendString(b, q.Stack)
	default:
		b = append(b, outcomeProfiled)
		b = appendWords(b, out.toggled, len(out.endVals))
		b = appendValues(b, out.endVals)
		if out.stat.End == EndForked {
			b = out.halt.AppendBinary(b)
		}
	}
	return b
}

// The three shapes of an outcome: a fatal error, a contained panic, or a
// toggle profile (with the halt state when the segment ended at a fork).
const (
	outcomeProfiled uint8 = iota
	outcomeFailed
	outcomeQuarantined
)

// decodeOutcome parses appendOutcome's output for a platform of nets nets
// and stateBits state bits. The path ID fields (stat.ID, quarantine.PathID)
// are the caller's to fill.
func decodeOutcome(nets, stateBits int, data []byte) (out pathOutcome, wall time.Duration, err error) {
	r := newByteReader(data)
	r.magic(wire.OutcomeMagic)
	end := PathEnd(r.U8())
	out.stat = PathStat{End: end, Cycles: r.U64(), HaltPC: r.U64()}
	out.evals, out.sweeps = r.U64(), r.U64()
	wall = time.Duration(r.U64())
	switch shape := r.U8(); {
	case r.Err() != nil:
	case wall < 0:
		r.Failf("wall time out of range")
	case shape == outcomeFailed:
		out.err = errors.New(r.Str())
	case shape == outcomeQuarantined && end == EndQuarantined:
		out.quarantine = &Quarantine{PC: r.U64(), Time: r.U64(), Panic: r.Str(), Stack: r.Str()}
	case shape == outcomeProfiled && end <= EndInterrupted && end != EndSubsumed:
		// moved stays nil: what the remote explorer's simulator held before
		// the segment is unknown here, so absorb reads every net.
		out.toggled = make([]uint64, (nets+63)/64)
		packBits(out.toggled, r.bitmap(nets))
		out.endVals = r.values(nets)
		if end == EndForked {
			// classify files the halt under its PC; an X there is the
			// driver's error to report, not a state to store.
			if out.halt = r.state(); r.Err() == nil && (out.halt.Bits.Width() != stateBits || !out.halt.PCKnown || out.halt.PC != out.stat.HaltPC) {
				r.Failf("halt state does not match the platform or the halt PC")
			}
		}
	default:
		r.Failf("outcome shape %d does not fit path end %d", shape, end)
	}
	return out, wall, r.End()
}

// appendPending encodes one worklist entry: a flags byte, the forced value
// and the saved state.
func appendPending(b []byte, p PendingPath) []byte {
	var flags uint8
	forced := logic.Lo
	if p.HasForce {
		flags = 1
		forced = p.Forced
	}
	b = append(b, flags, uint8(forced))
	return p.State.AppendBinary(b)
}

// pending reads one worklist entry whose state, unless it is the zero-width
// cold-boot state, must be stateBits wide.
func (r byteReader) pending(stateBits int) PendingPath {
	flags := r.U8()
	forced := r.U8()
	st := r.state()
	if r.Err() != nil {
		return PendingPath{}
	}
	p := PendingPath{State: st, HasForce: flags == 1}
	switch {
	case flags > 1:
		r.Failf("pending path has flags byte %d", flags)
	case p.HasForce && forced > uint8(logic.Hi):
		r.Failf("pending path forces non-binary value %d", forced)
	case !p.HasForce && forced != 0:
		r.Failf("pending path has force value without force flag")
	case st.Bits.Width() != 0 && st.Bits.Width() != stateBits:
		r.Failf("pending path has %d state bits, want %d", st.Bits.Width(), stateBits)
	}
	if p.HasForce {
		p.Forced = logic.Value(forced)
	}
	return p
}
