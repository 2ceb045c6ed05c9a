package wire

import (
	"encoding/binary"
	"fmt"
)

// AppendString appends s as a little-endian u32 length and its bytes —
// the string framing every registered format shares.
func AppendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// Reader is the strict cursor the decoders of the registered formats
// share. It never panics on malformed input: it keeps the first error,
// which wraps the sentinel the reader was made with (so errors.Is against
// the format's own corruption error holds), and every read after an error
// is a no-op returning the zero value.
type Reader struct {
	b       []byte
	off     int
	err     error
	corrupt error
}

// NewReader returns a reader over data whose errors wrap corrupt.
func NewReader(data []byte, corrupt error) *Reader {
	return &Reader{b: data, corrupt: corrupt}
}

// Failf records a decode error at the current offset unless one is
// already kept.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: offset %d: %s", r.corrupt, r.off, fmt.Sprintf(format, args...))
	}
}

// Err returns the first error.
func (r *Reader) Err() error { return r.err }

// End returns the first error, or an error when unread bytes remain.
func (r *Reader) End() error {
	if len(r.b) != r.off {
		r.Failf("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// Rest returns the unread bytes without consuming them, nil after an
// error. A caller that hands them to another decoder consumes what that
// decoder took with Bytes.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	return r.b[r.off:]
}

// Bytes consumes n bytes. The result aliases the image.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.Failf("truncated (want %d bytes, have %d)", n, len(r.b)-r.off)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Str reads a string framed by AppendString.
func (r *Reader) Str() string {
	return string(r.Bytes(int(r.U32())))
}
