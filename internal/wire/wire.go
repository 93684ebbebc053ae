package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/bftcup/bftcup/internal/model"
)

// ErrTruncated is returned when a reader runs out of bytes.
var ErrTruncated = errors.New("wire: truncated input")

// ErrTooLarge is returned when a length prefix exceeds sane bounds.
var ErrTooLarge = errors.New("wire: length prefix too large")

// MaxChunk bounds any single length-prefixed field (defense against
// adversarial length prefixes from Byzantine processes).
const MaxChunk = 1 << 20

// Writer accumulates a deterministic encoding.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the encoded bytes.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the current encoded length.
func (w *Writer) Len() int { return len(w.buf) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(x uint64) {
	w.buf = binary.AppendUvarint(w.buf, x)
}

// Byte appends a raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// ID appends a process ID.
func (w *Writer) ID(id model.ID) { w.Uvarint(uint64(id)) }

// IDSet appends a set as a sorted, length-prefixed ID list (canonical).
func (w *Writer) IDSet(s model.IDSet) {
	ids := s.Sorted()
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.ID(id)
	}
}

// BytesField appends a length-prefixed byte string.
func (w *Writer) BytesField(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader decodes a deterministic encoding. Errors are sticky: after the
// first failure every subsequent read returns zero values and Err() reports
// the failure.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps buf for decoding.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns how many bytes are left.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns an error unless the buffer was fully and cleanly consumed.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return x
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// ID reads a process ID.
func (r *Reader) ID() model.ID { return model.ID(r.Uvarint()) }

// IDSet reads a set written by Writer.IDSet.
func (r *Reader) IDSet() model.IDSet {
	n := r.Uvarint()
	if r.err != nil {
		return model.NewIDSet()
	}
	if n > MaxChunk {
		r.fail(ErrTooLarge)
		return model.NewIDSet()
	}
	s := model.NewIDSet()
	for i := uint64(0); i < n; i++ {
		s.Add(r.ID())
		if r.err != nil {
			return model.NewIDSet()
		}
	}
	return s
}

// SkipIDSet advances past a set written by Writer.IDSet without
// materializing it — the receive hot path uses it to step over records it
// already holds instead of allocating a set per duplicate.
func (r *Reader) SkipIDSet() {
	n := r.Uvarint()
	if r.err != nil {
		return
	}
	if n > MaxChunk {
		r.fail(ErrTooLarge)
		return
	}
	for i := uint64(0); i < n; i++ {
		r.Uvarint()
		if r.err != nil {
			return
		}
	}
}

// SkipBytesField advances past a length-prefixed byte string without copying
// it.
func (r *Reader) SkipBytesField() {
	n := r.Uvarint()
	if r.err != nil {
		return
	}
	if n > MaxChunk {
		r.fail(ErrTooLarge)
		return
	}
	if r.Remaining() < int(n) {
		r.fail(ErrTruncated)
		return
	}
	r.off += int(n)
}

// BytesField reads a length-prefixed byte string.
func (r *Reader) BytesField() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxChunk {
		r.fail(ErrTooLarge)
		return nil
	}
	if r.Remaining() < int(n) {
		r.fail(ErrTruncated)
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += int(n)
	return out
}
