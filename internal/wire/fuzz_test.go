package wire

import (
	"bytes"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
)

// FuzzDecode drives every Reader method over arbitrary input: whatever the
// bytes, decoding must never panic, errors must be sticky, and the offset
// must never run past the buffer.
func FuzzDecode(f *testing.F) {
	// Seed corpus: valid encodings of each field type, truncations,
	// adversarial length prefixes, empty input.
	f.Add([]byte{})
	f.Add([]byte{0x00})
	w := NewWriter()
	w.Uvarint(300)
	w.Byte(0x7f)
	w.Bool(true)
	w.ID(42)
	w.IDSet(model.NewIDSet(1, 5, 9))
	w.BytesField([]byte("payload"))
	f.Add(w.Bytes())
	f.Add(w.Bytes()[:3])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // huge uvarint
	f.Add([]byte{0x81, 0x80, 0x80, 0x80, 0x01, 0x01, 0x02})                   // length prefix > MaxChunk

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		// Use the first byte to pick a decode schedule, so the fuzzer
		// explores different method interleavings.
		var sel byte
		if len(data) > 0 {
			sel = data[0]
		}
		for i := 0; i < 8; i++ {
			switch (int(sel) + i) % 6 {
			case 0:
				r.Uvarint()
			case 1:
				r.Byte()
			case 2:
				r.Bool()
			case 3:
				r.ID()
			case 4:
				if s := r.IDSet(); r.Err() != nil && s.Len() != 0 {
					t.Fatalf("IDSet returned %v after error %v", s, r.Err())
				}
			case 5:
				if b := r.BytesField(); r.Err() != nil && b != nil {
					t.Fatalf("BytesField returned %d bytes after error %v", len(b), r.Err())
				}
			}
			if r.Remaining() < 0 {
				t.Fatalf("offset ran past the buffer: remaining %d", r.Remaining())
			}
		}
		r.IDSet()
		firstErr := r.Err()
		r.Uvarint()
		if firstErr != nil && r.Err() != firstErr {
			t.Fatalf("error not sticky: %v then %v", firstErr, r.Err())
		}
		_ = r.Done()
	})
}

// FuzzRoundTrip encodes fuzzer-chosen values and asserts decoding returns
// them exactly, with the buffer fully consumed.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0), true, uint64(1), []byte(nil), []byte("v"))
	f.Add(uint64(1<<63), false, uint64(1<<20), []byte{9, 9, 1, 0, 255}, bytes.Repeat([]byte{0xab}, 100))

	f.Fuzz(func(t *testing.T, x uint64, b bool, id uint64, setRaw []byte, payload []byte) {
		set := model.NewIDSet()
		for _, v := range setRaw {
			set.Add(model.ID(v))
		}

		w := NewWriter()
		w.Uvarint(x)
		w.Bool(b)
		w.ID(model.ID(id))
		w.IDSet(set)
		w.BytesField(payload)

		r := NewReader(w.Bytes())
		if got := r.Uvarint(); got != x {
			t.Fatalf("Uvarint: %d != %d", got, x)
		}
		if got := r.Bool(); got != b {
			t.Fatalf("Bool: %t != %t", got, b)
		}
		if got := r.ID(); got != model.ID(id) {
			t.Fatalf("ID: %d != %d", got, id)
		}
		if got := r.IDSet(); !got.Equal(set) {
			t.Fatalf("IDSet: %v != %v", got, set)
		}
		if got := r.BytesField(); !bytes.Equal(got, payload) {
			t.Fatalf("BytesField: %x != %x", got, payload)
		}
		if err := r.Done(); err != nil {
			t.Fatalf("Done: %v", err)
		}
	})
}
