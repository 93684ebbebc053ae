package wire

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/bftcup/bftcup/internal/model"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Uvarint(300)
	w.Byte(7)
	w.Bool(true)
	w.Bool(false)
	w.ID(42)
	w.IDSet(model.NewIDSet(3, 1, 2))
	w.BytesField([]byte("payload"))

	r := NewReader(w.Bytes())
	if got := r.Uvarint(); got != 300 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.Byte(); got != 7 {
		t.Fatalf("Byte = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round-trip failed")
	}
	if got := r.ID(); got != 42 {
		t.Fatalf("ID = %v", got)
	}
	if got := r.IDSet(); !got.Equal(model.NewIDSet(1, 2, 3)) {
		t.Fatalf("IDSet = %v", got)
	}
	if got := r.BytesField(); !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("BytesField = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalIDSetEncoding(t *testing.T) {
	a := NewWriter()
	a.IDSet(model.NewIDSet(5, 1, 9))
	b := NewWriter()
	b.IDSet(model.NewIDSet(9, 5, 1))
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("IDSet encoding is not canonical")
	}
}

func TestTruncation(t *testing.T) {
	w := NewWriter()
	w.BytesField([]byte("hello world"))
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		_ = r.BytesField()
		if r.Err() == nil && cut < len(full) {
			t.Fatalf("cut=%d: truncated read succeeded", cut)
		}
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader(nil)
	_ = r.Byte()
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	// Subsequent reads keep returning zero values, not panicking.
	if r.Uvarint() != 0 || r.ID() != 0 || r.Bool() {
		t.Fatal("sticky reads should be zero-valued")
	}
	if got := r.IDSet(); got.Len() != 0 {
		t.Fatal("sticky IDSet should be empty")
	}
	if err := r.Done(); err == nil {
		t.Fatal("Done should report the sticky error")
	}
}

func TestTooLargeRejected(t *testing.T) {
	w := NewWriter()
	w.Uvarint(MaxChunk + 1)
	r := NewReader(w.Bytes())
	_ = r.BytesField()
	if r.Err() == nil {
		t.Fatal("oversized length prefix accepted")
	}
	r2 := NewReader(w.Bytes())
	_ = r2.IDSet()
	if r2.Err() == nil {
		t.Fatal("oversized IDSet accepted")
	}
}

func TestTrailingBytes(t *testing.T) {
	w := NewWriter()
	w.Byte(1)
	w.Byte(2)
	r := NewReader(w.Bytes())
	_ = r.Byte()
	if err := r.Done(); err == nil {
		t.Fatal("Done should reject trailing bytes")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(x uint64, ids []uint16, blob []byte, flag bool) bool {
		set := model.NewIDSet()
		for _, id := range ids {
			set.Add(model.ID(id))
		}
		w := NewWriter()
		w.Uvarint(x)
		w.Bool(flag)
		w.IDSet(set)
		w.BytesField(blob)
		r := NewReader(w.Bytes())
		if r.Uvarint() != x || r.Bool() != flag {
			return false
		}
		if !r.IDSet().Equal(set) {
			return false
		}
		if !bytes.Equal(r.BytesField(), blob) {
			return false
		}
		return r.Done() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
