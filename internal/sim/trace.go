package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"github.com/bftcup/bftcup/internal/model"
)

// Trace is an optional streaming recorder of every event the engine
// delivers. It folds each event into a running SHA-256, so two runs produced
// identical traces iff their digests match — the determinism regression
// tests assert exactly this across seeds and network models without holding
// the full event log in memory.
type Trace struct {
	h      hash.Hash
	events int64
	buf    []byte
}

// NewTrace returns an empty trace recorder.
func NewTrace() *Trace { return &Trace{h: sha256.New()} }

// Events returns how many events have been recorded.
func (t *Trace) Events() int64 { return t.events }

// Digest returns the hex SHA-256 over the canonical encoding of every event
// recorded so far.
func (t *Trace) Digest() string {
	return hex.EncodeToString(t.h.Sum(nil))
}

// record folds one event delivered to process to into the digest. The
// encoding is canonical: fixed-width fields, payload length-prefixed.
func (t *Trace) record(ev *event, to model.ID) {
	t.events++
	b := t.buf[:0]
	b = binary.BigEndian.AppendUint64(b, uint64(ev.at))
	b = append(b, byte(ev.kind))
	b = binary.BigEndian.AppendUint64(b, uint64(to))
	switch ev.kind {
	case evMessage:
		b = binary.BigEndian.AppendUint64(b, ev.src)
		b = binary.BigEndian.AppendUint64(b, uint64(len(ev.body)))
		b = append(b, ev.body...)
	case evTimer:
		b = binary.BigEndian.AppendUint64(b, ev.src)
	case evCrash, evRestart:
		// (at, kind, to) fully identify a churn control point.
	}
	t.buf = b
	t.h.Write(b)
}

// SetTrace attaches a trace recorder; every subsequently delivered event is
// folded into it. Nil detaches. Attach it before the run starts: whether a
// run coalesces replays (see the package comment) is settled then, and a
// traced run must deliver every send.
func (e *Engine) SetTrace(t *Trace) { e.trace = t }

// RecordDecision lets higher layers (the scenario runner) fold protocol-level
// outcomes — who decided what, when — into the same digest, making the trace
// a full decision transcript as well as an event log.
func (t *Trace) RecordDecision(id model.ID, at Time, value []byte) {
	t.events++
	b := t.buf[:0]
	b = append(b, 0xD0) // decision marker, distinct from eventKind bytes
	b = binary.BigEndian.AppendUint64(b, uint64(id))
	b = binary.BigEndian.AppendUint64(b, uint64(at))
	b = binary.BigEndian.AppendUint64(b, uint64(len(value)))
	b = append(b, value...)
	t.buf = b
	t.h.Write(b)
}
