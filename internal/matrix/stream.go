package matrix

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// The streaming JSONL format lets a sweep emit per-cell results as they
// complete — no in-memory Report, no lost work on a crash mid-sweep — and
// lets shards of one sweep run on different workers and be merged later. A
// stream is one JSON object per line:
//
//	{"type":"header","header":{...}}     exactly once, first
//	{"type":"outcome","outcome":{...}}   once per cell, in completion order
//	{"type":"trailer","trailer":{...}}   exactly once, last (integrity check)
//
// Merge reconstructs the aggregate Report from a complete set of shard
// streams; its Fingerprint provably equals the monolithic run's because the
// fingerprint is a pure function of the outcomes in cell-index order and
// every cell runs on its own deterministic engine either way. Both ends are
// streaming: one writer (streamWriter) encodes every record and keeps the
// trailer's running counts as cells complete, and one reader (recordReader)
// decodes them; Merge reads each cell from the streams whose slice owns it
// into an Aggregator, so neither side ever holds the sweep's cells or
// outcomes in memory.

// StreamHeader opens a stream and identifies the slice of the sweep it
// carries.
type StreamHeader struct {
	// Name labels the sweep; all shards of one sweep must agree on it.
	Name string `json:"name"`
	// TotalCells is the size of the whole sweep (not of this shard).
	TotalCells int `json:"total_cells"`
	// Shard names the slice this stream ran: a shard "i/n" ("1/1" for the
	// whole sweep) or an -only list "cells:a,b,c". Merge routes the
	// stream by it and refuses a stream whose header names none.
	Shard string `json:"shard"`
	// ShardCells is how many cells this shard contains.
	ShardCells int `json:"shard_cells"`
}

// StreamTrailer closes a stream; a missing or inconsistent trailer marks a
// truncated or corrupted shard file.
type StreamTrailer struct {
	// CellsRun must equal the header's ShardCells.
	CellsRun int `json:"cells_run"`
	// Errors and Consensus are this shard's counts (summary only; Merge
	// recomputes everything from the outcomes).
	Errors int `json:"errors"`
	// Consensus counts this shard's cells where all four properties held.
	Consensus int `json:"consensus"`
	// WallNS is this shard's wall-clock time.
	WallNS int64 `json:"wall_ns"`
}

// count adds one outcome to the trailer's counts.
func (tr *StreamTrailer) count(o *Outcome) {
	tr.CellsRun++
	if o.Err != "" {
		tr.Errors++
	}
	if o.Consensus {
		tr.Consensus++
	}
}

// streamRecord is one JSONL line.
type streamRecord struct {
	Type    string         `json:"type"`
	Header  *StreamHeader  `json:"header,omitempty"`
	Outcome *Outcome       `json:"outcome,omitempty"`
	Trailer *StreamTrailer `json:"trailer,omitempty"`
}

// streamWriter is the one encoder of stream records. It flushes every record
// as its line completes, so a concurrent tail (or a crash post-mortem) sees
// every completed cell, and it keeps the trailer's running counts. RunStream
// writes a whole stream through it; ResumeStreamFile seeds its counts with
// its scan's.
type streamWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
	tr  StreamTrailer
}

func newStreamWriter(w io.Writer, counts StreamTrailer) *streamWriter {
	bw := bufio.NewWriter(w)
	return &streamWriter{bw: bw, enc: json.NewEncoder(bw), tr: counts}
}

func (w *streamWriter) write(rec streamRecord) error {
	if err := w.enc.Encode(rec); err != nil {
		return err
	}
	return w.bw.Flush()
}

func (w *streamWriter) header(hdr StreamHeader) error {
	return w.write(streamRecord{Type: "header", Header: &hdr})
}

// cells runs the source's cells and writes one outcome record per completed
// cell, in completion order. Memory is O(parallelism) regardless of the
// source's size.
func (w *streamWriter) cells(src CellSource, opts Options) error {
	if src.Len() == 0 {
		// An empty shard (more shards than cells) is legitimate: it
		// contributes a valid header+trailer stream with zero outcomes.
		return nil
	}
	_, err := runPool(src, opts, func(_ int, o Outcome) error {
		w.tr.count(&o)
		return w.write(streamRecord{Type: "outcome", Outcome: &o})
	})
	return err
}

// trailer closes the stream with the running counts and wallNS.
func (w *streamWriter) trailer(wallNS int64) (*StreamTrailer, error) {
	tr := w.tr
	tr.WallNS = wallNS
	if err := w.write(streamRecord{Type: "trailer", Trailer: &tr}); err != nil {
		return nil, err
	}
	return &tr, nil
}

// RunStream executes the source's cells and writes every outcome to w as a
// JSONL line the moment it completes (completion order, not index order —
// Merge reorders). The returned trailer summarizes the shard. Nothing beyond
// the running summary is buffered: a million-cell shard streams in constant
// memory.
func RunStream(src CellSource, opts Options, w io.Writer, hdr StreamHeader) (*StreamTrailer, error) {
	hdr.ShardCells = src.Len()
	sw := newStreamWriter(w, StreamTrailer{})
	if err := sw.header(hdr); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := sw.cells(src, opts); err != nil {
		return nil, err
	}
	return sw.trailer(time.Since(start).Nanoseconds())
}

// RunStreamFile is RunStream writing to a file path; "-" streams to stdout.
// The shared helper keeps cupsim's and experiments' shard modes identical.
func RunStreamFile(path string, src CellSource, opts Options, hdr StreamHeader) (*StreamTrailer, error) {
	if path == "-" {
		return RunStream(src, opts, os.Stdout, hdr)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	tr, err := RunStream(src, opts, f, hdr)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// recordReader is the one decoder of stream records: the merge's cursors,
// resume (through scanStreamFile) and the fabric coordinator's
// coverage check all read through it. It reads line by line, tracks the byte
// offset just past the last intact record, and enforces the record order: the
// header first and once, no outcome after the trailer, no cell index twice.
// Damage an interrupted write leaves behind an intact header — a final line
// without its newline, an unparseable line, an unknown or empty record — comes
// back as a tornError; anything else that breaks the format is malformed.
// Resume cuts a torn stream at offset and refuses a malformed one; the merge
// and the coordinator refuse both.
type recordReader struct {
	br      *bufio.Reader
	header  *StreamHeader
	trailer *StreamTrailer
	// seen reports whether the stream already carried a cell index: the
	// scan's done set, or the merge cursor's pending buffer.
	seen func(int) bool
	// offset is the byte offset just past the last intact record.
	offset int64
	// outcomes counts the outcome records read.
	outcomes int
}

// tornError marks the first record an interrupted write damaged.
type tornError struct{ msg string }

func (e tornError) Error() string { return "stream: torn: " + e.msg }

func newRecordReader(r io.Reader, seen func(int) bool) *recordReader {
	return &recordReader{br: bufio.NewReaderSize(r, 1<<16), seen: seen}
}

// next decodes one record and returns its outcome, nil for a header or a
// trailer record; io.EOF ends a stream whose last line is intact. It is the
// only code that tests a record's type.
func (r *recordReader) next() (*Outcome, error) {
	var rec streamRecord
	var out *Outcome
	line, err := r.br.ReadBytes('\n')
	switch {
	case err == io.EOF && len(line) == 0:
		return nil, io.EOF
	case err == io.EOF:
		return nil, tornError{"final line without its newline"}
	case err != nil:
		return nil, err
	}
	// Damage before the header means this is not a stream at all.
	damaged := func(msg string) error {
		if r.header == nil {
			return fmt.Errorf("stream: %s before the header", msg)
		}
		return tornError{msg}
	}
	if jerr := json.Unmarshal(bytes.TrimSpace(line), &rec); jerr != nil {
		return nil, damaged(jerr.Error())
	}
	switch rec.Type {
	case "header":
		switch {
		case r.header != nil:
			return nil, fmt.Errorf("stream: duplicate header")
		case rec.Header == nil:
			return nil, damaged("empty header record")
		}
		r.header = rec.Header
	case "outcome":
		switch {
		case r.header == nil:
			return nil, fmt.Errorf("stream: outcome before header")
		case r.trailer != nil:
			return nil, fmt.Errorf("stream: outcome after trailer")
		case rec.Outcome == nil:
			return nil, damaged("empty outcome record")
		case r.seen(rec.Outcome.Index):
			return nil, fmt.Errorf("stream: duplicate outcome for cell index %d", rec.Outcome.Index)
		}
		r.outcomes++
		out = rec.Outcome
	case "trailer":
		switch {
		case r.header == nil:
			return nil, fmt.Errorf("stream: trailer before header")
		case r.trailer != nil:
			return nil, fmt.Errorf("stream: duplicate trailer")
		case rec.Trailer == nil:
			return nil, damaged("empty trailer record")
		}
		r.trailer = rec.Trailer
	default:
		return nil, damaged(fmt.Sprintf("unknown record type %q", rec.Type))
	}
	r.offset += int64(len(line))
	return out, nil
}

// streamCursor is one stream of a merge: its reader, the task its header
// names, and the outcomes read ahead of the cell the merge waits for. For
// streams RunStream writes the buffer stays O(that shard's parallelism) — the
// pool claims cells in order, so completion order can only run that far ahead.
type streamCursor struct {
	*recordReader
	task    Task
	pending map[int]*Outcome
	eof     bool
}

// newStreamCursor opens a stream: its header, and the task its spec names.
func newStreamCursor(r io.Reader) (*streamCursor, error) {
	c := &streamCursor{pending: make(map[int]*Outcome)}
	c.recordReader = newRecordReader(r, func(i int) bool { _, ok := c.pending[i]; return ok })
	if _, err := c.next(); err == io.EOF {
		return nil, fmt.Errorf("stream: missing header")
	} else if err != nil {
		return nil, err
	}
	task, err := parseTask(c.header.Shard)
	if err != nil {
		return nil, fmt.Errorf("header names no slice of the sweep: %w", err)
	}
	c.task = task
	return c, nil
}

// advance consumes one record, parking outcomes in the pending buffer.
// It returns false once the stream is exhausted.
func (c *streamCursor) advance() (bool, error) {
	if c.eof {
		return false, nil
	}
	o, err := c.next()
	if err == io.EOF {
		c.eof = true
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if o != nil {
		c.pending[o.Index] = o
	}
	return true, nil
}

// finish drains the rest of the stream and validates its framing: a trailer
// must be present and agree with the header and the consumed outcome count,
// and no unconsumed outcomes may remain (those are duplicates of cells
// another stream — or this one — already supplied).
func (c *streamCursor) finish() error {
	for {
		more, err := c.advance()
		if err != nil {
			return err
		}
		if !more {
			break
		}
	}
	if c.trailer == nil {
		return fmt.Errorf("stream: missing trailer (truncated shard file?)")
	}
	if len(c.pending) > 0 {
		return fmt.Errorf("stream: %d outcome(s) duplicate cells another stream supplied", len(c.pending))
	}
	if c.trailer.CellsRun != c.outcomes || (c.header.ShardCells != 0 && c.header.ShardCells != c.outcomes) {
		return fmt.Errorf("stream: header/trailer claim %d/%d cells, found %d",
			c.header.ShardCells, c.trailer.CellsRun, c.outcomes)
	}
	return nil
}

// MergeOptions tunes stream merging.
type MergeOptions struct {
	// KeepOutcomes retains every cell outcome in the merged report (per-cell
	// renderings need them). Without it the merge runs in O(axes) memory and
	// the report is the aggregate summary plus the sealed fingerprint — the
	// mode million-cell sweeps want.
	KeepOutcomes bool
}

// mergeStats records scheduler behavior for the constant-memory tests.
type mergeStats struct {
	// maxPending is the largest total out-of-order buffer (outcomes parked
	// across all cursors) the merge ever held.
	maxPending int
}

// Merge reconstructs the aggregate Report from a complete set of shard
// streams of one sweep. Every cell index 0..TotalCells-1 must appear exactly
// once across the streams. The resulting report's Fingerprint equals the
// monolithic run's (wall-clock fields are excluded from the fingerprint;
// WallNS is the sum of the shards' wall times).
//
// The merge is incremental: cells are folded into an Aggregator in global
// index order, and each cell is read only from the streams whose header names
// a slice that owns it — a shard "i/n" or an -only list "cells:a,b,c". So
// beyond the merged report itself only each stream's out-of-order window is
// buffered: O(streams × per-shard parallelism) for everything RunStream
// writes, plus a resumed shard's appended-tail window. A stream whose header
// names no slice is refused.
func Merge(opts MergeOptions, readers ...io.Reader) (*Report, error) {
	rep, _, err := merge(opts, readers...)
	return rep, err
}

func merge(opts MergeOptions, readers ...io.Reader) (*Report, mergeStats, error) {
	var stats mergeStats
	if len(readers) == 0 {
		return nil, stats, fmt.Errorf("merge: no streams")
	}
	cursors := make([]*streamCursor, len(readers))
	for i, r := range readers {
		c, err := newStreamCursor(r)
		if err != nil {
			return nil, stats, fmt.Errorf("merge: stream %d: %w", i, err)
		}
		cursors[i] = c
	}
	name, total := cursors[0].header.Name, cursors[0].header.TotalCells
	for i, c := range cursors[1:] {
		if c.header.Name != name || c.header.TotalCells != total {
			return nil, stats, fmt.Errorf("merge: stream %d is from a different sweep (%q, %d cells; want %q, %d)",
				i+1, c.header.Name, c.header.TotalCells, name, total)
		}
	}

	// take returns cell next, reading the streams that own it until one
	// supplies it; when every owner is exhausted the cell is missing.
	take := func(next int) (*Outcome, error) {
		for {
			for _, c := range cursors {
				if o, ok := c.pending[next]; ok {
					delete(c.pending, next)
					return o, nil
				}
			}
			read, pending := false, 0
			for i, c := range cursors {
				if c.task.owns(next) {
					more, err := c.advance()
					if err != nil {
						return nil, fmt.Errorf("merge: stream %d: %w", i, err)
					}
					read = read || more
				}
				pending += len(c.pending)
			}
			if !read {
				return nil, fmt.Errorf("merge: cell index %d missing across %d stream(s) (missing shards?)", next, len(cursors))
			}
			stats.maxPending = max(stats.maxPending, pending)
		}
	}

	agg := NewAggregator(opts.KeepOutcomes)
	for next := 0; next < total; next++ {
		o, err := take(next)
		if err != nil {
			return nil, stats, err
		}
		if err := agg.Add(next, *o); err != nil {
			return nil, stats, fmt.Errorf("merge: %w", err)
		}
	}

	var wallNS int64
	for i, c := range cursors {
		if err := c.finish(); err != nil {
			return nil, stats, fmt.Errorf("merge: stream %d: %w", i, err)
		}
		wallNS += c.trailer.WallNS
	}
	rep, err := agg.Report(0)
	if err != nil {
		return nil, stats, fmt.Errorf("merge: %w", err)
	}
	rep.Name = name
	rep.WallNS = wallNS
	return rep, stats, nil
}

// MergeFilesWith is Merge over shard files on disk.
func MergeFilesWith(opts MergeOptions, paths ...string) (*Report, error) {
	readers := make([]io.Reader, 0, len(paths))
	files := make([]*os.File, 0, len(paths))
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, fmt.Errorf("merge: %w", err)
		}
		files = append(files, f)
		readers = append(readers, f)
	}
	return Merge(opts, readers...)
}
