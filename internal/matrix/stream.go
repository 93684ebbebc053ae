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
// complete — no in-memory Report — and lets shards of one sweep run on
// different workers and be merged later. A stream is one JSON object per
// line:
//
//	{"type":"header","header":{...}}     exactly once, first
//	{"type":"outcome","outcome":{...}}   once per cell, in cell-index order
//	{"type":"trailer","trailer":{...}}   exactly once, last (integrity check)
//
// Merge reconstructs the aggregate Report from a complete set of shard
// streams; its Fingerprint provably equals the monolithic run's because the
// fingerprint is a pure function of the outcomes in cell-index order and
// every cell runs on its own deterministic engine either way. Both ends are
// streaming: one writer (streamWriter) encodes every record and one reader
// (recordReader) decodes them; Merge holds one outcome per stream and folds
// cell after cell into an Aggregator, so neither side ever holds the sweep's
// cells or outcomes in memory. A stream's bytes, wall-clock fields aside, are
// a function of its shard alone, whatever the parallelism that ran it.

// StreamHeader opens a stream and identifies the slice of the sweep it
// carries.
type StreamHeader struct {
	// Name labels the sweep; all shards of one sweep must agree on it.
	Name string `json:"name"`
	// TotalCells is the size of the whole sweep (not of this shard).
	TotalCells int `json:"total_cells"`
	// Shard names the shard this stream ran, "i/n" ("1/1" for the whole
	// sweep). A stream whose header names none, or that carries a cell the
	// shard does not own, is refused.
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

// streamRecord is one JSONL line.
type streamRecord struct {
	Type    string         `json:"type"`
	Header  *StreamHeader  `json:"header,omitempty"`
	Outcome *Outcome       `json:"outcome,omitempty"`
	Trailer *StreamTrailer `json:"trailer,omitempty"`
}

// streamWriter is the one encoder of stream records. It flushes every record
// as its line completes, so a concurrent tail (or a crash post-mortem) sees
// every completed cell. RunStream writes every stream through it.
type streamWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

func newStreamWriter(w io.Writer) *streamWriter {
	bw := bufio.NewWriter(w)
	return &streamWriter{bw: bw, enc: json.NewEncoder(bw)}
}

func (w *streamWriter) write(rec streamRecord) error {
	if err := w.enc.Encode(rec); err != nil {
		return err
	}
	return w.bw.Flush()
}

// RunStream executes the source's cells and writes every outcome to w as a
// JSONL line, in position order: the moment its cell completes, or, when it
// finished ahead of an earlier cell, the moment that one does. The returned
// trailer summarizes the shard. Nothing beyond the running summary and the
// pool's claim window is buffered: a million-cell shard streams in constant
// memory. An empty shard (more shards than cells) is legitimate: its stream
// is a header and a trailer.
func RunStream(src CellSource, opts Options, w io.Writer, hdr StreamHeader) (*StreamTrailer, error) {
	hdr.ShardCells = src.Len()
	sw := newStreamWriter(w)
	if err := sw.write(streamRecord{Type: "header", Header: &hdr}); err != nil {
		return nil, err
	}
	start := time.Now()
	var tr StreamTrailer
	if src.Len() > 0 {
		_, err := runPool(src, opts, func(_ int, o Outcome) error {
			tr.CellsRun++
			if o.Err != "" {
				tr.Errors++
			}
			if o.Consensus {
				tr.Consensus++
			}
			return sw.write(streamRecord{Type: "outcome", Outcome: &o})
		})
		if err != nil {
			return nil, err
		}
	}
	tr.WallNS = time.Since(start).Nanoseconds()
	if err := sw.write(streamRecord{Type: "trailer", Trailer: &tr}); err != nil {
		return nil, err
	}
	return &tr, nil
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

// recordReader is the one decoder of stream records: the merge's cursors and
// the fabric coordinator's coverage check (scanStreamFile) both read through
// it. It reads line by line and enforces the record order: the header first
// and once, naming a shard; then that shard's outcomes in ascending cell
// index, each a cell of the sweep the shard owns; no outcome after the
// trailer. Any damage — a final line without its newline, an unparseable
// line, an unknown or empty record, a broken order — is an error: a stream is
// whole or its shard runs again.
type recordReader struct {
	br      *bufio.Reader
	header  *StreamHeader
	trailer *StreamTrailer
	// shard is the shard the header names.
	shard Shard
	// outcomes counts the outcome records read; last is the latest one's
	// cell index.
	outcomes, last int
}

func newRecordReader(r io.Reader) *recordReader {
	return &recordReader{br: bufio.NewReaderSize(r, 1<<16)}
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
		return nil, fmt.Errorf("stream: final line without its newline")
	case err != nil:
		return nil, err
	}
	if jerr := json.Unmarshal(bytes.TrimSpace(line), &rec); jerr != nil {
		return nil, fmt.Errorf("stream: %w", jerr)
	}
	switch rec.Type {
	case "header":
		switch {
		case r.header != nil:
			return nil, fmt.Errorf("stream: duplicate header")
		case rec.Header == nil:
			return nil, fmt.Errorf("stream: empty header record")
		case rec.Header.Shard == "":
			return nil, fmt.Errorf("header names no shard of the sweep")
		}
		sh, err := ParseShard(rec.Header.Shard)
		if err != nil {
			return nil, fmt.Errorf("header names no shard of the sweep: %w", err)
		}
		r.header, r.shard = rec.Header, sh
	case "outcome":
		switch {
		case r.header == nil:
			return nil, fmt.Errorf("stream: outcome before header")
		case r.trailer != nil:
			return nil, fmt.Errorf("stream: outcome after trailer")
		case rec.Outcome == nil:
			return nil, fmt.Errorf("stream: empty outcome record")
		}
		i := rec.Outcome.Index
		switch {
		case i < 0 || i >= r.header.TotalCells || !r.shard.Owns(i):
			return nil, fmt.Errorf("stream: cell index %d is not a cell of shard %s", i, r.shard)
		case r.outcomes > 0 && i <= r.last:
			return nil, fmt.Errorf("stream: cell index %d after cell index %d", i, r.last)
		}
		r.outcomes++
		r.last = i
		out = rec.Outcome
	case "trailer":
		switch {
		case r.header == nil:
			return nil, fmt.Errorf("stream: trailer before header")
		case r.trailer != nil:
			return nil, fmt.Errorf("stream: duplicate trailer")
		case rec.Trailer == nil:
			return nil, fmt.Errorf("stream: empty trailer record")
		}
		r.trailer = rec.Trailer
	default:
		return nil, fmt.Errorf("stream: unknown record type %q", rec.Type)
	}
	return out, nil
}

// streamCursor is one stream of a merge: its reader and the one outcome it
// holds, the stream's next.
type streamCursor struct {
	*recordReader
	head *Outcome // nil once the stream has no outcome left
}

// newStreamCursor opens a stream: its header, and its first outcome.
func newStreamCursor(r io.Reader) (*streamCursor, error) {
	c := &streamCursor{recordReader: newRecordReader(r)}
	if _, err := c.next(); err == io.EOF {
		return nil, fmt.Errorf("stream: missing header")
	} else if err != nil {
		return nil, err
	}
	return c, c.advance()
}

// advance reads up to the stream's next outcome and holds it; past the last
// one it reads the rest of the stream, so every record is checked.
func (c *streamCursor) advance() error {
	c.head = nil
	for c.head == nil {
		o, err := c.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		c.head = o
	}
	return nil
}

// finish validates a consumed stream's framing: a trailer must be present
// and agree with the header and the outcome count.
func (c *streamCursor) finish() error {
	if c.trailer == nil {
		return fmt.Errorf("stream: missing trailer (truncated shard file?)")
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

// Merge reconstructs the aggregate Report from a complete set of shard
// streams of one sweep. Every cell index 0..TotalCells-1 must appear exactly
// once across the streams. The resulting report's Fingerprint equals the
// monolithic run's (wall-clock fields are excluded from the fingerprint;
// WallNS is the sum of the shards' wall times).
//
// The merge is incremental: each stream is in cell-index order, so the merge
// holds one outcome per stream and takes cell after cell from the stream
// whose next outcome it is into an Aggregator. Beyond the merged report
// itself it holds O(streams) outcomes.
func Merge(opts MergeOptions, readers ...io.Reader) (*Report, error) {
	if len(readers) == 0 {
		return nil, fmt.Errorf("merge: no streams")
	}
	cursors := make([]*streamCursor, len(readers))
	for i, r := range readers {
		c, err := newStreamCursor(r)
		if err != nil {
			return nil, fmt.Errorf("merge: stream %d: %w", i, err)
		}
		cursors[i] = c
	}
	name, total := cursors[0].header.Name, cursors[0].header.TotalCells
	for i, c := range cursors[1:] {
		if c.header.Name != name || c.header.TotalCells != total {
			return nil, fmt.Errorf("merge: stream %d is from a different sweep (%q, %d cells; want %q, %d)",
				i+1, c.header.Name, c.header.TotalCells, name, total)
		}
	}

	agg := NewAggregator(opts.KeepOutcomes)
	for next := 0; next < total; next++ {
		from := -1
		for i, c := range cursors {
			if c.head == nil || c.head.Index != next {
				continue
			}
			if from >= 0 {
				return nil, fmt.Errorf("merge: stream %d: cell index %d is in stream %d too", from, next, i)
			}
			from = i
		}
		if from < 0 {
			return nil, missing(cursors, next)
		}
		c := cursors[from]
		if err := agg.Add(next, *c.head); err != nil {
			return nil, fmt.Errorf("merge: %w", err)
		}
		if err := c.advance(); err != nil {
			return nil, fmt.Errorf("merge: stream %d: %w", from, err)
		}
	}

	var wallNS int64
	for i, c := range cursors {
		if err := c.finish(); err != nil {
			return nil, fmt.Errorf("merge: stream %d: %w", i, err)
		}
		wallNS += c.trailer.WallNS
	}
	rep := agg.Report(0)
	rep.Name = name
	rep.WallNS = wallNS
	return rep, nil
}

// missing names the stream a cell is missing from: the first whose shard
// owns the cell, since it went past the cell or ended before it. When no
// stream's shard owns the cell, a shard is missing from the set.
func missing(cursors []*streamCursor, cell int) error {
	for i, c := range cursors {
		if c.shard.Owns(cell) {
			return fmt.Errorf("merge: stream %d: cell index %d missing from shard %s", i, cell, c.shard)
		}
	}
	return fmt.Errorf("merge: cell index %d missing across %d stream(s) (missing shards?)", cell, len(cursors))
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
