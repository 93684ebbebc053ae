package matrix

import (
	"bufio"
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
// streaming: RunStream folds its trailer counts through an incremental
// Aggregator as cells complete, and Merge interleaves the shard files
// through per-stream cursors into another Aggregator, so neither side ever
// holds the sweep's cells or outcomes in memory.

// StreamHeader opens a stream and identifies the slice of the sweep it
// carries.
type StreamHeader struct {
	// Name labels the sweep; all shards of one sweep must agree on it.
	Name string `json:"name"`
	// TotalCells is the size of the whole sweep (not of this shard).
	TotalCells int `json:"total_cells"`
	// Shard is the canonical "i/n" shard spec this stream ran.
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

// streamCells runs the source's cells and appends one outcome record per
// completed cell (completion order), folding the shard summary into tr
// through an incremental Aggregator. Memory is O(axes + parallelism)
// regardless of the source's size.
func streamCells(src CellSource, opts Options, enc *json.Encoder, bw *bufio.Writer, tr *StreamTrailer) error {
	if src.Len() == 0 {
		// An empty shard (more shards than cells) is legitimate: it
		// contributes a valid header+trailer stream with zero outcomes.
		return nil
	}
	rep, err := fold(src, opts, false, func(o *Outcome) error {
		// Flushed per line so a concurrent tail (or a crash post-mortem)
		// sees every completed cell.
		if err := enc.Encode(streamRecord{Type: "outcome", Outcome: o}); err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return err
	}
	tr.CellsRun += rep.Cells
	tr.Errors += rep.Errors
	tr.Consensus += rep.Consensus
	return nil
}

// RunStream executes the source's cells and writes every outcome to w as a
// JSONL line the moment it completes (completion order, not index order —
// Merge reorders). The returned trailer summarizes the shard. Nothing beyond
// the running summary is buffered: a million-cell shard streams in constant
// memory.
func RunStream(src CellSource, opts Options, w io.Writer, hdr StreamHeader) (*StreamTrailer, error) {
	hdr.ShardCells = src.Len()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(streamRecord{Type: "header", Header: &hdr}); err != nil {
		return nil, err
	}
	var tr StreamTrailer
	start := time.Now()
	if err := streamCells(src, opts, enc, bw, &tr); err != nil {
		return nil, err
	}
	tr.WallNS = time.Since(start).Nanoseconds()
	if err := enc.Encode(streamRecord{Type: "trailer", Trailer: &tr}); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
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

// streamCursor reads one shard stream incrementally for the merge: records
// are consumed on demand and out-of-order outcomes wait in a small pending
// buffer until the merge asks for their index. For streams written by
// RunStream the buffer stays O(that shard's parallelism) — the pool claims
// cells in order, so completion order can only run that far ahead.
type streamCursor struct {
	dec     *json.Decoder
	hdr     *StreamHeader
	tr      *StreamTrailer
	pending map[int]*Outcome
	outs    int
	eof     bool
	// span is the parsed header spec when it identifies a proper slice of
	// the sweep ("i/n" or a work-stolen tail "i/n@t"); nil means ownership
	// is unknown and the merge scheduler falls back to its buffer-aware
	// heuristic for this stream.
	span *Span
}

// newStreamCursor opens a stream and reads its header record.
func newStreamCursor(r io.Reader) (*streamCursor, error) {
	c := &streamCursor{dec: json.NewDecoder(r), pending: make(map[int]*Outcome)}
	var rec streamRecord
	if err := c.dec.Decode(&rec); err == io.EOF {
		return nil, fmt.Errorf("stream: missing header")
	} else if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if rec.Type != "header" || rec.Header == nil {
		return nil, fmt.Errorf("stream: first record is %q, want header", rec.Type)
	}
	c.hdr = rec.Header
	return c, nil
}

// owns reports whether this cursor's shard spec claims the global cell
// index. Unknown specs own nothing (the scheduler handles them separately).
func (c *streamCursor) owns(i int) bool {
	return c.span != nil && c.span.Owns(i)
}

// minPending returns the smallest buffered cell index, or ok=false when the
// buffer is empty.
func (c *streamCursor) minPending() (int, bool) {
	min, ok := 0, false
	for i := range c.pending {
		if !ok || i < min {
			min, ok = i, true
		}
	}
	return min, ok
}

// advance consumes one record, parking outcomes in the pending buffer.
// It returns false once the stream is exhausted.
func (c *streamCursor) advance() (bool, error) {
	if c.eof {
		return false, nil
	}
	var rec streamRecord
	if err := c.dec.Decode(&rec); err == io.EOF {
		c.eof = true
		return false, nil
	} else if err != nil {
		return false, fmt.Errorf("stream: %w", err)
	}
	switch rec.Type {
	case "header":
		return false, fmt.Errorf("stream: duplicate header")
	case "outcome":
		if c.tr != nil {
			return false, fmt.Errorf("stream: outcome after trailer")
		}
		if rec.Outcome == nil {
			return false, fmt.Errorf("stream: empty outcome record")
		}
		if _, dup := c.pending[rec.Outcome.Index]; dup {
			return false, fmt.Errorf("stream: duplicate outcome for cell index %d", rec.Outcome.Index)
		}
		c.pending[rec.Outcome.Index] = rec.Outcome
		c.outs++
	case "trailer":
		if c.tr != nil {
			return false, fmt.Errorf("stream: duplicate trailer")
		}
		c.tr = rec.Trailer
	default:
		return false, fmt.Errorf("stream: unknown record type %q", rec.Type)
	}
	return true, nil
}

// take pops the outcome for global cell index i if this cursor has buffered
// it.
func (c *streamCursor) take(i int) (*Outcome, bool) {
	o, ok := c.pending[i]
	if ok {
		delete(c.pending, i)
	}
	return o, ok
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
	if c.tr == nil {
		return fmt.Errorf("stream: missing trailer (truncated shard file?)")
	}
	if len(c.pending) > 0 {
		return fmt.Errorf("stream: %d outcome(s) duplicate cells another stream supplied", len(c.pending))
	}
	if c.tr.CellsRun != c.outs || (c.hdr.ShardCells != 0 && c.hdr.ShardCells != c.outs) {
		return fmt.Errorf("stream: header/trailer claim %d/%d cells, found %d",
			c.hdr.ShardCells, c.tr.CellsRun, c.outs)
	}
	return nil
}

// assignShards parses each cursor's shard spec independently. A spec that
// claims the whole sweep ("1/1", or an empty header) is only meaningful when
// the stream is alone — alongside other streams it cannot be literally true,
// so it is demoted to unknown and scheduled by the heuristic instead. Specs
// that are not spans at all (the fabric's "cells:…" gap-filler streams) stay
// unknown by construction.
func assignShards(cursors []*streamCursor) {
	for _, c := range cursors {
		sp, err := ParseSpan(c.hdr.Shard)
		if err != nil || (sp.IsAll() && len(cursors) > 1) {
			continue
		}
		c.span = &sp
	}
}

// cursorPos recovers a cursor's stream number for error messages.
func cursorPos(cursors []*streamCursor, c *streamCursor) int {
	for i, cand := range cursors {
		if cand == c {
			return i
		}
	}
	return -1
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
// index order while the streams are read interleaved, so beyond the merged
// report itself only each stream's out-of-order window is buffered. Each
// stream's next-owned index is routed through its own shard spec: a stalled
// index reads only from the streams whose "i/n" header claims it, so for
// everything RunStream writes the window is O(streams × per-shard
// parallelism) — not O(cells); a resumed shard can additionally buffer up to
// its own appended-tail window. Streams without usable specs (hand-split or
// relabeled shards) are scheduled by buffer pressure instead — drained
// streams are read first, then the stream lagging furthest behind — which
// keeps pathological non-round-robin splits (e.g. contiguous blocks) at
// O(streams) buffered outcomes rather than O(cells).
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
	name, total := cursors[0].hdr.Name, cursors[0].hdr.TotalCells
	for i, c := range cursors[1:] {
		if c.hdr.Name != name || c.hdr.TotalCells != total {
			return nil, stats, fmt.Errorf("merge: stream %d is from a different sweep (%q, %d cells; want %q, %d)",
				i+1, c.hdr.Name, c.hdr.TotalCells, name, total)
		}
	}
	assignShards(cursors)

	// advance wraps cursor reads with error attribution and the pending-size
	// statistic.
	advance := func(c *streamCursor) (bool, error) {
		more, err := c.advance()
		if err != nil {
			return false, fmt.Errorf("merge: stream %d: %w", cursorPos(cursors, c), err)
		}
		pending := 0
		for _, cc := range cursors {
			pending += len(cc.pending)
		}
		if pending > stats.maxPending {
			stats.maxPending = pending
		}
		return more, nil
	}

	hasUnknown := false
	for _, c := range cursors {
		if c.span == nil {
			hasUnknown = true
		}
	}

	// fill reads records until some cursor can supply cell index next,
	// choosing which stream to read by ownership first and buffer pressure
	// second. It reports false when the cell cannot appear anymore: every
	// stream that could hold it is exhausted.
	fill := func(next int) (bool, error) {
		// 1. Streams whose shard spec owns next.
		progress := false
		for _, c := range cursors {
			if c.owns(next) {
				more, err := advance(c)
				if err != nil {
					return false, err
				}
				progress = progress || more
			}
		}
		if progress {
			return true, nil
		}
		// 2. Unknown-spec streams with nothing buffered: reading them costs
		// no memory and reveals where they are.
		for _, c := range cursors {
			if c.span == nil && len(c.pending) == 0 {
				more, err := advance(c)
				if err != nil {
					return false, err
				}
				progress = progress || more
			}
		}
		if progress {
			return true, nil
		}
		// 3. The unknown-spec stream lagging furthest behind (smallest
		// buffered index) — the most plausible holder of next.
		var best *streamCursor
		bestMin := 0
		for _, c := range cursors {
			if c.span != nil || c.eof {
				continue
			}
			if m, ok := c.minPending(); ok && (best == nil || m < bestMin) {
				best, bestMin = c, m
			}
		}
		if best != nil {
			more, err := advance(best)
			if err != nil {
				return false, err
			}
			if more {
				return true, nil
			}
		}
		// 4. Last resort, only when spec-less streams are in the merge — the
		// cell could still be hiding anywhere, so read whatever is open
		// rather than failing early. When every stream carries a spec,
		// ownership is total: an exhausted owner means the cell is missing,
		// and reading (and buffering) the other streams to prove it would
		// cost O(cells) of memory for the same error.
		if !hasUnknown {
			return false, nil
		}
		for _, c := range cursors {
			more, err := advance(c)
			if err != nil {
				return false, err
			}
			progress = progress || more
		}
		return progress, nil
	}

	agg := NewAggregator(opts.KeepOutcomes)
	for next := 0; next < total; next++ {
		var o *Outcome
		for o == nil {
			for _, c := range cursors {
				if got, ok := c.take(next); ok {
					o = got
					break
				}
			}
			if o != nil {
				break
			}
			progress, err := fill(next)
			if err != nil {
				return nil, stats, err
			}
			if !progress {
				return nil, stats, fmt.Errorf("merge: cell index %d missing across %d stream(s) (missing shards?)", next, len(cursors))
			}
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
		wallNS += c.tr.WallNS
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
		readers = append(readers, bufio.NewReaderSize(f, 1<<16))
	}
	return Merge(opts, readers...)
}
