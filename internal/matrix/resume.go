package matrix

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// Resume support: a partial JSONL shard stream already records every
// completed cell, so an interrupted sweep is a prefix of a valid stream —
// header, some outcomes, no trailer (possibly ending in a torn line from a
// crash mid-write). ResumeStreamFile re-derives the work left: it scans the
// file, verifies the header matches the sweep being resumed, truncates any
// torn tail, runs only the cell positions the stream is missing, appends
// their outcomes, and closes the stream with a trailer covering old and new
// cells alike. The resumed file is indistinguishable from an uninterrupted
// shard run to Merge — same records, same trailer invariants, same merged
// fingerprint.

// streamScan summarizes a (possibly truncated) shard stream file: its reader
// (header, trailer — nil when the stream is truncated — and the offset just
// past the last intact record, the truncation point for appending) plus the
// global cell indices present and their trailer counts, which seed the
// writer that appends to the stream.
type streamScan struct {
	*recordReader
	done   map[int]bool
	counts StreamTrailer
}

// scanStreamFile reads a stream file up to its trailer, stopping at the first
// torn record (everything from there on is discarded on resume). A malformed
// stream — one that does not begin with a header, or breaks the record order —
// is refused.
func scanStreamFile(path string) (*streamScan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	scan := &streamScan{done: make(map[int]bool)}
	scan.recordReader = newRecordReader(f, func(i int) bool { return scan.done[i] })
	var torn tornError
	for scan.trailer == nil {
		o, err := scan.next()
		if err == io.EOF || errors.As(err, &torn) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if o != nil {
			scan.done[o.Index] = true
			scan.counts.count(o)
		}
	}
	return scan, nil
}

// ResumeStreamFile completes an interrupted RunStreamFile: it verifies path
// holds a (possibly truncated) stream of exactly this shard of this sweep,
// skips every cell index the stream already carries, runs only the missing
// positions of src, and appends their outcomes plus a trailer summarizing
// the whole shard. It returns the combined trailer and how many cells were
// skipped as already complete. A missing file degrades to a fresh
// RunStreamFile; a file whose header disagrees with the sweep (name, total
// cells, shard spec or shard size) is refused, never overwritten.
func ResumeStreamFile(path string, src CellSource, opts Options, hdr StreamHeader) (*StreamTrailer, int, error) {
	scan, err := scanStreamFile(path)
	if os.IsNotExist(err) {
		tr, rerr := RunStreamFile(path, src, opts, hdr)
		return tr, 0, rerr
	}
	if err != nil {
		return nil, 0, err
	}
	if scan.header == nil {
		// Empty file (crashed before the header was flushed): start fresh.
		tr, rerr := RunStreamFile(path, src, opts, hdr)
		return tr, 0, rerr
	}
	hdr.ShardCells = src.Len()
	got := scan.header
	if got.Name != hdr.Name || got.TotalCells != hdr.TotalCells || got.Shard != hdr.Shard || got.ShardCells != hdr.ShardCells {
		return nil, 0, fmt.Errorf("resume %s: stream is from a different sweep (%q total=%d shard=%q cells=%d; want %q total=%d shard=%q cells=%d)",
			path, got.Name, got.TotalCells, got.Shard, got.ShardCells,
			hdr.Name, hdr.TotalCells, hdr.Shard, hdr.ShardCells)
	}

	// Map completed global indices back to source positions; every recorded
	// index must belong to this shard.
	var missing []int
	matched := 0
	for j := 0; j < src.Len(); j++ {
		if scan.done[src.Index(j)] {
			matched++
		} else {
			missing = append(missing, j)
		}
	}
	if matched != len(scan.done) {
		return nil, 0, fmt.Errorf("resume %s: stream carries %d cell(s) outside shard %s", path, len(scan.done)-matched, hdr.Shard)
	}

	if scan.trailer != nil {
		// The stream already closed. Accept it only if it is a complete,
		// consistent shard; anything else is corruption, not truncation.
		if len(missing) > 0 || scan.trailer.CellsRun != len(scan.done) {
			return nil, 0, fmt.Errorf("resume %s: stream has a trailer but only %d of %d cells", path, len(scan.done), src.Len())
		}
		return scan.trailer, len(scan.done), nil
	}

	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, 0, err
	}
	if err := f.Truncate(scan.offset); err != nil {
		f.Close()
		return nil, 0, err
	}
	if _, err := f.Seek(scan.offset, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, err
	}
	sw := newStreamWriter(f, scan.counts)
	start := time.Now()
	err = sw.cells(pick(src, missing), opts)
	var tr *StreamTrailer
	if err == nil {
		tr, err = sw.trailer(time.Since(start).Nanoseconds())
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	return tr, len(scan.done), nil
}
