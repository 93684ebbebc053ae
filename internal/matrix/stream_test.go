package matrix

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/scenario"
)

// mergeFilesWithStats opens shard files and runs the internal merge,
// returning its scheduler statistics alongside the report.
func mergeFilesWithStats(t *testing.T, paths ...string) (*Report, mergeStats) {
	t.Helper()
	readers := make([]io.Reader, 0, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		readers = append(readers, bufio.NewReaderSize(f, 1<<16))
	}
	rep, stats, err := merge(MergeOptions{}, readers...)
	if err != nil {
		t.Fatal(err)
	}
	return rep, stats
}

// TestMergeAdversarialSplitConstantMemory pins the merge's memory on the
// split a round-robin reader handles worst: two streams carrying contiguous
// index blocks (first half / second half), each header naming its block as a
// "cells:" list. A reader that alternated between the streams would buffer
// the entire second stream (O(cells)) while draining the first; routing every
// index to the stream that owns it keeps the total out-of-order buffer at
// O(streams).
func TestMergeAdversarialSplitConstantMemory(t *testing.T) {
	const n = 2000
	src := errorSweep(t, n)
	mono, err := Run(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mono.Name = "adversarial-split"
	want := mono.Fingerprint()

	dir := t.TempDir()
	var paths []string
	for half := 0; half < 2; half++ {
		pos := make([]int, 0, n/2)
		for i := half * (n / 2); i < (half+1)*(n/2); i++ {
			pos = append(pos, i)
		}
		path := filepath.Join(dir, fmt.Sprintf("block%d.jsonl", half))
		if _, err := RunStreamFile(path, pick(src, pos), Options{Parallelism: 1}, StreamHeader{
			Name: "adversarial-split", TotalCells: n, Shard: Task{Cells: pos}.spec(),
		}); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}

	rep, stats := mergeFilesWithStats(t, paths...)
	if got := rep.Fingerprint(); got != want {
		t.Fatalf("adversarial merge fingerprint %s, want monolithic %s", got[:16], want[:16])
	}
	if rep.Cells != n {
		t.Fatalf("merged %d cells, want %d", rep.Cells, n)
	}
	const maxBuffered = 8 // O(streams), with slack; a round-robin reader needs ~n/2
	if stats.maxPending > maxBuffered {
		t.Fatalf("adversarial split buffered %d outcomes (want ≤ %d): merge memory grows with cell count", stats.maxPending, maxBuffered)
	}
}

// TestMergeShardRoutingBoundedBuffer pins the routed path: properly
// round-robin-sharded streams merge with an out-of-order buffer bounded by
// the stream count, never by cell count. The shards stream serially so their
// files are strictly position-ordered and the bound is deterministic (a
// parallel shard's window additionally depends on worker skew — how far one
// goroutine ran ahead of another — which the merge cannot undo).
func TestMergeShardRoutingBoundedBuffer(t *testing.T) {
	const n = 3000
	src := errorSweep(t, n)
	dir := t.TempDir()
	var paths []string
	for i := 1; i <= 3; i++ {
		sh := Shard{Index: i, Count: 3}
		path := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		if _, err := RunStreamFile(path, slice(t, src, Task{Shard: sh}), Options{Parallelism: 1}, StreamHeader{
			Name: "routed", TotalCells: n, Shard: sh.String(),
		}); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	rep, stats := mergeFilesWithStats(t, paths...)
	if rep.Cells != n {
		t.Fatalf("merged %d cells, want %d", rep.Cells, n)
	}
	const maxBuffered = 9 // O(streams) with slack
	if stats.maxPending > maxBuffered {
		t.Fatalf("routed merge buffered %d outcomes (want ≤ %d)", stats.maxPending, maxBuffered)
	}
}

var update = flag.Bool("update", false, "rewrite golden files")

// testCells builds a small, fast, deterministic sweep exercising two graph
// families, two modes and two seeds (8 cells).
func testCells(t *testing.T) []Cell {
	t.Helper()
	a := Axes{
		Name:   "stream-test",
		Graphs: []graph.Def{def(t, "fig1b"), def(t, "complete:4")},
		Modes:  []core.Mode{core.ModeKnownF, core.ModePermissioned},
		Nets:   []scenario.NetParams{{Kind: scenario.NetSync}},
		Seeds:  []int64{1, 2},
	}
	src, err := a.Source()
	if err != nil {
		t.Fatal(err)
	}
	return Materialize(src)
}

// shardStreams runs the sweep as n shards, each streamed to its own buffer.
func shardStreams(t *testing.T, cells []Cell, n int) []*bytes.Buffer {
	t.Helper()
	var bufs []*bytes.Buffer
	for i := 1; i <= n; i++ {
		sh := Shard{Index: i, Count: n}
		buf := &bytes.Buffer{}
		part := slice(t, CellList(cells), Task{Shard: sh})
		tr, err := RunStream(part, Options{Parallelism: 2}, buf, StreamHeader{
			Name:       "stream-test",
			TotalCells: len(cells),
			Shard:      sh.String(),
		})
		if err != nil {
			t.Fatalf("shard %s: %v", sh, err)
		}
		if tr.CellsRun != part.Len() {
			t.Fatalf("shard %s ran %d cells, want %d", sh, tr.CellsRun, part.Len())
		}
		bufs = append(bufs, buf)
	}
	return bufs
}

func mergeBufs(t *testing.T, bufs []*bytes.Buffer) *Report {
	t.Helper()
	readers := make([]io.Reader, len(bufs))
	for i, b := range bufs {
		readers[i] = bytes.NewReader(b.Bytes())
	}
	rep, err := Merge(MergeOptions{KeepOutcomes: true}, readers...)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestShardMergeFingerprint asserts the contract of the sharded pipeline:
// for 1-, 2- and 3-way splits, merging the shard streams reconstructs a
// report with exactly the monolithic run's fingerprint (and identical
// aggregate counters).
func TestShardMergeFingerprint(t *testing.T) {
	cells := testCells(t)
	mono, err := Run(CellList(cells), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	mono.Name = "stream-test"
	want := mono.Fingerprint()
	for _, n := range []int{1, 2, 3} {
		merged := mergeBufs(t, shardStreams(t, cells, n))
		if got := merged.Fingerprint(); got != want {
			t.Errorf("%d-way shard merge fingerprint %s, want monolithic %s", n, got[:16], want[:16])
		}
		if merged.Cells != mono.Cells || merged.Consensus != mono.Consensus ||
			merged.Errors != mono.Errors || merged.TotalMessages != mono.TotalMessages ||
			merged.TotalBytes != mono.TotalBytes {
			t.Errorf("%d-way merge aggregates diverge: %+v vs %+v", n, merged, mono)
		}
	}
}

// TestEmptyShardStreams asserts that a shard with no cells (more shards than
// cells) still emits a valid header+trailer stream, and that merging it with
// the populated shards reproduces the monolithic fingerprint.
func TestEmptyShardStreams(t *testing.T) {
	cells := testCells(t) // 8 cells; 9 shards guarantee an empty one
	mono, err := Run(CellList(cells), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	mono.Name = "stream-test"
	merged := mergeBufs(t, shardStreams(t, cells, 9))
	if got, want := merged.Fingerprint(), mono.Fingerprint(); got != want {
		t.Errorf("9-way (incl. empty shard) merge fingerprint %s, want %s", got[:16], want[:16])
	}
}

// TestShardPartition asserts shards partition the sweep: disjoint, complete,
// index-preserving.
func TestShardPartition(t *testing.T) {
	cells := testCells(t)
	seen := make(map[int]string)
	for i := 1; i <= 3; i++ {
		sh := Shard{Index: i, Count: 3}
		for _, c := range Materialize(slice(t, CellList(cells), Task{Shard: sh})) {
			if prev, dup := seen[c.Index]; dup {
				t.Fatalf("cell %d in shards %s and %s", c.Index, prev, sh)
			}
			seen[c.Index] = sh.String()
		}
	}
	if len(seen) != len(cells) {
		t.Fatalf("shards cover %d of %d cells", len(seen), len(cells))
	}
}

// TestMergeRejectsIncomplete asserts merge fails loudly on missing shards,
// duplicated shards and truncated streams rather than producing a silently
// wrong report.
func TestMergeRejectsIncomplete(t *testing.T) {
	cells := testCells(t)
	bufs := shardStreams(t, cells, 2)

	if _, err := Merge(MergeOptions{KeepOutcomes: true}, bytes.NewReader(bufs[0].Bytes())); err == nil {
		t.Error("merge of 1 of 2 shards succeeded")
	}
	if _, err := Merge(MergeOptions{KeepOutcomes: true}, bytes.NewReader(bufs[0].Bytes()), bytes.NewReader(bufs[0].Bytes())); err == nil {
		t.Error("merge of a duplicated shard succeeded")
	}
	raw := bufs[0].Bytes()
	truncated := raw[:bytes.LastIndexByte(raw[:len(raw)-1], '\n')+1] // drop the trailer line
	if _, err := Merge(MergeOptions{KeepOutcomes: true}, bytes.NewReader(truncated), bytes.NewReader(bufs[1].Bytes())); err == nil {
		t.Error("merge of a truncated shard stream succeeded")
	}
}

// normalizeForGolden zeroes the wall-clock fields — the only nondeterministic
// bytes in a report — so the JSON rendering is stable across machines.
func normalizeForGolden(rep *Report) {
	rep.WallNS = 0
	rep.Parallelism = 0
	for i := range rep.Outcomes {
		rep.Outcomes[i].WallNS = 0
	}
}

// TestMergedReportGolden locks the merged report's full JSON rendering
// (fingerprint included) against a golden file: any drift in cell grading,
// aggregation, fingerprinting or JSON shape shows up as a readable diff.
// Regenerate with `go test ./internal/matrix -run Golden -update` after an
// intentional engine or report change.
func TestMergedReportGolden(t *testing.T) {
	cells := testCells(t)
	for _, n := range []int{2, 3} {
		merged := mergeBufs(t, shardStreams(t, cells, n))
		normalizeForGolden(merged)
		raw, err := merged.JSON()
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, '\n')
		// The golden file is split-count independent: 2- and 3-way merges
		// must render byte-identically.
		golden := filepath.Join("testdata", "merged_report.golden.json")
		if *update && n == 2 {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(raw, want) {
			t.Errorf("%d-way merged report diverges from golden file %s:\n%s", n, golden, diffHint(want, raw))
		}
	}
}

// diffHint points at the first diverging line of two JSON renderings.
func diffHint(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return "line " + strconv.Itoa(i+1) + ":\n  want: " + wl[i] + "\n  got:  " + gl[i]
		}
	}
	return "length differs: " + strconv.Itoa(len(wl)) + " vs " + strconv.Itoa(len(gl)) + " lines"
}
