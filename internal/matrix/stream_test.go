package matrix

import (
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

// TestMergeAdversarialSplitConstantMemory merges a split a round-robin
// reader handles badly: shards of different counts, 1/2 beside 2/4 and 4/4.
// A reader that alternated between the streams would take one record of each
// per round, so while the half-size stream reaches cell 2k the quarter-size
// ones run ahead to 4k and it would buffer O(cells). Every stream is in cell
// order, so the merge holds one outcome per stream — its memory is
// O(streams) by construction — and takes each cell from the stream whose
// next outcome it is: the split merges to the monolithic fingerprint.
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
	for _, sh := range []Shard{{Index: 1, Count: 2}, {Index: 2, Count: 4}, {Index: 4, Count: 4}} {
		path := filepath.Join(dir, fmt.Sprintf("shard%d-%d.jsonl", sh.Index, sh.Count))
		if _, err := RunStreamFile(path, slice(t, src, sh), Options{Parallelism: 1}, StreamHeader{
			Name: "adversarial-split", TotalCells: n, Shard: sh.String(),
		}); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}

	rep, err := MergeFilesWith(MergeOptions{}, paths...)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Fingerprint(); got != want {
		t.Fatalf("adversarial merge fingerprint %s, want monolithic %s", got[:16], want[:16])
	}
	if rep.Cells != n {
		t.Fatalf("merged %d cells, want %d", rep.Cells, n)
	}
}

// TestMergeShardRoutingBoundedBuffer merges round-robin-sharded streams,
// each run by a pool of several workers: the pool hands its outcomes on in
// position order, so the merge needs no buffer beyond one outcome per stream
// and every cell arrives once.
func TestMergeShardRoutingBoundedBuffer(t *testing.T) {
	const n = 3000
	src := errorSweep(t, n)
	dir := t.TempDir()
	var paths []string
	for i := 1; i <= 3; i++ {
		sh := Shard{Index: i, Count: 3}
		path := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		if _, err := RunStreamFile(path, slice(t, src, sh), Options{Parallelism: 4}, StreamHeader{
			Name: "routed", TotalCells: n, Shard: sh.String(),
		}); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	rep, err := MergeFilesWith(MergeOptions{}, paths...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells != n {
		t.Fatalf("merged %d cells, want %d", rep.Cells, n)
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
		part := slice(t, CellList(cells), sh)
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
		for _, c := range Materialize(slice(t, CellList(cells), sh)) {
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
