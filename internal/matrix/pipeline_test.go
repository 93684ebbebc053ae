package matrix

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

// TestSourceMatchesExpand pins the lazy source to the eager expansion: the
// mixed-radix arithmetic must produce exactly the cells the nested loops below
// produce (graphs outermost, seeds innermost), the order every sweep
// fingerprint was taken in, and the shard view must select exactly the cells
// whose index falls in the shard's residue class.
func TestSourceMatchesExpand(t *testing.T) {
	a := Axes{
		Name:   "source-vs-loops",
		Graphs: []graph.Def{def(t, "fig1b"), def(t, "kosr:sink=5,nonsink=2,k=2")},
		Modes:  []core.Mode{core.ModeKnownF},
		Nets:   []scenario.NetParams{{Kind: scenario.NetSync}, {Kind: scenario.NetPartial}},
		Byz:    []scenario.AutoByz{{}, {Kind: scenario.ByzSilent, Count: 1, Place: scenario.PlaceTail}},
		F:      []int{-1, 1},
		Seeds:  Seeds(1, 3),
	}
	var cells []Cell
	for _, g := range a.Graphs {
		for _, mode := range a.Modes {
			for _, net := range a.Nets {
				for _, b := range a.Byz {
					for _, f := range a.F {
						for _, seed := range a.Seeds {
							p := scenario.Params{Graph: g, Mode: mode, F: f, Auto: b, Net: net, Horizon: 60 * sim.Second, Seed: seed}
							cells = append(cells, Cell{Index: len(cells), Params: p})
						}
					}
				}
			}
		}
	}
	src, err := a.Source()
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != len(cells) {
		t.Fatalf("source has %d cells, nested loops %d", src.Len(), len(cells))
	}
	for i := range cells {
		got := src.Cell(i)
		if got.Index != i || src.Index(i) != i {
			t.Fatalf("cell %d: lazy index %d/%d", i, got.Index, src.Index(i))
		}
		if !reflect.DeepEqual(got.Params, cells[i].Params) {
			t.Fatalf("cell %d diverges:\n  lazy:  %+v\n  loops: %+v", i, got.Params, cells[i].Params)
		}
	}
	for _, n := range []int{2, 3, 5} {
		for idx := 1; idx <= n; idx++ {
			sh := Shard{Index: idx, Count: n}
			var want []Cell
			for _, c := range cells {
				if c.Index%n == idx-1 {
					want = append(want, c)
				}
			}
			got := slice(t, src, Task{Shard: sh})
			if got.Len() != len(want) {
				t.Fatalf("shard %s: lazy %d cells, nested loops %d", sh, got.Len(), len(want))
			}
			for j := range want {
				if got.Index(j) != want[j].Index || !reflect.DeepEqual(got.Cell(j).Params, want[j].Params) {
					t.Fatalf("shard %s position %d diverges", sh, j)
				}
			}
		}
	}
}

// TestSourceValidatesEveryAxisValue asserts Axes.Source rejects malformed
// values on any axis, not just the graph axis or the first value.
func TestSourceValidatesEveryAxisValue(t *testing.T) {
	base := Axes{
		Name:   "probe",
		Graphs: []graph.Def{def(t, "fig1b")},
		Modes:  []core.Mode{core.ModeKnownF},
	}
	if _, err := base.Source(); err != nil {
		t.Fatalf("valid axes rejected: %v", err)
	}
	bad := []Axes{
		func() Axes {
			a := base
			a.Graphs = append([]graph.Def{a.Graphs[0]}, graph.Def{Kind: graph.DefKOSR})
			return a
		}(),
		func() Axes { a := base; a.F = []int{-1, -7}; return a }(),
		func() Axes {
			a := base
			a.Byz = []scenario.AutoByz{{}, {Kind: scenario.ByzSilent, Count: -1}}
			return a
		}(),
		func() Axes {
			a := base
			a.Nets = []scenario.NetParams{{Kind: scenario.NetSync}, {Kind: scenario.NetSync, Delta: -sim.Millisecond}}
			return a
		}(),
		func() Axes {
			a := base
			a.Faults = []scenario.FaultParams{{}, {Loss: 1.5}}
			return a
		}(),
	}
	for i, a := range bad {
		if _, err := a.Source(); err == nil {
			t.Errorf("case %d: Source accepted a malformed non-first axis value", i)
		}
	}
}

// truncateStream cuts the last n lines off a stream file (the trailer plus
// n-1 outcome lines), simulating a crash mid-sweep.
func truncateStream(t *testing.T, path string, n int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := len(raw)
	for i := 0; i < n; i++ {
		end = bytes.LastIndexByte(raw[:end-1], '\n') + 1
	}
	if err := os.WriteFile(path, raw[:end], 0o644); err != nil {
		t.Fatal(err)
	}
}

// runAllModes executes the sweep behind src every way the pipeline offers
// and asserts one fingerprint: monolithic Run, incremental Aggregator fed
// in order and fully reversed, sharded RunStream files merged (outcome-
// retaining and summary-only), and a shard resumed after truncation.
func runAllModes(t *testing.T, name string, src CellSource) {
	t.Helper()
	mono, err := Run(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mono.Name = name
	want := mono.Fingerprint()

	// Incremental aggregation over the monolithic outcomes, in order and in
	// reverse (exercising the reorder buffer), must seal the same digest.
	for _, reverse := range []bool{false, true} {
		agg := NewAggregator(false)
		for i := 0; i < len(mono.Outcomes); i++ {
			pos := i
			if reverse {
				pos = len(mono.Outcomes) - 1 - i
			}
			if err := agg.Add(pos, mono.Outcomes[pos]); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := agg.Report(0)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Fingerprint(); got != want {
			t.Fatalf("incremental aggregation (reverse=%t) fingerprint %s, want %s", reverse, got[:16], want[:16])
		}
		if rep.Cells != mono.Cells || rep.Consensus != mono.Consensus || rep.Errors != mono.Errors ||
			rep.TotalMessages != mono.TotalMessages || rep.TotalBytes != mono.TotalBytes {
			t.Fatalf("incremental aggregates diverge: %+v vs %+v", rep, mono)
		}
	}

	// Sharded: three streamed shard files, merged with and without outcome
	// retention.
	dir := t.TempDir()
	var paths []string
	for i := 1; i <= 3; i++ {
		sh := Shard{Index: i, Count: 3}
		path := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		if _, err := RunStreamFile(path, slice(t, src, Task{Shard: sh}), Options{Parallelism: 2}, StreamHeader{
			Name: name, TotalCells: src.Len(), Shard: sh.String(),
		}); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	for _, keep := range []bool{true, false} {
		merged, err := MergeFilesWith(MergeOptions{KeepOutcomes: keep}, paths...)
		if err != nil {
			t.Fatal(err)
		}
		if got := merged.Fingerprint(); got != want {
			t.Fatalf("sharded merge (keep=%t) fingerprint %s, want %s", keep, got[:16], want[:16])
		}
		if keep && len(merged.Outcomes) != src.Len() {
			t.Fatalf("retaining merge kept %d outcomes, want %d", len(merged.Outcomes), src.Len())
		}
		if !keep && merged.Outcomes != nil {
			t.Fatalf("summary merge retained %d outcomes", len(merged.Outcomes))
		}
	}

	// Resumed: truncate shard 1 (trailer plus one outcome) and complete it;
	// the merge must still reproduce the monolithic fingerprint.
	sh := Shard{Index: 1, Count: 3}
	part := slice(t, src, Task{Shard: sh})
	truncateStream(t, paths[0], 2)
	tr, skipped, err := ResumeStreamFile(paths[0], part, Options{Parallelism: 2}, StreamHeader{
		Name: name, TotalCells: src.Len(), Shard: sh.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if wantSkip := part.Len() - 1; skipped != wantSkip {
		t.Fatalf("resume skipped %d cells, want %d", skipped, wantSkip)
	}
	if tr.CellsRun != part.Len() {
		t.Fatalf("resumed trailer covers %d cells, want %d", tr.CellsRun, part.Len())
	}
	merged, err := MergeFilesWith(MergeOptions{}, paths...)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Fingerprint(); got != want {
		t.Fatalf("resumed merge fingerprint %s, want %s", got[:16], want[:16])
	}
}

// TestFingerprintIdentityStandardSweep asserts monolithic ≡ incremental ≡
// sharded-then-merged ≡ resumed-after-truncation on the standard sweep.
func TestFingerprintIdentityStandardSweep(t *testing.T) {
	src, err := StandardSweep(Seeds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	runAllModes(t, "standard sweep, seeds 1:1", src)
}

// TestFingerprintIdentityExtendedKOSR asserts the same identity on a
// generated extended-k-OSR family sweep, where every cell's graph is built
// from its seed — the regime the lazy source exists for.
func TestFingerprintIdentityExtendedKOSR(t *testing.T) {
	a := Axes{
		Name:   "extended-sweep",
		Graphs: []graph.Def{def(t, "extended:core=4,noncore=2,extra=0.2")},
		Modes:  []core.Mode{core.ModeUnknownF},
		Nets:   []scenario.NetParams{{Kind: scenario.NetSync}},
		Seeds:  Seeds(1, 6),
	}
	src, err := a.Source()
	if err != nil {
		t.Fatal(err)
	}
	runAllModes(t, "extended-sweep", src)
}

// TestResumeEdgeCases covers the resume states outside the happy path: a
// missing file (fresh run), an already-complete file (nothing to run), and
// a stream from a different sweep (refused).
func TestResumeEdgeCases(t *testing.T) {
	cells := testCells(t)
	sh := Shard{Index: 1, Count: 2}
	part := slice(t, CellList(cells), Task{Shard: sh})
	hdr := StreamHeader{Name: "stream-test", TotalCells: len(cells), Shard: sh.String()}
	path := filepath.Join(t.TempDir(), "shard.jsonl")

	// Missing file: resume degrades to a fresh run.
	tr, skipped, err := ResumeStreamFile(path, part, Options{}, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || tr.CellsRun != part.Len() {
		t.Fatalf("fresh resume: skipped %d, ran %d, want 0/%d", skipped, tr.CellsRun, part.Len())
	}

	// Complete file: everything is skipped, nothing re-runs, and the
	// trailer still describes the whole shard.
	tr, skipped, err = ResumeStreamFile(path, part, Options{}, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != part.Len() || tr.CellsRun != part.Len() {
		t.Fatalf("complete resume: skipped %d, trailer %d, want %d/%d", skipped, tr.CellsRun, part.Len(), part.Len())
	}

	// A header from a different sweep must be refused, not overwritten.
	other := hdr
	other.Name = "some-other-sweep"
	if _, _, err := ResumeStreamFile(path, part, Options{}, other); err == nil {
		t.Fatal("resume accepted a stream from a different sweep")
	}
	// The refused file is untouched and still a complete, mergeable shard.
	if _, _, err := ResumeStreamFile(path, part, Options{}, hdr); err != nil {
		t.Fatalf("refusal damaged the stream: %v", err)
	}
}

// errorSweep builds a lazy n-cell sweep whose cells all fail instantly at
// graph construction (a k-OSR spec no seed can satisfy): the cheapest
// possible real cells, used to exercise the pipeline at 10^5 cells without
// 10^5 simulations.
func errorSweep(t *testing.T, n int) CellSource {
	t.Helper()
	a := Axes{
		Name:   "error-sweep",
		Graphs: []graph.Def{def(t, "kosr:sink=2,nonsink=1,k=3")},
		Modes:  []core.Mode{core.ModeKnownF},
		Seeds:  Seeds(1, int64(n)),
	}
	src, err := a.Source()
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != n {
		t.Fatalf("error sweep has %d cells, want %d", src.Len(), n)
	}
	return src
}

// TestHugeSweepStreamsAndResumes is the scale acceptance test: a 10^5-cell
// sweep runs through RunStream end to end — lazy source in, JSONL out, no
// cell or outcome slice anywhere — its summary merge reproduces the
// monolithic fingerprint, and resuming a truncated copy completes only the
// missing cells.
func TestHugeSweepStreamsAndResumes(t *testing.T) {
	const n = 100_000
	src := errorSweep(t, n)

	mono, err := Run(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mono.Name = "error-sweep"
	if mono.Errors != n {
		t.Fatalf("%d of %d cells errored, want all (the sweep exists to error instantly)", mono.Errors, n)
	}
	want := mono.Fingerprint()

	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	hdr := StreamHeader{Name: "error-sweep", TotalCells: n, Shard: "1/1"}
	tr, err := RunStreamFile(path, src, Options{}, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if tr.CellsRun != n || tr.Errors != n {
		t.Fatalf("streamed %d cells with %d errors, want %d/%d", tr.CellsRun, tr.Errors, n, n)
	}
	merged, err := MergeFilesWith(MergeOptions{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Fingerprint(); got != want {
		t.Fatalf("summary merge of %d streamed cells fingerprint %s, want monolithic %s", n, got[:16], want[:16])
	}
	if merged.Outcomes != nil {
		t.Fatalf("summary merge materialized %d outcomes", len(merged.Outcomes))
	}

	// Crash at ~40% and resume: only the missing cells run, and the merged
	// fingerprint is unchanged.
	truncateStream(t, path, n/2)
	tr, skipped, err := ResumeStreamFile(path, src, Options{}, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if wantSkip := n - n/2 + 1; skipped != wantSkip { // n/2 lines cut = trailer + (n/2 - 1) outcomes
		t.Fatalf("resume skipped %d cells, want %d", skipped, wantSkip)
	}
	if tr.CellsRun != n {
		t.Fatalf("resumed trailer covers %d cells, want %d", tr.CellsRun, n)
	}
	merged, err = MergeFilesWith(MergeOptions{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Fingerprint(); got != want {
		t.Fatalf("resumed merge fingerprint %s, want %s", got[:16], want[:16])
	}
}

// syntheticOutcome fabricates a distinct outcome without running anything —
// distinct ID and seed per cell, so any accidental retention by the
// aggregator shows up as heap growth.
func syntheticOutcome(i int) Outcome {
	return Outcome{
		Index:       i,
		ID:          fmt.Sprintf("synthetic/cell-%d", i),
		Graph:       "kosr:sink=5,nonsink=3,k=2",
		Mode:        "bft-cup",
		Net:         "sync",
		Byz:         "none",
		F:           -1,
		Seed:        int64(i),
		Consensus:   i%7 != 0,
		Agreement:   true,
		Validity:    true,
		Integrity:   true,
		Termination: i%7 != 0,
		Messages:    int64(100 + i%13),
		Bytes:       int64(1000 + i%131),
	}
}

// retainedHeap feeds n synthetic outcomes into a summary aggregator and
// reports the live heap with the aggregator still reachable.
func retainedHeap(t *testing.T, n int) (agg *Aggregator, heap uint64) {
	t.Helper()
	agg = NewAggregator(false)
	for i := 0; i < n; i++ {
		if err := agg.Add(i, syntheticOutcome(i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return agg, ms.HeapAlloc
}

// TestAggregatorMemoryIndependentOfCellCount pins the tentpole's memory
// claim: folding 40× more cells must not grow the aggregator's retained
// heap materially (axis tables are capped, outcomes are hashed and
// dropped). Retaining outcomes at the large count would cost tens of
// megabytes; the gate allows 4 MB of noise.
func TestAggregatorMemoryIndependentOfCellCount(t *testing.T) {
	small, heapSmall := retainedHeap(t, 5_000)
	large, heapLarge := retainedHeap(t, 200_000)
	if rep, err := large.Report(0); err != nil || rep.Cells != 200_000 {
		t.Fatalf("large aggregator: %v, cells %d", err, rep.Cells)
	}
	runtime.KeepAlive(small)
	const limit = 4 << 20
	if heapLarge > heapSmall+limit {
		t.Fatalf("aggregator retained heap grew from %d to %d bytes over 40× more cells (limit +%d)",
			heapSmall, heapLarge, limit)
	}
	// The seed axis must have hit the overflow bucket rather than growing
	// one row per seed.
	rep, err := small.Report(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Axes["seed"]); got != maxAxisValues+1 {
		t.Fatalf("seed axis tracks %d values, want %d capped + overflow", got, maxAxisValues+1)
	}
}
