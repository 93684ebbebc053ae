package matrix

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
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
			got := slice(t, src, sh)
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

// runAllModes executes the sweep behind src every way the pipeline offers
// and asserts one fingerprint: monolithic Run, incremental Aggregator fed
// in order, and sharded RunStream files merged (outcome-retaining and
// summary-only). An Aggregator fed out of order refuses the first outcome
// that is not the next.
func runAllModes(t *testing.T, name string, src CellSource) {
	t.Helper()
	mono, err := Run(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mono.Name = name
	want := mono.Fingerprint()

	// Incremental aggregation over the monolithic outcomes must seal the
	// same digest.
	agg := NewAggregator(false)
	for i, o := range mono.Outcomes {
		if err := agg.Add(i, o); err != nil {
			t.Fatal(err)
		}
	}
	rep := agg.Report(0)
	if got := rep.Fingerprint(); got != want {
		t.Fatalf("incremental aggregation fingerprint %s, want %s", got[:16], want[:16])
	}
	if rep.Cells != mono.Cells || rep.Consensus != mono.Consensus || rep.Errors != mono.Errors ||
		rep.TotalMessages != mono.TotalMessages || rep.TotalBytes != mono.TotalBytes {
		t.Fatalf("incremental aggregates diverge: %+v vs %+v", rep, mono)
	}
	// Fed in reverse, it refuses the first outcome, naming position 0.
	if last := len(mono.Outcomes) - 1; last > 0 {
		err := NewAggregator(false).Add(last, mono.Outcomes[last])
		if err == nil || !strings.Contains(err.Error(), "want position 0") {
			t.Fatalf("an Aggregator fed position %d first answered %v, want a refusal naming position 0", last, err)
		}
	}

	// Sharded: three streamed shard files, merged with and without outcome
	// retention.
	dir := t.TempDir()
	var paths []string
	for i := 1; i <= 3; i++ {
		sh := Shard{Index: i, Count: 3}
		path := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		if _, err := RunStreamFile(path, slice(t, src, sh), Options{Parallelism: 2}, StreamHeader{
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

}

// TestFingerprintIdentityStandardSweep asserts monolithic ≡ incremental ≡
// sharded-then-merged on the standard sweep.
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

// TestHugeSweepStreams is the scale acceptance test: a 10^5-cell sweep runs
// through RunStream end to end — lazy source in, JSONL out, no cell or
// outcome slice anywhere — and its summary merge reproduces the monolithic
// fingerprint without materializing a single outcome.
func TestHugeSweepStreams(t *testing.T) {
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
	if rep := large.Report(0); rep.Cells != 200_000 {
		t.Fatalf("large aggregator: cells %d", rep.Cells)
	}
	runtime.KeepAlive(small)
	const limit = 4 << 20
	if heapLarge > heapSmall+limit {
		t.Fatalf("aggregator retained heap grew from %d to %d bytes over 40× more cells (limit +%d)",
			heapSmall, heapLarge, limit)
	}
	// The seed axis must have hit the overflow bucket rather than growing
	// one row per seed.
	if got := len(small.Report(0).Axes["seed"]); got != maxAxisValues+1 {
		t.Fatalf("seed axis tracks %d values, want %d capped + overflow", got, maxAxisValues+1)
	}
}
