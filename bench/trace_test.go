package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"github.com/bftcup/bftcup/internal/matrix"
	"github.com/bftcup/bftcup/internal/scenario"
)

// pick returns the first cell of the workload's anchor block that satisfies
// want, compiled.
func pick(t *testing.T, workload string, want func(scenario.Params) bool) (*scenario.Compiled, int64, string) {
	t.Helper()
	w := findSweep(workload)
	src, err := w.source(blockSeeds(1, 1, w.seedsPerBlock))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < src.Len(); i++ {
		cell := src.Cell(i)
		if !want(cell.Params) {
			continue
		}
		c, err := cell.Params.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return c, cell.Params.Seed, cell.ID()
	}
	t.Fatalf("%s: no cell matches", workload)
	return nil, 0, ""
}

// TestTracedRunnerMatchesScenarioRunner pins the benchmark's instrumented
// runner to scenario.Runner on one cell per simulator sweep — chosen to cover
// what the mirror has to get right beyond the plain case: a silent Byzantine
// process under partial synchrony, a random graph with a pinned graph seed,
// and a lossy cell with a partition and crash/restart churn. A change to how
// scenario wires a run that the mirror does not follow shows here as a
// different trace digest.
func TestTracedRunnerMatchesScenarioRunner(t *testing.T) {
	cases := []struct {
		workload string
		want     func(scenario.Params) bool
	}{
		{"sweep_standard", func(p scenario.Params) bool {
			return p.Auto.Count > 0 && p.Net.Kind == scenario.NetPartial && p.Graph.UsesSeed()
		}},
		{"sweep_prob", func(p scenario.Params) bool { return p.F == 2 }},
		{"sweep_chaos", func(p scenario.Params) bool {
			return p.Faults.Loss > 0 && len(p.Faults.Churn) > 0 && len(p.Faults.Partitions) > 0
		}},
	}
	var st simTracer
	var ref scenario.Runner
	for _, tc := range cases {
		c, seed, id := pick(t, tc.workload, tc.want)
		// Twice: the second run reuses the engine and the searcher pool.
		for run := 0; run < 2; run++ {
			ct, err := st.run(c, seed)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.workload, id, err)
			}
			want, err := ref.Run(c, seed, true)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.workload, id, err)
			}
			if why := ct.diverges(want); why != "" {
				t.Errorf("%s %s run %d: %s", tc.workload, id, run, why)
			}
			var sum int64
			for _, self := range ct.t.self {
				sum += self
			}
			if math.Abs(float64(sum-ct.wall)) > 0.02*float64(ct.wall) {
				t.Errorf("%s %s: layer self times sum to %d ns, the cell took %d ns", tc.workload, id, sum, ct.wall)
			}
		}
	}
}

// TestTracedRunnerRefusesUnmirroredKinds: a Byzantine behavior the mirror
// does not build is refused, never approximated by another.
func TestTracedRunnerRefusesUnmirroredKinds(t *testing.T) {
	src, err := matrix.AdversarySweep(matrix.Seeds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := src.Cell(0).Params.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var st simTracer
	if _, err := st.run(c, 1); err != errNotMirrored {
		t.Fatalf("adversary cell: got %v, want errNotMirrored", err)
	}
}

// TestTraceChunksGroupBySeed: cells sharing key material stay in one chunk.
func TestTraceChunksGroupBySeed(t *testing.T) {
	src, err := matrix.StandardSweep(matrix.Seeds(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	cells := matrix.CellList(matrix.Materialize(src))
	chunks := traceChunks(cells)
	if len(chunks) != 3 {
		t.Fatalf("%d chunks, want one per seed", len(chunks))
	}
	seen := 0
	for _, chunk := range chunks {
		for _, i := range chunk {
			if cells[i].Params.Seed != cells[chunk[0]].Params.Seed {
				t.Fatalf("chunk mixes seeds %d and %d", cells[i].Params.Seed, cells[chunk[0]].Params.Seed)
			}
			seen++
		}
	}
	if seen != len(cells) {
		t.Fatalf("chunks cover %d of %d cells", seen, len(cells))
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the program's
// metric tables in step: same names, units, directions and bounds, and no
// workload the program does not have.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	// The driver gates on a subset of the program's workloads (README,
	// "Workloads the driver runs"), named as the program names them and in
	// its order.
	next := 0
	for _, w := range doc.Workloads {
		for next < len(workloadNames) && workloadNames[next] != w.Name {
			next++
		}
		if next == len(workloadNames) {
			t.Fatalf("workload %q in BENCHMARK.json is not one of the program's, or is out of order: %v", w.Name, workloadNames)
		}
	}
	compare := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEndNames)
	compare("per_layer", doc.PerLayer, perLayerNames)
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 120)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v := tail(xs); v != 108 {
		t.Errorf("120 samples: got %v, want 108 (p90)", v)
	}
	// 30 samples: p90 would leave 3 beyond it; the highest order statistic
	// with ten beyond is the 20th.
	if v := tail(xs[:30]); v != 20 {
		t.Errorf("30 samples: got %v, want 20", v)
	}
	// 8 samples have no tail, and with 14 the statistic with ten above it is
	// the 4th, below the median: both fall back to the median.
	if v := tail(xs[:8]); v != 4.5 {
		t.Errorf("8 samples: got %v, want the median", v)
	}
	if v := tail(xs[:14]); v != 7.5 {
		t.Errorf("14 samples: got %v, want the median", v)
	}
}

// TestDeciles: a tenth of the samples, rounded down, lies beyond a decile;
// below ten samples it is the extreme.
func TestDeciles(t *testing.T) {
	xs := make([]float64, 25)
	for i := range xs {
		xs[i] = float64((i*7)%25 + 1) // 1..25, shuffled
	}
	if hi, lo := upperDecile(xs), lowerDecile(xs); hi != 23 || lo != 3 {
		t.Errorf("25 samples: deciles %v / %v, want 23 / 3", hi, lo)
	}
	if hi, lo := upperDecile(xs[:4]), lowerDecile(xs[:4]); hi != 22 || lo != 1 {
		t.Errorf("4 samples (1, 8, 15, 22): deciles %v / %v, want the extremes, 22 / 1", hi, lo)
	}
}

// TestBlockSeedsAnchor: block 1 at workload seed 1 is the anchor range, and
// no two (seed, block) pairs overlap.
func TestBlockSeedsAnchor(t *testing.T) {
	if got := blockSeeds(1, 1, 10); got[0] != 1 || got[9] != 10 {
		t.Fatalf("block 1 at seed 1 is %v, want 1..10", got)
	}
	if a, b := blockSeeds(1, 900, 10), blockSeeds(2, 1, 10); a[9] >= b[0] {
		t.Fatalf("seed ranges overlap: %v then %v", a, b)
	}
}
