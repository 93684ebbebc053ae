package matrix

import (
	"encoding/json"
	"runtime"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

func def(t testing.TB, s string) graph.Def {
	t.Helper()
	d, err := graph.ParseDef(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestExpand checks that Source expands the axes into their full cross
// product, every cell indexed by its position and named uniquely.
func TestExpand(t *testing.T) {
	a := Axes{
		Name:   "expand",
		Graphs: []graph.Def{def(t, "fig1b"), def(t, "kosr:sink=5,nonsink=2,k=2")},
		Modes:  []core.Mode{core.ModeKnownF},
		Nets:   []scenario.NetParams{{Kind: scenario.NetSync}, {Kind: scenario.NetPartial}},
		Byz:    []scenario.AutoByz{{}, {Kind: scenario.ByzSilent, Count: 1, Place: scenario.PlaceTail}},
		Seeds:  Seeds(1, 3),
	}
	src, err := a.Source()
	if err != nil {
		t.Fatal(err)
	}
	cells := Materialize(src)
	if want := 2 * 1 * 2 * 2 * 3; len(cells) != want {
		t.Fatalf("expanded %d cells, want %d", len(cells), want)
	}
	seen := make(map[string]bool)
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
		id := c.ID()
		if seen[id] {
			t.Fatalf("duplicate cell id %q", id)
		}
		seen[id] = true
	}
}

// TestExpandRejectsBadCells checks that Source refuses axes whose cells could
// not be built: a generator def with no sink, and a missing graph axis. A def
// that validates but no graph satisfies (sink too small for k) is found when
// its cell compiles, not here: Source probes values, it compiles no cell.
func TestExpandRejectsBadCells(t *testing.T) {
	a := Axes{
		Name:   "bad",
		Graphs: []graph.Def{{Kind: graph.DefKOSR}},
	}
	if _, err := a.Source(); err == nil {
		t.Fatal("expected expansion error for a generator def with no sink")
	}
	if _, err := (Axes{Name: "empty"}).Source(); err == nil {
		t.Fatal("expected error for missing graph axis")
	}
}

func TestSerialParallelIdentical(t *testing.T) {
	src, err := StandardSweep(Seeds(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(src, Options{Parallelism: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(src, Options{Parallelism: runtime.GOMAXPROCS(0), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial.Fingerprint(), parallel.Fingerprint(); s != p {
		t.Fatalf("serial and parallel runs diverge:\n  serial   %s\n  parallel %s", s, p)
	}
	// The fingerprint covers per-cell trace digests, so identical
	// fingerprints mean byte-identical event traces cell by cell. Cross-check
	// a sample anyway, plus the aggregate counters.
	if serial.Consensus != parallel.Consensus || serial.TotalMessages != parallel.TotalMessages ||
		serial.TotalBytes != parallel.TotalBytes || serial.Errors != parallel.Errors {
		t.Fatalf("aggregates diverge: %+v vs %+v", serial, parallel)
	}
	for i := range serial.Outcomes {
		so, po := serial.Outcomes[i], parallel.Outcomes[i]
		if so.TraceDigest == "" || so.TraceDigest != po.TraceDigest {
			t.Fatalf("cell %d trace digests diverge: %q vs %q", i, so.TraceDigest, po.TraceDigest)
		}
	}
}

func TestStandardSweepAllConsensus(t *testing.T) {
	src, err := StandardSweep(Seeds(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d cells errored", rep.Errors)
	}
	for i := range rep.Outcomes {
		o := &rep.Outcomes[i]
		if !o.Consensus {
			t.Errorf("cell %s: %s", o.ID, o.FailureMode)
		}
	}
}

func TestPaperSuiteThroughMatrix(t *testing.T) {
	cells := FromExperiments(scenario.AllExperiments())
	rep, err := Run(cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d cells errored", rep.Errors)
	}
	if rep.Expected != len(cells) {
		t.Fatalf("expectations lost: %d of %d", rep.Expected, len(cells))
	}
	if rep.Mismatches != 0 {
		for i := range rep.Outcomes {
			o := &rep.Outcomes[i]
			if o.Match != nil && !*o.Match {
				t.Errorf("cell %s: measured %t, paper predicts %t", o.ID, o.Consensus, *o.Expect)
			}
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	src, err := StandardSweep(Seeds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	cells := Materialize(src)
	rep, err := Run(CellList(cells[:4]), Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cells != rep.Cells || len(back.Outcomes) != len(rep.Outcomes) {
		t.Fatalf("JSON round trip lost cells: %d/%d vs %d/%d",
			back.Cells, len(back.Outcomes), rep.Cells, len(rep.Outcomes))
	}
	if back.Fingerprint() != rep.Fingerprint() {
		t.Fatal("JSON round trip changed the deterministic fingerprint")
	}
}

// TestSweepAnchors pins the two fingerprints bench/ hard-codes as its anchors
// (and counts a mismatch against as a failed operation), so an edit that
// changes a trace, a message count or a verdict fails here, under the tier-1
// command, before it fails the benchmark. It also pins the adversary sweep,
// which no bench workload runs: the only anchor over the zoo's collusion,
// delay, selective-silence and equivocation cells.
func TestSweepAnchors(t *testing.T) {
	anchors := []struct {
		name  string
		sweep func([]int64) (CellSource, error)
		seeds []int64
		want  string
		slow  bool
	}{
		{"standard", StandardSweep, Seeds(1, 10), "4b072439c652d9f4eeb39ecf603b390fd7386fbc746bfcfe6ba2065620e8b0b8", false},
		{"probabilistic", ProbabilisticSweep, Seeds(1, 1), "a7e7a889fe264e59265bd7813649bcad1a1e5c91a2f376b4bd5f1bc5181d747b", true},
		{"adversary", AdversarySweep, Seeds(1, 3), "5692f30dabfed8fce2ca67a60880d3744f4f70954d02bd01b74a1d93b44c0aa6", false},
	}
	for _, a := range anchors {
		t.Run(a.name, func(t *testing.T) {
			if a.slow && testing.Short() {
				t.Skip("skipping the slow sweep in -short mode")
			}
			src, err := a.sweep(a.seeds)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(src, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Fingerprint(); got != a.want {
				t.Fatalf("%s sweep fingerprint\n  got  %s\n  want %s", a.name, got, a.want)
			}
		})
	}
}

// TestOutcomeWallNS is the regression test for per-cell wall time reading 0:
// every run cell reports how long it took, and since a worker runs its cells
// back to back inside Run, the cells' times sum to at most the report's wall
// time on each worker.
func TestOutcomeWallNS(t *testing.T) {
	src, err := StandardSweep(Seeds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 3} {
		rep, err := Run(src, Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for i := range rep.Outcomes {
			o := &rep.Outcomes[i]
			if o.WallNS <= 0 {
				t.Fatalf("parallelism %d: cell %s reports WallNS %d", par, o.ID, o.WallNS)
			}
			sum += o.WallNS
		}
		if limit := rep.WallNS * int64(rep.Parallelism); sum > limit {
			t.Fatalf("parallelism %d: cells sum to %dns, more than %d workers × %dns", par, sum, rep.Parallelism, rep.WallNS)
		}
	}
}

func TestProgressCallback(t *testing.T) {
	src, err := StandardSweep(Seeds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	cells := Materialize(src)[:6]
	var calls int
	var last int
	_, err = Run(CellList(cells), Options{Parallelism: 3, Progress: func(done, total int) {
		calls++
		if total != len(cells) {
			t.Errorf("total %d, want %d", total, len(cells))
		}
		if done > last {
			last = done
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(cells) || last != len(cells) {
		t.Fatalf("progress: %d calls, last %d, want %d", calls, last, len(cells))
	}
}

func TestHorizonPropagates(t *testing.T) {
	a := Axes{
		Name:    "horizon",
		Graphs:  []graph.Def{def(t, "complete:4")},
		Modes:   []core.Mode{core.ModePermissioned},
		Nets:    []scenario.NetParams{{Kind: scenario.NetSync}},
		F:       []int{1},
		Horizon: 30 * sim.Second,
	}
	src, err := a.Source()
	if err != nil {
		t.Fatal(err)
	}
	cells := Materialize(src)
	if len(cells) != 1 || cells[0].Params.Horizon != 30*sim.Second {
		t.Fatalf("horizon lost: %+v", cells[0].Params)
	}
}
