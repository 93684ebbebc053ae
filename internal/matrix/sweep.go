package matrix

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

// ParseSeedRange parses a seed-sweep flag: "FROM:TO", or a bare count "N"
// meaning 1:N. The shared parser keeps every CLI's sweep syntax identical.
func ParseSeedRange(s string) ([]int64, error) {
	if from, to, ok := strings.Cut(s, ":"); ok {
		a, err1 := strconv.ParseInt(from, 10, 64)
		b, err2 := strconv.ParseInt(to, 10, 64)
		if err1 != nil || err2 != nil || b < a {
			return nil, fmt.Errorf("bad seed range %q (want FROM:TO)", s)
		}
		return Seeds(a, b), nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 1 {
		return nil, fmt.Errorf("bad seed count %q (want N or FROM:TO)", s)
	}
	return Seeds(1, n), nil
}

// Seeds returns [from, from+1, …, to] for seed-sweep axes.
func Seeds(from, to int64) []int64 {
	if to < from {
		return nil
	}
	out := make([]int64, 0, to-from+1)
	for s := from; s <= to; s++ {
		out = append(out, s)
	}
	return out
}

// parseDefs parses graph-def strings, failing loudly on the first malformed
// one instead of panicking deep inside a sweep definition.
func parseDefs(specs ...string) ([]graph.Def, error) {
	defs := make([]graph.Def, 0, len(specs))
	for _, s := range specs {
		d, err := graph.ParseDef(s)
		if err != nil {
			return nil, fmt.Errorf("sweep graph def: %w", err)
		}
		defs = append(defs, d)
	}
	return defs, nil
}

// StandardSweep is the default scenario matrix of cmd/experiments -matrix:
// each protocol family crossed with its valid graph families, the sync and
// partially-synchronous network models, clean and single-silent-fault
// placements, and the given seed range. With the default ten seeds it
// expands to 240 cells. Every axis combination included here solves
// consensus per the paper's theorems, so the sweep doubles as a wide
// regression net: any cell without consensus is a finding.
//
// The returned source is lazy: cells are materialized on demand by the
// worker pool, so the sweep scales to arbitrary seed ranges without an
// up-front expansion. A malformed graph def is an error, not a panic.
func StandardSweep(seeds []int64) (CellSource, error) {
	if len(seeds) == 0 {
		seeds = Seeds(1, 10)
	}
	cupGraphs, err := parseDefs("fig1b", "kosr:sink=5,nonsink=3,k=2,extra=0.15")
	if err != nil {
		return nil, err
	}
	cupftGraphs, err := parseDefs("fig4a", "fig4b", "extended:core=5,noncore=3,extra=0.15")
	if err != nil {
		return nil, err
	}
	permGraphs, err := parseDefs("complete:7")
	if err != nil {
		return nil, err
	}
	none := scenario.AutoByz{}
	tailSilent := scenario.AutoByz{Kind: scenario.ByzSilent, Count: 1, Place: scenario.PlaceTail}
	nets := []scenario.NetParams{
		{Kind: scenario.NetSync},
		{Kind: scenario.NetPartial, GST: 2 * sim.Second},
	}
	groups := []Axes{
		{
			Name:   "bft-cup",
			Graphs: cupGraphs,
			Modes:  []core.Mode{core.ModeKnownF},
			Nets:   nets,
			Byz:    []scenario.AutoByz{none, tailSilent},
			Seeds:  seeds,
		},
		{
			Name:   "bft-cupft",
			Graphs: cupftGraphs,
			Modes:  []core.Mode{core.ModeUnknownF},
			Nets:   nets,
			Byz:    []scenario.AutoByz{none, tailSilent},
			Seeds:  seeds,
		},
		{
			Name:   "permissioned",
			Graphs: permGraphs,
			Modes:  []core.Mode{core.ModePermissioned},
			Nets:   nets,
			Byz:    []scenario.AutoByz{none, tailSilent},
			Seeds:  seeds,
		},
	}
	srcs := make([]CellSource, 0, len(groups))
	for _, g := range groups {
		src, err := g.Source()
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, src)
	}
	return concat(srcs...), nil
}

// AdversarySweep is the adversary-zoo counterpart of StandardSweep
// (cmd/experiments -matrix -adversary): the BFT-CUP graph families crossed
// with every zoo behavior and, for the silent baseline, with both the tail
// heuristic and the worst-case placement search — so one report contrasts
// kind(tail) rows against the same count at byz=worst. Unlike StandardSweep,
// cells here are allowed to lose consensus: that a worst-placed or colluding
// adversary defeats a graph the tail heuristic survives is the sweep's
// finding, not a regression (the CLI exits non-zero on errors only).
//
// StandardSweep is deliberately untouched by the zoo: its fingerprint is the
// cross-version regression anchor.
func AdversarySweep(seeds []int64) (CellSource, error) {
	if len(seeds) == 0 {
		seeds = Seeds(1, 10)
	}
	cupGraphs, err := parseDefs("fig1b", "kosr:sink=5,nonsink=3,k=2,extra=0.15")
	if err != nil {
		return nil, err
	}
	nets := []scenario.NetParams{
		{Kind: scenario.NetSync},
		{Kind: scenario.NetPartial, GST: 2 * sim.Second},
	}
	zoo := []scenario.AutoByz{
		{Kind: scenario.ByzDelay, Count: 1, Place: scenario.PlaceTail},
		{Kind: scenario.ByzSelectiveSilent, Count: 1, Place: scenario.PlaceTail},
		{Kind: scenario.ByzEquivPD, Count: 1, Place: scenario.PlaceTail},
		{Kind: scenario.ByzCollude, Count: 2, Place: scenario.PlaceTail},
		{Kind: scenario.ByzSilent, Count: 2, Place: scenario.PlaceTail},
		{Kind: scenario.ByzSilent, Count: 2, Place: scenario.PlaceWorst},
	}
	axes := Axes{
		Name:   "adversary",
		Graphs: cupGraphs,
		Modes:  []core.Mode{core.ModeKnownF},
		Nets:   nets,
		Byz:    zoo,
		Seeds:  seeds,
	}
	return axes.Source()
}

// ChaosSweep crosses the BFT-CUP graph families with a ladder of chaos
// fault-injection points (cmd/experiments -matrix -chaos): loss rates in
// ascending order (each with proportional duplication and a 2ms reorder
// bound), with and without a timed half/half partition window, and with and
// without crash/restart churn of one sink member — all over both fault
// thresholds and the seed range. The zero point of the ladder is a genuinely
// clean cell (no injection, no hardening), so the sweep's per-axis property
// counts read as degradation curves from an uninjected baseline: as the loss
// axis climbs, the four graded consensus properties may only degrade, and
// where they degrade to is the measurement. Cells that lose consensus under
// injection are findings, not regressions.
//
// Every injected cell runs the hardened protocol profile (retransmission
// backoff, delta resync, PBFT decide-note replies); the seed send-once
// profile's collapse under the same injection is pinned separately by the
// scenario-level A/B regression tests.
//
// StandardSweep stays the untouched cross-version fingerprint anchor; this
// sweep has its own fingerprint identity tests (mono ≡ sharded ≡ resumed ≡
// parallel).
func ChaosSweep(seeds []int64) (CellSource, error) {
	if len(seeds) == 0 {
		seeds = Seeds(1, 3)
	}
	cupGraphs, err := parseDefs("fig1b", "kosr:sink=5,nonsink=3,k=2,extra=0.15")
	if err != nil {
		return nil, err
	}
	// Clean sync cells decide within a few tens of virtual milliseconds, so
	// both disruptions start at 10ms — inside the discovery phase — or they
	// would land after the protocol already finished.
	partition := []scenario.PartitionWindow{
		{From: 10 * sim.Millisecond, Until: 400 * sim.Millisecond},
	}
	churn := []scenario.ChurnEvent{
		{ID: 2, CrashAt: 10 * sim.Millisecond, RestartAt: 500 * sim.Millisecond},
	}
	var faults []scenario.FaultParams
	for _, loss := range []float64{0, 0.05, 0.15, 0.3} {
		for _, part := range [][]scenario.PartitionWindow{nil, partition} {
			for _, ch := range [][]scenario.ChurnEvent{nil, churn} {
				fp := scenario.FaultParams{Loss: loss, Partitions: part, Churn: ch}
				if loss > 0 {
					fp.Dup = loss / 2
					fp.Reorder = 2 * sim.Millisecond
				}
				faults = append(faults, fp)
			}
		}
	}
	axes := Axes{
		Name:   "chaos",
		Graphs: cupGraphs,
		Modes:  []core.Mode{core.ModeKnownF},
		Nets:   []scenario.NetParams{{Kind: scenario.NetSync}},
		F:      []int{1, 2},
		Faults: faults,
		Seeds:  seeds,
		// Injected cells that lose termination idle to the horizon; 10
		// virtual seconds bounds their cost (clean sync cells decide well
		// under one).
		Horizon: 10 * sim.Second,
	}
	return axes.Source()
}

// ProbabilisticSweep crosses the three random-graph families — Erdős–Rényi,
// random geometric and scale-free preferential attachment — over sizes,
// densities and fault thresholds (cmd/experiments -matrix -probabilistic).
// Unlike the planted families (kosr:, extended:), these graphs carry no
// construction-time guarantee of the paper's connectivity conditions: whether
// a sink, a core, and consensus emerge at a given (family, n, density, f)
// point is the measurement, and the per-axis Agreement/Validity/Integrity/
// Termination counts in the report are the emergence rates. Cells that lose
// consensus are findings, not regressions.
//
// One density knob d spans the families on comparable footing: er uses edge
// probability p = d, geo uses connection radius r = d (unit square; expected
// neighborhood area πd²), and sf attaches m = max(1, round(8d)) edges per
// node. The mapping is a labeling convention for the sweep axes, not a claim
// of equal expected degree.
//
// StandardSweep stays the untouched cross-version fingerprint anchor; this
// sweep has its own fingerprint identity tests (mono ≡ sharded ≡ resumed ≡
// parallel).
func ProbabilisticSweep(seeds []int64) (CellSource, error) {
	if len(seeds) == 0 {
		seeds = Seeds(1, 5)
	}
	var specs []string
	for _, family := range []string{"er", "geo", "sf"} {
		for _, n := range []int{12, 16, 20} {
			for _, d := range []float64{0.15, 0.3, 0.5} {
				switch family {
				case "er":
					specs = append(specs, fmt.Sprintf("er:n=%d,p=%g", n, d))
				case "geo":
					specs = append(specs, fmt.Sprintf("geo:n=%d,r=%g", n, d))
				case "sf":
					specs = append(specs, fmt.Sprintf("sf:n=%d,m=%d", n, max(1, int(d*8+0.5))))
				}
			}
		}
	}
	defs, err := parseDefs(specs...)
	if err != nil {
		return nil, err
	}
	axes := Axes{
		Name:   "probabilistic",
		Graphs: defs,
		Modes:  []core.Mode{core.ModeKnownF},
		Nets:   []scenario.NetParams{{Kind: scenario.NetSync}},
		F:      []int{1, 2},
		Seeds:  seeds,
		// Random graphs that never admit a sink would otherwise idle out the
		// default 60 virtual seconds per cell; half that bounds sweep cost
		// without touching cells that do terminate (they finish well under).
		Horizon: 30 * sim.Second,
	}
	return axes.Source()
}
