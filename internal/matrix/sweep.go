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

// maxSeeds caps a seed range's length: well above the millions of seeds a
// sweep may run, well below a seed slice that cannot be allocated.
const maxSeeds = 1 << 24

// ParseSeedBounds parses a seed-sweep flag: "FROM:TO", or a bare count "N"
// meaning 1:N, into the range's first seed and its length. The shared parser
// keeps every CLI's sweep syntax identical. It refuses a range of more than
// 2^24 seeds.
func ParseSeedBounds(s string) (from int64, count int, err error) {
	if a, b, ok := strings.Cut(s, ":"); ok {
		first, err1 := strconv.ParseInt(a, 10, 64)
		last, err2 := strconv.ParseInt(b, 10, 64)
		if err1 != nil || err2 != nil || last < first {
			return 0, 0, fmt.Errorf("bad seed range %q (want FROM:TO)", s)
		}
		n, ok := seedCount(first, last)
		if !ok {
			return 0, 0, fmt.Errorf("seed range %q spans more than %d seeds", s, maxSeeds)
		}
		return first, int(n), nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 1 {
		return 0, 0, fmt.Errorf("bad seed count %q (want N or FROM:TO)", s)
	}
	if _, ok := seedCount(1, n); !ok {
		return 0, 0, fmt.Errorf("seed count %q is more than %d seeds", s, maxSeeds)
	}
	return 1, int(n), nil
}

// ParseSeedRange is ParseSeedBounds as the seed list the named sweeps take.
// It refuses a range of more than 2^24 seeds before allocating any.
func ParseSeedRange(s string) ([]int64, error) {
	from, count, err := ParseSeedBounds(s)
	if err != nil {
		return nil, err
	}
	return Seeds(from, from+int64(count-1)), nil
}

// seedCount is the length of from:to, exact for any int64 pair, and whether
// it is within maxSeeds.
func seedCount(from, to int64) (uint64, bool) {
	if to < from {
		return 0, true
	}
	d := uint64(to) - uint64(from) // to−from < 2^64, so the difference is exact
	return d + 1, d < maxSeeds
}

// Seeds returns [from, from+1, …, to] for seed-sweep axes. It panics on a
// range of more than 2^24 seeds; ParseSeedRange refuses those first.
func Seeds(from, to int64) []int64 {
	n, ok := seedCount(from, to)
	if !ok {
		panic(fmt.Sprintf("matrix.Seeds(%d, %d): more than %d seeds", from, to, maxSeeds))
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = from + int64(i)
	}
	return out
}

// cupGraphs are the BFT-CUP graph families the standard, adversary and chaos
// sweeps run: the paper's Fig. 1b and a planted k-OSR draw.
var cupGraphs = []graph.Def{
	{Kind: graph.DefFigure, Figure: "fig1b"},
	{Kind: graph.DefKOSR, Sink: 5, NonSink: 3, K: 2, ExtraEdgeP: 0.15},
}

// syncAndPartial are the standard and adversary sweeps' network models.
var syncAndPartial = []scenario.NetParams{{Kind: scenario.NetSync}, {Kind: scenario.NetPartial, GST: 2 * sim.Second}}

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
// up-front expansion. An invalid axis value is an error (Axes.Source checks
// one probe cell per value), not a panic.
func StandardSweep(seeds []int64) (CellSource, error) {
	if len(seeds) == 0 {
		seeds = Seeds(1, 10)
	}
	byz := []scenario.AutoByz{{}, {Kind: scenario.ByzSilent, Count: 1, Place: scenario.PlaceTail}}
	var srcs []CellSource
	for _, g := range []struct {
		mode   core.Mode
		graphs []graph.Def
	}{
		{core.ModeKnownF, cupGraphs},
		{core.ModeUnknownF, []graph.Def{
			{Kind: graph.DefFigure, Figure: "fig4a"}, {Kind: graph.DefFigure, Figure: "fig4b"},
			{Kind: graph.DefExtended, Sink: 5, NonSink: 3, ExtraEdgeP: 0.15},
		}},
		{core.ModePermissioned, []graph.Def{{Kind: graph.DefComplete, N: 7}}},
	} {
		axes := Axes{Name: g.mode.String(), Graphs: g.graphs, Modes: []core.Mode{g.mode}, Nets: syncAndPartial, Byz: byz, Seeds: seeds}
		src, err := axes.Source()
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
		Nets:   syncAndPartial,
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
// Every injected cell runs the hardened protocol profile (GETPDS backoff,
// PBFT decide-note replies, the capped view-timer shift); the seed profile's
// collapse under the same injection is pinned separately by the
// scenario-level A/B regression tests.
//
// StandardSweep stays the untouched cross-version fingerprint anchor; this
// sweep has its own fingerprint identity tests (mono ≡ sharded ≡ incremental ≡
// parallel).
func ChaosSweep(seeds []int64) (CellSource, error) {
	if len(seeds) == 0 {
		seeds = Seeds(1, 3)
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
// sweep has its own fingerprint identity tests (mono ≡ sharded ≡ incremental ≡
// parallel).
func ProbabilisticSweep(seeds []int64) (CellSource, error) {
	if len(seeds) == 0 {
		seeds = Seeds(1, 5)
	}
	var defs []graph.Def
	for _, kind := range []graph.DefKind{graph.DefER, graph.DefGeo, graph.DefSF} {
		for _, n := range []int{12, 16, 20} {
			for _, d := range []float64{0.15, 0.3, 0.5} {
				def := graph.Def{Kind: kind, N: n}
				switch kind {
				case graph.DefER:
					def.P = d
				case graph.DefGeo:
					def.R = d
				default:
					def.M = max(1, int(d*8+0.5))
				}
				defs = append(defs, def)
			}
		}
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
