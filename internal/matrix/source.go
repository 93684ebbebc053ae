package matrix

import (
	"fmt"
	"sort"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

// CellSource is a lazy, indexable view of a sweep: position i of Len() can be
// materialized on demand, in any order, from any goroutine. Sources replace
// the materialize-everything []Cell fan-out — a 10^6-cell sweep is a Len()
// and some cross-product arithmetic, not a gigabyte of Params — and every
// consumer (the worker pool, shards, streams, the fabric) is built on them.
//
// Index(i) returns the global cell index at position i without materializing
// the cell; for whole-sweep sources it is the identity, for a shard it is the
// round-robin global index. The invariant Cell(i).Index == Index(i) holds for
// every source.
type CellSource interface {
	// Len is the number of cells this source yields.
	Len() int
	// Index is the global cell index of position i (0 ≤ i < Len).
	Index(i int) int
	// Cell materializes position i. It must be cheap, deterministic and safe
	// for concurrent use; scenario-level errors surface when the cell runs,
	// not here.
	Cell(i int) Cell
}

// CellList adapts an in-memory cell slice to CellSource. It is the bridge
// for callers that genuinely hold explicit cells (the paper suite, cupsim's
// per-seed sweeps, tests).
type CellList []Cell

// Len implements CellSource.
func (l CellList) Len() int { return len(l) }

// Index implements CellSource.
func (l CellList) Index(i int) int { return l[i].Index }

// Cell implements CellSource.
func (l CellList) Cell(i int) Cell { return l[i] }

// Materialize expands a source into a cell slice (tests and small sweeps;
// the pipeline itself never does this).
func Materialize(src CellSource) []Cell {
	cells := make([]Cell, src.Len())
	for i := range cells {
		cells[i] = src.Cell(i)
	}
	return cells
}

// paramsMap is a whole sweep computed cell by cell: position i is global cell
// i, and params(i) is its scenario. The axes cross-product, a seed sweep and
// a concatenation are each one. With indexMap it is one of the
// two wrappers every sweep and every slice of one is built from.
type paramsMap struct {
	n      int
	params func(i int) scenario.Params
}

// Len implements CellSource.
func (m paramsMap) Len() int { return m.n }

// Index implements CellSource.
func (m paramsMap) Index(i int) int { return i }

// Cell implements CellSource.
func (m paramsMap) Cell(i int) Cell { return Cell{Index: i, Params: m.params(i)} }

// indexMap is a slice of a base source: position i is base position at(i),
// global index kept. A shard is one.
type indexMap struct {
	base CellSource
	n    int
	at   func(i int) int
}

// Len implements CellSource.
func (m indexMap) Len() int { return m.n }

// Index implements CellSource.
func (m indexMap) Index(i int) int { return m.base.Index(m.at(i)) }

// Cell implements CellSource.
func (m indexMap) Cell(i int) Cell { return m.base.Cell(m.at(i)) }

// crossProduct holds one sweep's axis values, defaults filled in; cell i of the
// cross-product is computed by mixed-radix arithmetic — graphs outermost,
// seeds innermost, the nested-loop order every sweep fingerprint was taken in.
type crossProduct struct {
	graphs  []graph.Def
	modes   []core.Mode
	nets    []scenario.NetParams
	byz     []scenario.AutoByz
	fs      []int
	faults  []scenario.FaultParams
	seeds   []int64
	horizon sim.Time
}

// Source builds the lazy cross-product source for the axes. Malformed graph
// defs fail here, once per def — seed-dependent generation errors (a spec
// the generator cannot satisfy for some seed) surface as per-cell Err
// outcomes at run time instead.
func (a Axes) Source() (CellSource, error) {
	if len(a.Graphs) == 0 {
		return nil, fmt.Errorf("matrix %q: no graph axis", a.Name)
	}
	horizon := a.Horizon
	if horizon <= 0 {
		horizon = 60 * sim.Second
	}
	s := &crossProduct{
		graphs:  a.Graphs,
		modes:   orDefault(a.Modes, core.ModeUnknownF),
		nets:    orDefault(a.Nets, scenario.NetParams{Kind: scenario.NetSync}),
		byz:     orDefault(a.Byz, scenario.AutoByz{}),
		fs:      orDefault(a.F, -1),
		faults:  orDefault(a.Faults, scenario.FaultParams{}),
		seeds:   orDefault(a.Seeds, 1),
		horizon: horizon,
	}
	lens := s.lens()
	n := len(s.seeds)
	for _, l := range lens {
		n *= l
	}
	// Probe one cell per value of every axis (the other axes pinned to
	// their first value): O(Σ axis lengths) validations, not O(cells), and
	// every malformed axis value fails here instead of surfacing as a
	// stream of per-cell Err outcomes.
	for k, name := range axisNames {
		// Every axis's first value is in the graph axis's first probe.
		for i := min(k, 1); i < lens[k]; i++ {
			var pos [len(axisNames)]int
			pos[k] = i
			if err := s.params(pos, s.seeds[0]).Validate(); err != nil {
				return nil, fmt.Errorf("matrix %q %s axis value %d: %w", a.Name, name, i, err)
			}
		}
	}
	return paramsMap{n: n, params: s.at}, nil
}

// axisNames names the cross-product's axes other than the seed, outermost
// first; a cell's position on them indexes crossProduct.params.
var axisNames = [...]string{"graph", "mode", "net", "byz", "f", "faults"}

// lens is the number of values on each axis, in axisNames order.
func (s *crossProduct) lens() [len(axisNames)]int {
	return [...]int{len(s.graphs), len(s.modes), len(s.nets), len(s.byz), len(s.fs), len(s.faults)}
}

// at computes cell i's parameters: seeds innermost, then the axes from the
// last to the first. Faults sit between seed and f in the mixed radix; with
// the default single zero value the division is by one and every pre-fault
// sweep keeps its historical index↦cell mapping (and thus its fingerprint).
func (s *crossProduct) at(i int) scenario.Params {
	seed := s.seeds[i%len(s.seeds)]
	rem := i / len(s.seeds)
	lens := s.lens()
	var pos [len(axisNames)]int
	for k := len(pos) - 1; k >= 0; k-- {
		pos[k] = rem % lens[k]
		rem /= lens[k]
	}
	return s.params(pos, seed)
}

// params builds the scenario at one position on every axis; shared by at and
// the Source-time validation probe so they cannot diverge. Name is left
// empty — the scenario layer derives the per-seed cell ID on demand (a
// stamped seed-specific name would defeat the compile cache's key sharing
// and freeze the first seed's name into cached runs).
func (s *crossProduct) params(pos [len(axisNames)]int, seed int64) scenario.Params {
	return scenario.Params{
		Graph:   s.graphs[pos[0]],
		Mode:    s.modes[pos[1]],
		Net:     s.nets[pos[2]],
		Auto:    s.byz[pos[3]],
		F:       s.fs[pos[4]],
		Faults:  s.faults[pos[5]],
		Horizon: s.horizon,
		Seed:    seed,
	}
}

// SeedSweep is a lazy source running one scenario once per seed of
// from, from+1, …, from+count-1 — cupsim's sweep mode. Unlike an Axes source
// it preserves every field of the base params verbatim (explicit Byzantine
// assignments, custom values), varying only the seed, which it computes
// per cell: the source holds no seed list, whatever the count.
func SeedSweep(base scenario.Params, from int64, count int) (CellSource, error) {
	if n, ok := seedCount(from, from+int64(count)-1); count < 0 || !ok || n != uint64(count) {
		return nil, fmt.Errorf("seed sweep of %d seeds from %d (want 0 to %d seeds, none past the largest int64)", count, from, maxSeeds)
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	return paramsMap{n: count, params: func(i int) scenario.Params {
		p := base
		p.Seed = from + int64(i)
		return p
	}}, nil
}

// concat chains whole sweeps into one, renumbering their cells 0..n-1 in
// concatenation order.
func concat(srcs ...CellSource) CellSource {
	off := make([]int, len(srcs)) // off[j] is the global index of srcs[j]'s first cell
	n := 0
	for j, s := range srcs {
		off[j] = n
		n += s.Len()
	}
	return paramsMap{n: n, params: func(i int) scenario.Params {
		j := sort.Search(len(off), func(j int) bool { return off[j] > i }) - 1
		return srcs[j].Cell(i - off[j]).Params
	}}
}
