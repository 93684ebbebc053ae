// Package matrix is the scenario-matrix engine: it sweeps experiment axes
// (graph family × protocol mode × network model × Byzantine placement ×
// fault threshold × seed) as a lazy cross-product of scenario parameters —
// a CellSource computes cell i of n on demand — and executes the cells on a
// worker pool, one deterministic simulation engine per cell, parallelism
// bounded by GOMAXPROCS. Every cell is graded against the four consensus
// properties (Agreement, Validity, Integrity, Termination) and folded
// through an incremental Aggregator into a Report with per-axis statistics,
// a deterministic fingerprint (serial, parallel, sharded-merged and resumed
// execution provably agree) and JSON / text renderings. Shards stream
// per-cell JSONL (RunStream), merge back into the monolithic report
// (Merge), and resume after interruption (ResumeStreamFile); one writer
// (streamWriter) encodes every stream record and one reader (recordReader)
// decodes them. Every stage is streaming, so per-shard memory is
// O(axes + parallelism) regardless of cell count.
//
// The paper's tables and figures are fixed points of this engine (see
// FromExperiments); sweeps beyond the paper — more seeds, bigger random
// graphs, adversarial placements — are new axis values, not new code.
package matrix

import (
	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

// Axes describes one parameter sweep. Empty axes default to a single
// neutral value, so callers only set the dimensions they sweep.
type Axes struct {
	// Name labels the resulting report.
	Name string
	// Graphs are the knowledge-connectivity-graph families to sweep.
	Graphs []graph.Def
	// Modes are the committee-identification protocols.
	Modes []core.Mode
	// Nets are the network models. Async cells automatically stretch the
	// discovery/poll periods (the non-terminating runs would otherwise
	// generate unbounded gossip volume).
	Nets []scenario.NetParams
	// Byz are the automatic Byzantine placements (default: none).
	Byz []scenario.AutoByz
	// F are the fault thresholds handed to processes; -1 means the graph
	// family's natural threshold (default: [-1]).
	F []int
	// Faults are the chaos fault-injection points (default: one zero value,
	// i.e. no injection — the axis then contributes nothing to cell IDs or
	// fingerprints).
	Faults []scenario.FaultParams
	// Seeds are the simulation seeds; each seed also drives random graph
	// generation for generator-family cells (default: [1]).
	Seeds []int64
	// Horizon bounds every run (default 60 virtual seconds).
	Horizon sim.Time
}

// Cell is one expanded point of the sweep.
type Cell struct {
	// Index is the cell's position in expansion order; aggregation is
	// performed in this order regardless of execution order, which is what
	// makes parallel, serial and sharded runs produce identical reports.
	Index int
	// Params is the fully data-driven scenario this cell runs.
	Params scenario.Params
	// Expect carries the paper's prediction when the cell comes from the
	// reproduction suite; nil for free sweeps.
	Expect *scenario.Expect
}

// ID returns the stable cell identifier.
func (c Cell) ID() string { return c.Params.ID() }

func orDefault[T any](vals []T, def T) []T {
	if len(vals) == 0 {
		return []T{def}
	}
	return vals
}

// FromExperiments wraps the reproduction suite's experiments as matrix
// cells, carrying the paper's predictions into the report.
func FromExperiments(exps []scenario.Experiment) CellList {
	cells := make(CellList, 0, len(exps))
	for _, exp := range exps {
		exp := exp
		p := exp.Params
		p.Name = exp.ID
		cells = append(cells, Cell{Index: len(cells), Params: p, Expect: &exp.Expect})
	}
	return cells
}
