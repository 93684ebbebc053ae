package graph

import "github.com/bftcup/bftcup/internal/model"

// Figure is a reconstructed knowledge connectivity graph from the paper,
// together with the fault assignment and expectations the paper states for
// it. The original figures are drawings; these adjacency lists are rebuilt to
// satisfy every textual constraint the paper asserts about each figure, and
// figures_test.go machine-checks those constraints (see DESIGN.md §3).
type Figure struct {
	// Name is the paper's figure label (e.g. "fig1b").
	Name string
	// G is the reconstructed knowledge connectivity graph.
	G   *Digraph
	F   int         // the (possibly unknown to processes) fault threshold
	Byz model.IDSet // the Byzantine nodes in the paper's narrative
	// ExpectedSink is the sink of the safe subgraph (BFT-CUP committee
	// restricted to correct processes), when meaningful.
	ExpectedSink model.IDSet
	// ExpectedCommittee is the full set returned by the Sink/Core algorithm
	// (correct sink/core members plus the ≤ f Byzantine ones identified via
	// P4), when meaningful.
	ExpectedCommittee model.IDSet
	// Notes records the paper's narrative for the figure.
	Notes string
}

func adj(pairs map[model.ID][]model.ID) *Digraph { return FromAdjacency(pairs) }

// Fig1a: a knowledge connectivity graph that does NOT satisfy the BFT-CUP
// requirements. PD₁ = {2,3,4} (stated in the caption); node 4 is Byzantine
// and is the only knowledge bridge between {1,2,3} and {5,6,7,8}: if it stays
// silent, neither side can ever learn of the other, so consensus is
// unsolvable even though 1 < 8/3 faults.
func Fig1a() Figure {
	g := adj(map[model.ID][]model.ID{
		1: {2, 3, 4},
		2: {1, 3},
		3: {1, 2},
		4: {1, 5},
		5: {4, 6, 7, 8},
		6: {5, 7, 8},
		7: {5, 6, 8},
		8: {5, 6, 7},
	})
	return Figure{
		Name: "fig1a",
		G:    g,
		F:    1,
		Byz:  model.NewIDSet(4),
		Notes: "removing Byzantine node 4 disconnects the undirected safe " +
			"subgraph into {1,2,3} and {5,6,7,8}; BFT-CUP requirements fail",
	}
}

// Fig1b: a knowledge connectivity graph that satisfies the BFT-CUP
// requirements for f = 1 with Byzantine node 4. PD₁ = {2,3,4}. The sink of
// the safe subgraph is the complete triangle {1,2,3}; the Sink algorithm
// returns {1,2,3,4} (Section III's worked example: with process 2 slow and
// Byzantine 4 claiming PD {1,2,3}, S1 = {1,3,4} and S2 = {2}).
func Fig1b() Figure {
	g := adj(map[model.ID][]model.ID{
		1: {2, 3, 4},
		2: {1, 3, 4},
		3: {1, 2, 4},
		4: {1, 2, 3},
		5: {1, 2, 6},
		6: {2, 3, 5},
		7: {1, 3, 8},
		8: {5, 6, 7},
	})
	return Figure{
		Name:              "fig1b",
		G:                 g,
		F:                 1,
		Byz:               model.NewIDSet(4),
		ExpectedSink:      model.NewIDSet(1, 2, 3),
		ExpectedCommittee: model.NewIDSet(1, 2, 3, 4),
		Notes:             "satisfies BFT-CUP requirements with f=1, Byz={4}",
	}
}

// Fig2a: system A of the Theorem 7 impossibility proof — four processes,
// 2-OSR, only process 4 faulty, every correct process proposes v.
// isSink(1, {1,2,3}, {4}) holds.
func Fig2a() Figure {
	g := adj(map[model.ID][]model.ID{
		1: {2, 3, 4},
		2: {1, 3, 4},
		3: {1, 2},
		4: {1, 2},
	})
	return Figure{
		Name:              "fig2a",
		G:                 g,
		F:                 1,
		Byz:               model.NewIDSet(4),
		ExpectedSink:      model.NewIDSet(1, 2, 3),
		ExpectedCommittee: model.NewIDSet(1, 2, 3, 4),
		Notes:             "system A: 2-OSR, process 4 faulty",
	}
}

// Fig2b: system B of the impossibility proof — mirror of system A on
// processes {5,…,8} with process 5 faulty; correct processes propose u.
// isSink(1, {6,7,8}, {5}) holds.
func Fig2b() Figure {
	g := adj(map[model.ID][]model.ID{
		5: {6, 7},
		6: {5, 7, 8},
		7: {5, 6, 8},
		8: {6, 7},
	})
	return Figure{
		Name:              "fig2b",
		G:                 g,
		F:                 1,
		Byz:               model.NewIDSet(5),
		ExpectedSink:      model.NewIDSet(6, 7, 8),
		ExpectedCommittee: model.NewIDSet(5, 6, 7, 8),
		Notes:             "system B: 2-OSR, process 5 faulty",
	}
}

// Fig2c: system AB — the union of A and B plus the links 4→5 and 5→4, all
// eight processes correct (f = 0), 1-OSR. With the cross links slow until
// after both sides decide, {1,2,3} cannot distinguish AB from A (4 silent)
// and {6,7,8} cannot distinguish AB from B, so any protocol without the fault
// threshold decides v on one side and u on the other: Agreement violated.
func Fig2c() Figure {
	g := adj(map[model.ID][]model.ID{
		1: {2, 3, 4},
		2: {1, 3, 4},
		3: {1, 2},
		4: {1, 2, 5},
		5: {6, 7, 4},
		6: {5, 7, 8},
		7: {5, 6, 8},
		8: {6, 7},
	})
	return Figure{
		Name:  "fig2c",
		G:     g,
		F:     0,
		Byz:   model.NewIDSet(),
		Notes: "system AB: 1-OSR, all correct; not extended k-OSR (two k=2 sinks)",
	}
}

// Fig3a: a 2-OSR graph (f = 1, only process 1 faulty) in which the non-sink
// members {1,2,3,4,6} can falsely declare themselves a sink:
// isSink(2, {1,2,3,4,6}, {5,7}) = true. The true sink of the safe subgraph is
// {5,7,8}.
func Fig3a() Figure {
	g := adj(map[model.ID][]model.ID{
		1: {2, 3, 4, 6, 5, 7},
		2: {1, 3, 4, 6, 5, 7},
		3: {1, 2, 4, 6, 5, 7},
		4: {1, 2, 3, 6, 5, 7},
		6: {1, 2, 3, 4, 5, 7},
		5: {7, 8},
		7: {5, 8},
		8: {5, 7},
	})
	return Figure{
		Name:              "fig3a",
		G:                 g,
		F:                 1,
		Byz:               model.NewIDSet(1),
		ExpectedSink:      model.NewIDSet(5, 7, 8),
		ExpectedCommittee: model.NewIDSet(5, 7, 8),
		Notes: "non-sink members {1,2,3,4,6} satisfy isSink(2,·,{5,7}); " +
			"valid BFT-CUP graph but NOT extended k-OSR",
	}
}

// Fig3b: system B of the Fig. 3 indistinguishability narrative — a 3-OSR
// graph (f = 2) where processes 5 and 7 are faulty and the sink is the
// complete digraph on {1,2,3,4,6}. Processes in {2,3,4,6} see the same
// execution as in Fig3a when 1 behaves correctly and 5, 7 are slow.
func Fig3b() Figure {
	g := adj(map[model.ID][]model.ID{
		1: {2, 3, 4, 6, 5, 7},
		2: {1, 3, 4, 6, 5, 7},
		3: {1, 2, 4, 6, 5, 7},
		4: {1, 2, 3, 6, 5, 7},
		6: {1, 2, 3, 4, 5, 7},
		5: {7, 8},
		7: {5, 8},
		8: {1, 2, 4, 5, 7},
	})
	return Figure{
		Name:              "fig3b",
		G:                 g,
		F:                 2,
		Byz:               model.NewIDSet(5, 7),
		ExpectedSink:      model.NewIDSet(1, 2, 3, 4, 6),
		ExpectedCommittee: model.NewIDSet(1, 2, 3, 4, 5, 6, 7),
		Notes:             "system B: 3-OSR, processes 5 and 7 faulty",
	}
}

// Fig4a: an extended k-OSR graph in which the sink component of the full
// graph differs from the core. The core is {1,2,3,4} (found as S1 = {1,2,3},
// S2 = {4}, connectivity 2). The links 6→3 and 7→2 are the caption's "added
// links" that stop {5,6,7,8} from declaring themselves a sink: without them,
// isSink(1, {6,7,8}, {5}) would hold with the same connectivity as the core.
func Fig4a() Figure {
	g := adj(map[model.ID][]model.ID{
		1: {2, 3, 4},
		2: {1, 3, 4},
		3: {1, 2},
		4: {5},
		5: {1, 2, 6},
		6: {3, 5, 7, 8}, // 6→3 is an "added link"
		7: {2, 5, 6, 8}, // 7→2 is an "added link"
		8: {5, 6, 7},
	})
	return Figure{
		Name:              "fig4a",
		G:                 g,
		F:                 1,
		Byz:               model.NewIDSet(4),
		ExpectedSink:      model.NewIDSet(1, 2, 3),
		ExpectedCommittee: model.NewIDSet(1, 2, 3, 4),
		Notes:             "extended k-OSR; core {1,2,3,4} ⊂ sink SCC of the full graph",
	}
}

// Fig4aWithoutAddedLinks returns the Fig4a graph with the caption's added
// links 6→3 and 7→2 removed; the result is NOT extended k-OSR because
// {5,6,7,8} becomes a second sink with the same connectivity as the core.
func Fig4aWithoutAddedLinks() Figure {
	g := adj(map[model.ID][]model.ID{
		1: {2, 3, 4},
		2: {1, 3, 4},
		3: {1, 2},
		4: {5},
		5: {1, 2, 6},
		6: {5, 7, 8},
		7: {5, 6, 8},
		8: {5, 6, 7},
	})
	return Figure{
		Name:  "fig4a-without-added-links",
		G:     g,
		F:     1,
		Byz:   model.NewIDSet(4),
		Notes: "Fig4a minus the added links; two sinks of equal connectivity",
	}
}

// Fig4b: an extended k-OSR graph in which the sink component equals the core.
// The core is the complete digraph on {8,…,15} (f_G = 3, connectivity 4); the
// region {1,…,7} is a complete digraph whose members each know four core
// members (round-robin), which blocks every region subset from forming a sink
// at any g. f = 2 with Byzantine {4, 9}.
func Fig4b() Figure {
	g := New()
	// Region {1..7}: complete digraph.
	for u := model.ID(1); u <= 7; u++ {
		for v := model.ID(1); v <= 7; v++ {
			if u != v {
				g.AddEdge(u, v)
			}
		}
	}
	// Core {8..15}: complete digraph.
	for u := model.ID(8); u <= 15; u++ {
		for v := model.ID(8); v <= 15; v++ {
			if u != v {
				g.AddEdge(u, v)
			}
		}
	}
	// Each region node knows four core members, round-robin.
	for r := model.ID(1); r <= 7; r++ {
		for i := model.ID(0); i < 4; i++ {
			g.AddEdge(r, 8+((r-1+i)%8))
		}
	}
	core := model.NewIDSet()
	for u := model.ID(8); u <= 15; u++ {
		core.Add(u)
	}
	return Figure{
		Name:              "fig4b",
		G:                 g,
		F:                 2,
		Byz:               model.NewIDSet(4, 9),
		ExpectedSink:      core.Diff(model.NewIDSet(9)),
		ExpectedCommittee: core,
		Notes:             "extended k-OSR; sink = core = {8..15}",
	}
}

// CompleteGraph returns the complete digraph on ids — the permissioned
// (known n, known f) baseline topology of Table I.
func CompleteGraph(ids ...model.ID) *Digraph {
	g := New()
	for _, u := range ids {
		for _, v := range ids {
			if u != v {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// figureTable is the one figure registry, sorted by name. Def's lookups,
// FigureNames and AllFigures all read it, so a lookup builds only the figure
// it names, and FigureNames lists exactly the figures AllFigures builds.
var figureTable = model.Names[func() Figure]{
	{"fig1a", Fig1a}, {"fig1b", Fig1b}, {"fig2a", Fig2a}, {"fig2b", Fig2b},
	{"fig2c", Fig2c}, {"fig3a", Fig3a}, {"fig3b", Fig3b}, {"fig4a", Fig4a},
	{"fig4a-without-added-links", Fig4aWithoutAddedLinks}, {"fig4b", Fig4b},
}

// FigureNames returns the names ParseDef accepts as figures, sorted.
func FigureNames() []string {
	names := make([]string, len(figureTable))
	for i, f := range figureTable {
		names[i] = f.Name
	}
	return names
}

// AllFigures builds every reconstructed paper figure, in FigureNames order.
func AllFigures() []Figure {
	figs := make([]Figure, len(figureTable))
	for i, f := range figureTable {
		figs[i] = f.Value()
	}
	return figs
}
