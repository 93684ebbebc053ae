package kosr

import (
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
)

// View is a process's current knowledge: the processes it knows exist
// (S_known) and the participant detectors it has received and verified
// (S_PD, whose key set is S_received).
//
// Views grown through the mutator API (SetPD, AddKnown) carry a revision
// counter, which is what lets a Searcher reuse work across searches: a
// search at an unchanged revision is a pure cache read, and a search after
// an insertion only recomputes what the insertion can change. A Searcher
// that sees one view more than once requires it to be mutator-maintained
// (discovery maintains its view exclusively through them); the literal
// predicates below (OutTargets, DeriveS2, IsSink) read the maps as they are.
type View struct {
	// Known is S_known: every process this process has heard of.
	Known model.IDSet
	// PD maps a process to its (signed, verified) participant detector.
	// The key set is S_received.
	PD map[model.ID]model.IDSet

	// rev counts mutator-API mutations; gen counts content replacements (an
	// existing PD overwritten with a different set), which invalidate every
	// content-keyed memo rather than just the current decomposition.
	rev uint64
	gen uint64
}

// NewView returns an empty view.
func NewView() *View {
	return &View{Known: model.NewIDSet(), PD: make(map[model.ID]model.IDSet)}
}

// Rev returns the view's revision: a monotone counter bumped by every
// mutator-API change. Equal revisions of one View mean identical knowledge.
func (v *View) Rev() uint64 { return v.rev }

// Gen returns the view's content generation, bumped only when an existing PD
// record is replaced by a different set. Discovery never replaces a record
// (the first verified record per owner wins), so in protocol use the
// generation stays 0; the Searcher checks it anyway and drops every
// content-keyed memo when it moves.
func (v *View) Gen() uint64 { return v.gen }

// SetPD records owner's participant detector (S_PD gains the record, so
// S_received gains owner) and bumps the revision. The set is cloned; callers
// keep ownership of pd. Overwriting an existing record with a different set
// additionally bumps the generation.
func (v *View) SetPD(owner model.ID, pd model.IDSet) {
	if old, ok := v.PD[owner]; ok {
		if old.Equal(pd) {
			return
		}
		v.gen++
	}
	v.PD[owner] = pd.Clone()
	v.rev++
}

// AddKnown inserts id into S_known, bumping the revision and reporting true
// when it was absent.
func (v *View) AddKnown(id model.ID) bool {
	if !v.Known.Add(id) {
		return false
	}
	v.rev++
	return true
}

// FullView builds the omniscient view of a knowledge connectivity graph:
// every process received, every PD known. Used by the graph-theoretic
// checkers and tests.
func FullView(g *graph.Digraph) *View {
	v := NewView()
	for _, u := range g.Nodes() {
		v.AddKnown(u)
		v.SetPD(u, g.OutSet(u))
		for w := range g.OutSet(u) {
			v.AddKnown(w)
		}
	}
	return v
}

// borrowedView is FullView without the copies, for the checkers' read-only
// searches: every PD is the graph's own out-set, by reference (an edge's
// target is a node, so Known is the node set). The graph must not change
// while the view is in use, and the view's sets are not the caller's to write.
func borrowedView(g *graph.Digraph) *View {
	nodes := g.Nodes()
	v := &View{Known: model.NewIDSet(nodes...), PD: make(map[model.ID]model.IDSet, len(nodes))}
	for _, u := range nodes {
		v.PD[u] = g.OutSet(u)
	}
	return v
}

// Received returns S_received (processes whose PDs are present).
func (v *View) Received() model.IDSet {
	r := model.NewIDSet()
	for id := range v.PD {
		r.Add(id)
	}
	return r
}

// ReceivedGraph returns the digraph on the received processes, with edges
// given by their PDs restricted to received targets. S1 candidates always
// live inside a single SCC of this graph.
func (v *View) ReceivedGraph() *graph.Digraph {
	g := graph.New()
	for id := range v.PD {
		g.AddNode(id)
	}
	for id, pd := range v.PD {
		for tgt := range pd {
			if _, ok := v.PD[tgt]; ok {
				g.AddEdge(id, tgt)
			}
		}
	}
	return g
}

// OutTargets returns the set of processes outside s1 that members of s1
// point at (the target-counted quantity of P3).
func (v *View) OutTargets(s1 model.IDSet) model.IDSet {
	t := model.NewIDSet()
	for id := range s1 {
		for tgt := range v.PD[id] {
			if tgt != id && !s1.Has(tgt) {
				t.Add(tgt)
			}
		}
	}
	return t
}

// SourceCount returns |{i ∈ s1 : j ∈ PDᵢ}| (the source-counted quantity of
// P4).
func (v *View) SourceCount(s1 model.IDSet, j model.ID) int {
	n := 0
	for id := range s1 {
		if v.PD[id].Has(j) {
			n++
		}
	}
	return n
}

// DeriveS2 returns {j ∈ Known∖s1 : SourceCount(s1, j) > g} — the unique S2
// compatible with P4 for the given S1 and g.
func (v *View) DeriveS2(s1 model.IDSet, g int) model.IDSet {
	s2 := model.NewIDSet()
	for j := range v.OutTargets(s1) {
		if v.Known.Has(j) && v.SourceCount(s1, j) > g {
			s2.Add(j)
		}
	}
	return s2
}

// kappaAtLeast reports whether κ of the subgraph induced by s1 (using the
// received PDs) is at least k. Singletons have infinite connectivity by
// convention.
func (v *View) kappaAtLeast(s1 model.IDSet, k int) bool {
	if s1.Len() <= 1 {
		return true
	}
	return v.ReceivedGraph().Induced(s1).IsKStronglyConnected(k)
}

// IsSink implements isSinkGdi(g, S1, S2) — the predicate of Theorem 3:
//
//	P1: |S1| ≥ 2g+1;
//	P2: κ(G[S1]) ≥ g+1 (PDs of all S1 members must have been received);
//	P3: at most g distinct processes outside S1 are pointed at by S1;
//	P4: S2 = {j ∈ Known∖S1 : more than g members of S1 point at j}.
//
// This is the predicate read literally, with no memo and no pruning. The
// Searcher never calls it: it is the one building block of the tests'
// all-subsets oracle, which stays independent of the engine that way.
func (v *View) IsSink(g int, s1, s2 model.IDSet) bool {
	if g < 0 || s1.Len() < 2*g+1 {
		return false
	}
	// All of S1 must be received (P2 is uncomputable otherwise).
	for id := range s1 {
		if _, ok := v.PD[id]; !ok {
			return false
		}
	}
	if t := v.OutTargets(s1); t.Len() > g {
		return false
	}
	if !v.DeriveS2(s1, g).Equal(s2) {
		return false
	}
	return v.kappaAtLeast(s1, g+1)
}
