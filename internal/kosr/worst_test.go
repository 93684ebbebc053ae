package kosr

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
)

// bruteWorst is the reference implementation: a fresh View and a fresh
// Searcher per subset, no memo reuse, same grading and tie-break rules.
func bruteWorst(g *graph.Digraph, f int) Placement {
	nodes := g.Nodes()
	best := Placement{Margin: int(^uint(0) >> 1)}
	forEachCombination(len(nodes), f, func(idx []int) bool {
		byz := model.NewIDSet()
		for _, i := range idx {
			byz.Add(nodes[i])
		}
		m, _ := placementMargin(NewSearcher(), g, borrowedView(g), byz)
		if m < best.Margin {
			best = Placement{Byz: byz, Margin: m}
		}
		return false // no early exit: prove the early exit is sound too
	})
	return best
}

// buildDef builds one graph def at one seed.
func buildDef(t testing.TB, def string, seed int64) *graph.Digraph {
	t.Helper()
	d, err := graph.ParseDef(def)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Build(seed)
	if err != nil {
		t.Fatalf("%s seed %d: %v", def, seed, err)
	}
	return b.G
}

// hiddenSinkGraph is the graph that separates the witness filter armed above
// ExactLimit from the filter left off. A complete K20 (p14–p33) is the sink;
// p1 and p2 sit in its component (edges to and from every member) but point
// at eleven leaves besides (p3–p13, no edges out), so no S1 holding either
// passes P3 at a g that P1 allows. The component has 22 members: its searches
// are structural (the peeled pool and the pool less one vertex), and those
// find K20 only when p1 or p2 is the record taken out. So {p1} grades 9 and
// leaves K20 behind; {p3}, a leaf, grades 0 — the search that would have to
// drop both p1 and p2 does not exist — although K20 is disjoint from it.
// Graded, {p3} is the worst placement at f = 1; skipped on K20's word, it
// would lose to {p14}.
func hiddenSinkGraph() *graph.Digraph {
	var sink []model.ID
	for id := model.ID(14); id <= 33; id++ {
		sink = append(sink, id)
	}
	g := graph.CompleteGraph(sink...)
	for _, u := range []model.ID{1, 2} {
		for _, k := range sink {
			g.AddEdge(u, k)
			g.AddEdge(k, u)
		}
		for leaf := model.ID(3); leaf <= 13; leaf++ {
			g.AddEdge(u, leaf)
		}
	}
	return g
}

// TestWorstPlacementMatchesBruteForce pins the shared-searcher, witness-
// filtered enumeration against the fresh-searcher reference that grades every
// subset: on every graph family, graph_check's five defs at seeds 1–5 and
// hiddenSinkGraph (above ExactLimit: the filter must stay off), for every
// f ≤ 3. Any memo-leak across subsets (the failure mode RebindPreserving's
// contract guards) and any subset skipped that should have been graded would
// surface as a margin or tie-break mismatch here.
func TestWorstPlacementMatchesBruteForce(t *testing.T) {
	graphs := propertyGraphs(t, rand.New(rand.NewSource(61)))
	for _, def := range graphCheckDefs {
		for seed := int64(1); seed <= 5; seed++ {
			graphs[fmt.Sprintf("%s seed %d", def, seed)] = buildDef(t, def, seed)
		}
	}
	graphs["hidden-sink"] = hiddenSinkGraph()
	for name, g := range graphs {
		// Every per-subset view holds the graph's own out-sets by reference:
		// searching them must leave the graph as it was.
		before := make(map[model.ID]model.IDSet)
		for _, u := range g.Nodes() {
			before[u] = g.OutSet(u).Clone()
		}
		for f := 0; f <= 3 && f <= g.NumNodes(); f++ {
			if name == "hidden-sink" && f == 2 {
				break // f = 1 separates already; 528 structural searches add seconds only
			}
			got, err := WorstPlacement(g, f)
			if err != nil {
				t.Fatalf("%s f=%d: %v", name, f, err)
			}
			want := bruteWorst(g, f)
			if got.Margin != want.Margin {
				t.Fatalf("%s f=%d: margin %d, reference %d (byz %v vs %v)",
					name, f, got.Margin, want.Margin, got.Byz, want.Byz)
			}
			if !got.Byz.Equal(want.Byz) {
				t.Fatalf("%s f=%d: placement %v, reference %v (margin %d)",
					name, f, got.Byz, want.Byz, got.Margin)
			}
		}
		for u, pd := range before {
			if !g.OutSet(u).Equal(pd) {
				t.Fatalf("%s: the searches changed OutSet(%v): %v, was %v", name, u, g.OutSet(u), pd)
			}
		}
	}
}

// TestWorstPlacementGradedCount pins what the witness filter saves, as counts:
// the subsets actually searched out of C(n, f). A graph whose first subset
// already denies the committee is searched once; on the two graph_check
// families that enumerate, a handful of subsets leave witnesses that clear
// the rest. A count that rises means the filter stopped skipping; one that
// falls needs TestWorstPlacementMatchesBruteForce's word that it is sound.
func TestWorstPlacementGradedCount(t *testing.T) {
	for _, tc := range []struct {
		def           string
		f             int
		graded, total int
	}{
		{"kosr:sink=15,nonsink=9,k=3,extra=0.2", 2, 1, 276},
		{"extended:core=10,noncore=6,extra=0.2", 2, 5, 120},
		{"extended:core=10,noncore=6,extra=0.2", 3, 120, 560},
		{"geo:n=16,r=0.5", 2, 11, 120},
		{"geo:n=16,r=0.5", 1, 3, 16},
	} {
		g := buildDef(t, tc.def, 1)
		_, graded, err := worstPlacement(NewSearcher(), g, tc.f)
		if err != nil {
			t.Fatal(err)
		}
		if total := binomial(g.NumNodes(), tc.f); graded != tc.graded || total != tc.total {
			t.Errorf("%s f=%d: graded %d of %d subsets, want %d of %d", tc.def, tc.f, graded, total, tc.graded, tc.total)
		}
	}
}

// TestWorstPlacementDeterministic reruns the search and requires identical
// results — the property every sweep fingerprint built on byz=worst rests on.
func TestWorstPlacementDeterministic(t *testing.T) {
	g := graph.Fig1b().G
	first, err := WorstPlacement(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := WorstPlacement(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		if again.Margin != first.Margin || !again.Byz.Equal(first.Byz) {
			t.Fatalf("run %d: %v margin %d, first run %v margin %d",
				i, again.Byz, again.Margin, first.Byz, first.Margin)
		}
	}
}

// TestWorstPlacementEdges covers the degenerate and error paths.
func TestWorstPlacementEdges(t *testing.T) {
	g := graph.Fig1b().G
	p, err := WorstPlacement(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Byz.Len() != 0 {
		t.Fatalf("f=0 placement %v, want empty", p.Byz)
	}
	if full, _ := placementMargin(NewSearcher(), g, borrowedView(g), model.NewIDSet()); p.Margin != full {
		t.Fatalf("f=0 margin %d, full-view margin %d", p.Margin, full)
	}
	if _, err := WorstPlacement(g, -1); err == nil {
		t.Fatal("f=-1 accepted")
	}
	if _, err := WorstPlacement(g, g.NumNodes()+1); err == nil {
		t.Fatal("f>n accepted")
	}
	// All processes Byzantine: no PDs at all, no sink, margin -1.
	all, err := WorstPlacement(g, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	if all.Margin != -1 {
		t.Fatalf("all-Byzantine margin %d, want -1", all.Margin)
	}
}

// TestWorstPlacementStrictlyWorseThanTail documents why the axis exists: on
// Fig. 1b the tail heuristic (highest IDs) is not the adversary's best move.
func TestWorstPlacementStrictlyWorseThanTail(t *testing.T) {
	fig := graph.Fig1b()
	g := fig.G
	nodes := g.Nodes()
	f := 2
	tail := model.NewIDSet(nodes[len(nodes)-f:]...)
	tailMargin, _ := placementMargin(NewSearcher(), g, borrowedView(g), tail)
	worst, err := WorstPlacement(g, f)
	if err != nil {
		t.Fatal(err)
	}
	if worst.Margin > tailMargin {
		t.Fatalf("worst margin %d exceeds tail margin %d", worst.Margin, tailMargin)
	}
	t.Logf("fig1b f=%d: tail %v margin %d, worst %v margin %d",
		f, tail, tailMargin, worst.Byz, worst.Margin)
}

// BenchmarkWorstPlacement prices the search on the two graph_check families
// that enumerate (the other three end at their first subset). graded/op is a
// count: the subsets searched, of 120 (f = 2) or 560 (f = 3).
func BenchmarkWorstPlacement(b *testing.B) {
	for _, def := range []string{"extended:core=10,noncore=6,extra=0.2", "geo:n=16,r=0.5"} {
		g := buildDef(b, def, 1)
		for f := 2; f <= 3; f++ {
			f := f
			b.Run(fmt.Sprintf("%s/f=%d", def, f), func(b *testing.B) {
				b.ReportAllocs()
				var graded int
				for i := 0; i < b.N; i++ {
					var err error
					if _, graded, err = worstPlacement(NewSearcher(), g, f); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(graded), "graded/op")
			})
		}
	}
}
