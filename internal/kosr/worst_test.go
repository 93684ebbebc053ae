package kosr

import (
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
		m := PlacementMargin(g, byz)
		if m < best.Margin {
			best = Placement{Byz: byz, Margin: m}
		}
		return false // no early exit: prove the early exit is sound too
	})
	return best
}

// TestWorstPlacementMatchesBruteForce pins the shared-searcher enumeration
// against the fresh-searcher reference on every graph family, for every
// feasible f. Any memo-leak across subsets (the failure mode
// RebindPreserving's contract guards) would surface as a margin or tie-break
// mismatch here.
func TestWorstPlacementMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for name, g := range propertyGraphs(t, rng) {
		// Every per-subset view holds the graph's own out-sets by reference:
		// searching them must leave the graph as it was.
		before := graph.PDMap(g)
		for f := 0; f <= 3 && f <= g.NumNodes(); f++ {
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
	if full := PlacementMargin(g, model.NewIDSet()); p.Margin != full {
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
	tailMargin := PlacementMargin(g, tail)
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

func BenchmarkWorstPlacement(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g, _, err := graph.GenKOSR(rng, graph.GenSpec{SinkSize: 5, NonSinkSize: 4, K: 2, ExtraEdgeP: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := WorstPlacement(g, 3); err != nil {
			b.Fatal(err)
		}
	}
}
