package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
)

// propertyDefs spans every graph family the Def grammar can build — figures,
// complete graphs, the planted k-OSR / extended families, and the three
// probabilistic families — so the bitset engine is cross-validated against
// the map/slice reference on structured and unstructured topologies alike.
func propertyDefs(t *testing.T) []Def {
	t.Helper()
	var defs []Def
	for _, name := range FigureNames() {
		defs = append(defs, Def{Kind: DefFigure, Figure: name})
	}
	for _, s := range []string{
		"complete:4", "complete:9",
		"kosr:sink=5,nonsink=3,k=2,extra=0.15",
		"kosr:sink=7,nonsink=4,k=3,extra=0.3",
		"extended:core=5,noncore=3,extra=0.2",
		"er:n=12,p=0.15", "er:n=12,p=0.4", "er:n=20,p=0.3",
		"geo:n=12,r=0.3", "geo:n=16,r=0.5",
		"sf:n=12,m=1", "sf:n=16,m=3",
	} {
		d, err := ParseDef(s)
		if err != nil {
			t.Fatalf("ParseDef(%q): %v", s, err)
		}
		defs = append(defs, d)
	}
	return defs
}

// TestFlowScratchLoadedOnceMatchesLoadPerCall asserts that one FlowScratch
// loaded once and probed for many pairs returns exactly what the load-per-call
// Digraph one-shot returns on every ordered pair, across families and seeds,
// for both bounded and unbounded limits — a probe leaves nothing behind in the
// residual template that the next probe could see.
func TestFlowScratchLoadedOnceMatchesLoadPerCall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var loaded FlowScratch
	if got := loaded.MaxNodeDisjointPaths(1, 2, 0); got != 0 {
		t.Fatalf("probe before the first Load = %d, want 0", got)
	}
	for _, d := range propertyDefs(t) {
		for seed := int64(1); seed <= 2; seed++ {
			b, err := d.Build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", d, seed, err)
			}
			nodes := b.G.Nodes()
			loaded.Load(b.G)
			pairs := 0
			for _, s := range nodes {
				for _, u := range nodes {
					if s == u {
						continue
					}
					// Sample pairs on large graphs; exhaustive on small ones.
					if len(nodes) > 12 && rng.Intn(4) != 0 {
						continue
					}
					limit := rng.Intn(len(nodes) + 2) // 0 = unbounded
					want := b.G.MaxNodeDisjointPaths(s, u, limit)
					got := loaded.MaxNodeDisjointPaths(s, u, limit)
					if got != want {
						t.Fatalf("%s seed %d: MaxNodeDisjointPaths(%d,%d,limit=%d) loaded once %d != load per call %d",
							d, seed, s, u, limit, got, want)
					}
					pairs++
				}
			}
			if pairs == 0 && len(nodes) > 1 {
				t.Fatalf("%s seed %d: no pairs probed", d, seed)
			}
			if got := loaded.MaxNodeDisjointPaths(nodes[0], model.ID(1<<40), 0); got != 0 {
				t.Fatalf("%s seed %d: probe to a node outside the snapshot = %d, want 0", d, seed, got)
			}
			if !d.UsesSeed() {
				break
			}
		}
	}
}

// TestBitAdjacencyIndexRoundTrip pins the index contract: IDs are sorted,
// Index inverts IDs, Row mirrors Digraph.HasEdge bit for bit.
func TestBitAdjacencyIndexRoundTrip(t *testing.T) {
	d, err := ParseDef("er:n=70,p=0.1") // > 64 nodes: multi-word rows
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Build(5)
	if err != nil {
		t.Fatal(err)
	}
	var ba BitAdjacency
	ba.Load(b.G)
	ids := ba.IDs()
	for i, id := range ids {
		if j, ok := ba.Index(id); !ok || j != i {
			t.Fatalf("Index(%d) = %d,%v want %d,true", id, j, ok, i)
		}
	}
	if _, ok := ba.Index(model.ID(9999)); ok {
		t.Fatal("Index accepted an ID not in the graph")
	}
	for i, u := range ids {
		for j, v := range ids {
			if got, want := ba.Row(i)[j>>6]&(1<<(j&63)) != 0, b.G.HasEdge(u, v); got != want {
				t.Fatalf("Row(%d) bit %d (%d→%d) %v != digraph %v", i, j, u, v, got, want)
			}
		}
	}
	if testing.Verbose() {
		fmt.Printf("bitadj round trip over %d nodes ok\n", len(ids))
	}
}
