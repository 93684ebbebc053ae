package graph

import (
	"math/rand"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
)

func edgeList(pairs ...[2]model.ID) *Digraph {
	g := New()
	for _, p := range pairs {
		g.AddEdge(p[0], p[1])
	}
	return g
}

func TestDigraphBasics(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddNode(9)
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Fatal("edge direction wrong")
	}
	if got := g.Out(1); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Out(1) = %v", got)
	}
	if got := g.In(3); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("In(3) = %v", got)
	}
	if g.OutDegree(9) != 0 {
		t.Fatal("isolated node has out-degree != 0")
	}
}

func TestSelfLoopsIgnored(t *testing.T) {
	g := New()
	g.AddEdge(1, 1)
	if g.NumEdges() != 0 {
		t.Fatal("self-loop should be ignored")
	}
	if g.NumNodes() != 1 {
		t.Fatal("self-loop should still add the node")
	}
}

func TestInducedAndWithout(t *testing.T) {
	g := edgeList([2]model.ID{1, 2}, [2]model.ID{2, 3}, [2]model.ID{3, 1}, [2]model.ID{3, 4})
	sub := g.Induced(model.NewIDSet(1, 2, 3))
	if sub.NumNodes() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced: nodes=%d edges=%d", sub.NumNodes(), sub.NumEdges())
	}
	if sub.HasNode(4) {
		t.Fatal("induced subgraph leaked node 4")
	}
	w := g.Without(model.NewIDSet(3))
	if w.HasNode(3) || w.HasEdge(2, 3) || w.HasEdge(3, 1) {
		t.Fatal("Without did not remove node 3")
	}
	// Original untouched.
	if !g.HasNode(3) || !g.HasEdge(3, 4) {
		t.Fatal("Without mutated the receiver")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := edgeList([2]model.ID{1, 2})
	c := g.Clone()
	c.AddEdge(2, 1)
	if g.HasEdge(2, 1) {
		t.Fatal("Clone shares adjacency")
	}
}

func TestUndirectedConnected(t *testing.T) {
	g := edgeList([2]model.ID{1, 2}, [2]model.ID{3, 2})
	if !g.UndirectedConnected() {
		t.Fatal("1→2←3 should be undirected-connected")
	}
	g.AddNode(7)
	if g.UndirectedConnected() {
		t.Fatal("isolated node 7 should disconnect")
	}
	if !New().UndirectedConnected() {
		t.Fatal("empty graph is connected by convention")
	}
}

// reachable returns the set of nodes reachable from u (including u): the
// definitional oracle bruteSCC pairs nodes with.
func reachable(g *Digraph, u model.ID) model.IDSet {
	seen := model.NewIDSet(u)
	stack := []model.ID{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := range g.adj[x] {
			if seen.Add(v) {
				stack = append(stack, v)
			}
		}
	}
	return seen
}

func TestReachable(t *testing.T) {
	g := edgeList([2]model.ID{1, 2}, [2]model.ID{2, 3}, [2]model.ID{4, 1})
	r := reachable(g, 1)
	if !r.Equal(model.NewIDSet(1, 2, 3)) {
		t.Fatalf("reachable(1) = %v", r)
	}
}

// bruteSCC pairs nodes by mutual reachability.
func bruteSCC(g *Digraph) map[model.ID]string {
	reach := make(map[model.ID]model.IDSet)
	for _, u := range g.Nodes() {
		reach[u] = reachable(g, u)
	}
	label := make(map[model.ID]string)
	for _, u := range g.Nodes() {
		comp := model.NewIDSet()
		for _, v := range g.Nodes() {
			if reach[u].Has(v) && reach[v].Has(u) {
				comp.Add(v)
			}
		}
		label[u] = comp.Key()
	}
	return label
}

func TestSCCKnownCases(t *testing.T) {
	// Two 3-cycles joined by one edge.
	g := edgeList(
		[2]model.ID{1, 2}, [2]model.ID{2, 3}, [2]model.ID{3, 1},
		[2]model.ID{4, 5}, [2]model.ID{5, 6}, [2]model.ID{6, 4},
		[2]model.ID{3, 4},
	)
	comps := g.SCCs()
	if len(comps) != 2 {
		t.Fatalf("got %d SCCs, want 2", len(comps))
	}
	sink, ok := g.UniqueSink()
	if !ok || !sink.Equal(model.NewIDSet(4, 5, 6)) {
		t.Fatalf("UniqueSink = %v, %v", sink, ok)
	}
}

func TestSCCAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		g := New()
		for i := 1; i <= n; i++ {
			g.AddNode(model.ID(i))
		}
		for u := 1; u <= n; u++ {
			for v := 1; v <= n; v++ {
				if u != v && rng.Float64() < 0.3 {
					g.AddEdge(model.ID(u), model.ID(v))
				}
			}
		}
		want := bruteSCC(g)
		got := make(map[model.ID]string)
		for _, comp := range g.SCCs() {
			k := comp.Key()
			for id := range comp {
				got[id] = k
			}
		}
		for _, u := range g.Nodes() {
			if got[u] != want[u] {
				t.Fatalf("trial %d: SCC of %v = %q, want %q\ngraph:\n%s", trial, u, got[u], want[u], g)
			}
		}
	}
}

func TestCondensationSinks(t *testing.T) {
	// 1→2, 2→3: three singleton SCCs, one sink {3}.
	g := edgeList([2]model.ID{1, 2}, [2]model.ID{2, 3})
	sinks := g.Condense().SinkComponents()
	if len(sinks) != 1 || !sinks[0].Equal(model.NewIDSet(3)) {
		t.Fatalf("sinks = %v", sinks)
	}
	// Add a disconnected node: two sinks.
	g.AddNode(9)
	if _, ok := g.UniqueSink(); ok {
		t.Fatal("UniqueSink should fail with two sinks")
	}
}

func TestDirectedCore(t *testing.T) {
	// Complete digraph on {1,2,3,4} plus a pendant 5→1.
	g := CompleteGraph(1, 2, 3, 4)
	g.AddEdge(5, 1)
	core := g.DirectedCore(3)
	if !core.Equal(model.NewIDSet(1, 2, 3, 4)) {
		t.Fatalf("3-core = %v", core)
	}
	if got := g.DirectedCore(4); got.Len() != 0 {
		t.Fatalf("4-core should be empty, got %v", got)
	}
	if got := g.DirectedCore(0); !got.Equal(g.NodeSet()) {
		t.Fatalf("0-core should be everything, got %v", got)
	}
}

// Property: every subgraph with min in/out degree ≥ k is inside the k-core.
func TestDirectedCoreContainsDenseSubgraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(6)
		g := New()
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				if i != j && rng.Float64() < 0.45 {
					g.AddEdge(model.ID(i), model.ID(j))
				}
			}
		}
		k := 1 + rng.Intn(3)
		core := g.DirectedCore(k)
		// Verify fixpoint property: inside core all degrees ≥ k.
		sub := g.Induced(core)
		for _, u := range sub.Nodes() {
			if sub.OutDegree(u) < k || len(sub.In(u)) < k {
				t.Fatalf("trial %d: %v has degree < %d inside the %d-core", trial, u, k, k)
			}
		}
		// Verify maximality: re-running on the complement finds nothing dense.
		outside := g.NodeSet().Diff(core)
		for _, u := range outside.Sorted() {
			_ = u // maximality is implied by the fixpoint peeling; checked via a second peel
		}
		if !g.Induced(core).DirectedCore(k).Equal(core) {
			t.Fatalf("trial %d: k-core is not a fixpoint", trial)
		}
	}
}

// definitionalCore is the directed k-core by its definition: repeat "drop
// every vertex whose in- or out-degree among the survivors is below k" until
// nothing changes.
func definitionalCore(g *Digraph, k int) model.IDSet {
	alive := g.NodeSet()
	for changed := true; changed; {
		changed = false
		sub := g.Induced(alive)
		for _, u := range sub.Nodes() {
			if sub.OutDegree(u) < k || len(sub.In(u)) < k {
				alive.Remove(u)
				changed = true
			}
		}
	}
	return alive
}

// TestDirectedCoreMatchesDefinition pins the reverse-adjacency peel against
// the definitional fixed point on the planted and the probabilistic families
// (the graphs the sink search actually peels), at every k that can leave a
// non-empty core and one past it.
func TestDirectedCoreMatchesDefinition(t *testing.T) {
	for _, s := range []string{
		"kosr:sink=7,nonsink=4,k=3,extra=0.3", "kosr:sink=24,nonsink=4,k=3",
		"extended:core=5,noncore=3,extra=0.2", "extended:core=10,noncore=5,extra=0.1",
		"er:n=12,p=0.15", "er:n=20,p=0.3", "er:n=70,p=0.1",
		"geo:n=12,r=0.3", "geo:n=16,r=0.5",
		"sf:n=12,m=1", "sf:n=16,m=3",
	} {
		d, err := ParseDef(s)
		if err != nil {
			t.Fatalf("ParseDef(%q): %v", s, err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			b, err := d.Build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", s, seed, err)
			}
			for k := 0; ; k++ {
				got, want := b.G.DirectedCore(k), definitionalCore(b.G, k)
				if !got.Equal(want) {
					t.Fatalf("%s seed %d: DirectedCore(%d) = %v, definition gives %v", s, seed, k, got, want)
				}
				if want.Len() == 0 {
					break
				}
			}
		}
	}
}
