package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
)

// kappaAllPairs is the κ(g) ≥ k oracle: the definition read literally, one
// bounded MaxNodeDisjointPaths probe per ordered pair (that probe is pinned
// against path enumeration by TestMaxNodeDisjointPathsAgainstBruteForce). It
// shares the flow kernel with the engines but nothing of their probe
// schedule, which is what the tests below hold to it.
func kappaAllPairs(g *Digraph, k int) bool {
	if k <= 0 || g.NumNodes() <= 1 {
		return true
	}
	var sc FlowScratch
	sc.Load(g)
	for _, s := range g.Nodes() {
		for _, t := range g.Nodes() {
			if s != t && sc.MaxNodeDisjointPaths(s, t, k) < k {
				return false
			}
		}
	}
	return true
}

// assertKappaEngines holds every κ-threshold entry point to the oracle on the
// subgraph of g induced by members, for k = 0…5: PoolFlow on the subset mask
// of a pool made of all of g (when g fits one), FlowScratch on the induced
// graph with no degree exit in front, and the Digraph one-shot with it.
func assertKappaEngines(t *testing.T, g *Digraph, members model.IDSet, tag string) {
	t.Helper()
	sub := g.Induced(members)
	var pf PoolFlow
	var mask uint64
	pool := g.Nodes()
	if len(pool) <= 64 {
		pf.Reset(poolRows(g, pool))
		for i, id := range pool {
			if members.Has(id) {
				mask |= 1 << i
			}
		}
	}
	var sc FlowScratch
	sc.Load(sub)
	for k := 0; k <= 5; k++ {
		want := kappaAllPairs(sub, k)
		if got := sc.IsKStronglyConnected(k); got != want {
			t.Fatalf("%s: FlowScratch.IsKStronglyConnected(%d) on %v = %v, all pairs say %v\n%s", tag, k, members, got, want, sub)
		}
		if got := sub.IsKStronglyConnected(k); got != want {
			t.Fatalf("%s: Digraph.IsKStronglyConnected(%d) on %v = %v, all pairs say %v\n%s", tag, k, members, got, want, sub)
		}
		if len(pool) <= 64 {
			if got := pf.KappaAtLeast(mask, k); got != want {
				t.Fatalf("%s: PoolFlow.KappaAtLeast(%v, %d) = %v, all pairs say %v\n%s", tag, members, k, got, want, sub)
			}
		}
	}
}

// relabel returns g with node ids[i] renamed to perm[i]: the engines order
// members by ID, so a relabelling moves a cut in or out of the schedule's
// first k members without changing κ.
func relabel(g *Digraph, perm map[model.ID]model.ID) *Digraph {
	out := New()
	for _, u := range g.Nodes() {
		out.AddNode(perm[u])
		for _, v := range g.Out(u) {
			out.AddEdge(perm[u], perm[v])
		}
	}
	return out
}

// clique adds every edge among ids.
func clique(g *Digraph, ids ...model.ID) {
	for _, u := range ids {
		g.AddNode(u)
		for _, v := range ids {
			g.AddEdge(u, v)
		}
	}
}

// TestKappaScheduleMatchesAllPairs pins Even's probe schedule, in both
// engines, to the all-ordered-pairs loop it replaced: over every graph
// family (whole graph, each directed k-core — the subsets that get past the
// degree exit — cores minus a vertex, and random subsets), over random dense
// digraphs, and over hand-built graphs that sit on the schedule's boundaries,
// each under every rotation of its IDs so that each node takes each position
// of the schedule.
func TestKappaScheduleMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, d := range propertyDefs(t) {
		for seed := int64(1); seed <= 2; seed++ {
			b, err := d.Build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", d, seed, err)
			}
			tag := fmt.Sprintf("%s seed %d", d, seed)
			nodes := b.G.Nodes()
			assertKappaEngines(t, b.G, b.G.NodeSet(), tag)
			for k := 1; k <= 4; k++ {
				core := b.G.DirectedCore(k)
				assertKappaEngines(t, b.G, core, tag)
				if core.Len() > 2 {
					core.Remove(core.Sorted()[rng.Intn(core.Len())])
					assertKappaEngines(t, b.G, core, tag)
				}
			}
			for trial := 0; trial < 12; trial++ {
				subset := model.NewIDSet()
				for _, id := range nodes {
					if rng.Intn(3) != 0 {
						subset.Add(id)
					}
				}
				assertKappaEngines(t, b.G, subset, tag)
			}
			if !d.UsesSeed() {
				break
			}
		}
	}
	// Past 32 nodes the split graph's rows are several words long (and past 64
	// PoolFlow is out of the picture).
	for _, s := range []string{"complete:34", "er:n=40,p=0.3", "er:n=70,p=0.25", "kosr:sink=36,nonsink=4,k=3"} {
		d, err := ParseDef(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.Build(3)
		if err != nil {
			t.Fatal(err)
		}
		assertKappaEngines(t, b.G, b.G.NodeSet(), s)
		assertKappaEngines(t, b.G, b.G.DirectedCore(3), s)
	}
	for trial := 0; trial < 150; trial++ {
		n := 3 + rng.Intn(9)
		p := 0.35 + 0.6*rng.Float64()
		g := New()
		for u := 1; u <= n; u++ {
			g.AddNode(model.ID(u))
			for v := 1; v <= n; v++ {
				if rng.Float64() < p {
					g.AddEdge(model.ID(u), model.ID(v))
				}
			}
		}
		assertKappaEngines(t, g, g.NodeSet(), fmt.Sprintf("dense trial %d", trial))
	}

	type boundary struct {
		name  string
		g     *Digraph
		kappa int // the largest k that holds
	}
	var cases []boundary
	// m = k+1: only the complete graph reaches κ = m-1; one missing edge
	// costs one.
	for m := 2; m <= 6; m++ {
		var ids []model.ID
		for i := 1; i <= m; i++ {
			ids = append(ids, model.ID(i))
		}
		full := CompleteGraph(ids...)
		cases = append(cases, boundary{fmt.Sprintf("K%d", m), full, m - 1})
		holed := full.Clone()
		holed.adj[ids[0]].Remove(ids[m-1])
		cases = append(cases, boundary{fmt.Sprintf("K%d minus an edge", m), holed, m - 2})
	}
	// A one-vertex cut: two 4-cliques sharing node 4. Under the rotations the
	// cut vertex is among the first k members in some and past them in others.
	cut := New()
	clique(cut, 1, 2, 3, 4)
	clique(cut, 4, 5, 6, 7)
	cases = append(cases, boundary{"two K4 sharing a cut vertex", cut, 1})
	// One-directional cuts between two 4-cliques A = 1…4 and B = 5…8: every
	// edge A→B and `back` disjoint edges B→A. B is reachable from A through
	// any number of paths, A from B through `back` — and every deficient pair
	// (b, a) is an adjacent one, joined by the edge a→b and, for the back
	// edges' endpoints, by a direct b→a edge that counts as one path.
	for back := 0; back <= 3; back++ {
		for _, flip := range []bool{false, true} {
			g := New()
			clique(g, 1, 2, 3, 4)
			clique(g, 5, 6, 7, 8)
			for a := model.ID(1); a <= 4; a++ {
				for b := model.ID(5); b <= 8; b++ {
					if flip {
						g.AddEdge(b, a)
					} else {
						g.AddEdge(a, b)
					}
				}
			}
			for i := model.ID(1); i <= model.ID(back); i++ {
				if flip {
					g.AddEdge(i, 4+i)
				} else {
					g.AddEdge(4+i, i)
				}
			}
			cases = append(cases, boundary{fmt.Sprintf("K4 ⇉ K4 with %d edges back, flipped=%v", back, flip), g, back})
		}
	}
	for _, c := range cases {
		ids := c.g.Nodes()
		for shift := range ids {
			perm := make(map[model.ID]model.ID, len(ids))
			for i, id := range ids {
				perm[id] = ids[(i+shift)%len(ids)]
			}
			g := relabel(c.g, perm)
			tag := fmt.Sprintf("%s rotated by %d", c.name, shift)
			for k := 0; k <= 5; k++ {
				if got, want := kappaAllPairs(g, k), k <= c.kappa; got != want {
					t.Fatalf("%s: the oracle says κ ≥ %d is %v, built for κ = %d", tag, k, got, c.kappa)
				}
			}
			assertKappaEngines(t, g, g.NodeSet(), tag)
		}
	}
}

// TestKappaProbeCount pins the schedule's cost: a passing verdict on m members
// runs exactly k(k−1) + 2(m−k) flows in either engine — the count is
// deterministic, so a slide back towards one flow per ordered pair fails here.
func TestKappaProbeCount(t *testing.T) {
	for m := 2; m <= 12; m++ {
		var ids []model.ID
		for i := 1; i <= m; i++ {
			ids = append(ids, model.ID(3*i))
		}
		g := CompleteGraph(ids...)
		var sc FlowScratch
		sc.Load(g)
		var pf PoolFlow
		pf.Reset(poolRows(g, ids))
		for k := 1; k < m; k++ {
			want := k*(k-1) + 2*(m-k)
			before := sc.probes
			if !sc.IsKStronglyConnected(k) {
				t.Fatalf("K%d is not %d-strongly connected", m, k)
			}
			if got := sc.probes - before; got != want {
				t.Fatalf("FlowScratch: κ(K%d) ≥ %d took %d flows, want k(k−1)+2(m−k) = %d", m, k, got, want)
			}
			before = pf.probes
			if !pf.KappaAtLeast(1<<m-1, k) {
				t.Fatalf("PoolFlow: K%d is not %d-strongly connected", m, k)
			}
			if got := pf.probes - before; got != want {
				t.Fatalf("PoolFlow: κ(K%d) ≥ %d took %d flows, want k(k−1)+2(m−k) = %d", m, k, got, want)
			}
		}
	}
}

// TestIsKStronglyConnectedDegreeExit pins the Digraph one-shot's exit in
// front of the snapshot: κ is bounded by the minimum in-degree as much as by
// the minimum out-degree.
func TestIsKStronglyConnectedDegreeExit(t *testing.T) {
	// K5 with every edge into node 5 but one removed: out-degrees 3, 3, 3, 4, 4,
	// in-degree of 5 is 1.
	k5 := CompleteGraph(1, 2, 3, 4, 5)
	starved := k5.Clone()
	for u := model.ID(1); u <= 3; u++ {
		starved.adj[u].Remove(5)
	}
	for _, c := range []struct {
		name      string
		g         *Digraph
		minDegree int
		k         int
		want      bool
	}{
		{"K5", k5, 4, 4, true},
		{"K5", k5, 4, 5, false},
		{"in-degree 1 under out-degree 3", starved, 1, 2, false},
		{"in-degree 1 under out-degree 3", starved, 1, 3, false},
		{"in-degree 1 under out-degree 3", starved, 1, 1, true},
		{"cycle", edgeList([2]model.ID{1, 2}, [2]model.ID{2, 3}, [2]model.ID{3, 1}), 1, 2, false},
	} {
		if got := c.g.minDegree(); got != c.minDegree {
			t.Errorf("%s: minDegree = %d, want %d", c.name, got, c.minDegree)
		}
		if got := c.g.IsKStronglyConnected(c.k); got != c.want {
			t.Errorf("%s: IsKStronglyConnected(%d) = %v, want %v", c.name, c.k, got, c.want)
		}
	}
}
