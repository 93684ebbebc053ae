package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
)

// assertKappaEngines holds the κ engine to the oracle, the literal
// Digraph.IsKStronglyConnected, on the subgraph of g induced by members for
// k = 0…5, through probeCost: loaded with all of g and queried with the
// members, and loaded with G[S] and queried whole.
func assertKappaEngines(t *testing.T, g *Digraph, members model.IDSet, tag string) {
	t.Helper()
	sub := g.Induced(members)
	for k := 0; k <= 5; k++ {
		if got, _, _ := probeCost(t, g, members, k, tag); got != sub.IsKStronglyConnected(k) {
			t.Fatalf("%s: κ(%v) ≥ %d is %v, all pairs say %v\n%s", tag, members, k, got, !got, sub)
		}
	}
}

// relabel returns g with node ids[i] renamed to perm[i]: the engine orders
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

// TestKappaScheduleMatchesAllPairs pins Even's probe schedule, over a member
// set and over a whole graph, to the all-ordered-pairs loop it replaced: over every graph
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
	// Past 32 nodes the split graph's rows are several words long, past 64 the
	// adjacency rows too.
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
				if got, want := g.IsKStronglyConnected(k), k <= c.kappa; got != want {
					t.Fatalf("%s: the oracle says κ ≥ %d is %v, built for κ = %d", tag, k, got, c.kappa)
				}
			}
			assertKappaEngines(t, g, g.NodeSet(), tag)
		}
	}
}

// probeCost runs κ(G[members]) ≥ k on the engine loaded two ways — with all
// of g through LoadRows, the members its query set, and with G[members]
// through Load, queried whole — and returns the verdict with the flows run
// and the flows each exit saved, which must agree: same members in the same
// order, same rows.
func probeCost(t *testing.T, g *Digraph, members model.IDSet, k int, tag string) (holds bool, probes int, skipped [3]int) {
	t.Helper()
	var whole, rows FlowScratch
	whole.Load(g.Induced(members))
	holds = whole.IsKStronglyConnected(k)
	var b BitAdjacency
	b.Load(g)
	rows.LoadRows(b.NumNodes(), b.rows)
	// Every node's split rows in place, as a query on all of g leaves them:
	// the query on S must not reach the rows of non-members.
	rows.split(rows.sub, rows.all)
	set := make([]uint64, b.words)
	for i, id := range b.IDs() {
		if members.Has(id) {
			set[i>>6] |= 1 << (i & 63)
		}
	}
	if got := rows.KappaAtLeast(set, k); got != holds || rows.probes != whole.probes || rows.skipped != whole.skipped {
		t.Fatalf("%s, κ(%v) ≥ %d: %v after %d flows, skipped %v on all of g; %v after %d, skipped %v on G[S]",
			tag, members, k, got, rows.probes, rows.skipped, holds, whole.probes, whole.skipped)
	}
	return holds, whole.probes, whole.skipped
}

// literalSkips counts, off the Digraph's own edge sets, the probes of Even's
// schedule over g's nodes in ID order that exits 2 and 3 answer without a flow.
func literalSkips(g *Digraph, k int) (pairs, fans int) {
	ids := g.Nodes()
	for j, v := range ids {
		if j < k {
			for _, u := range ids[:j] {
				for _, st := range [][2]model.ID{{u, v}, {v, u}} {
					short := 0
					if g.HasEdge(st[0], st[1]) {
						short++
					}
					for _, w := range g.Out(st[0]) {
						if g.HasEdge(w, st[1]) {
							short++
						}
					}
					if short >= k {
						pairs++
					}
				}
			}
			continue
		}
		into, from := 0, 0
		for _, u := range ids[:j] {
			if g.HasEdge(u, v) {
				into++
			}
			if g.HasEdge(v, u) {
				from++
			}
		}
		if into >= k {
			fans++
		}
		if from >= k {
			fans++
		}
	}
	return pairs, fans
}

// TestKappaProbeCount pins the schedule's cost, both ways of loading. A passing
// verdict on m members accounts for exactly k(k−1) + 2(m−k) probes, each one a
// flow run or a flow an exit saved — the count is deterministic, so a slide
// back towards one flow per ordered pair fails here. Cliques cost no flow at
// all (exit 1 fires); on every family no verdict costs more than the
// schedule; and on sparse graphs, where exit 1 declines and exits 2 and 3 fire
// exactly where the edge sets say they must, every other probe is still run.
// No passing verdict gets below two saved probes: the last member's ≥ k in-
// and out-neighbours are all earlier members, so its two fan probes never run.
func TestKappaProbeCount(t *testing.T) {
	for m := 2; m <= 12; m++ {
		var ids []model.ID
		for i := 1; i <= m; i++ {
			ids = append(ids, model.ID(3*i))
		}
		g := CompleteGraph(ids...)
		for k := 1; k < m; k++ {
			holds, probes, skipped := probeCost(t, g, g.NodeSet(), k, fmt.Sprintf("K%d", m))
			if !holds || probes != 0 || skipped != [3]int{k*(k-1) + 2*(m-k), 0, 0} {
				t.Fatalf("κ(K%d) ≥ %d: %v after %d flows, skipped %v; want true after none, all saved by exit 1", m, k, holds, probes, skipped)
			}
		}
	}

	for _, d := range propertyDefs(t) {
		for seed := int64(1); seed <= 2; seed++ {
			b, err := d.Build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", d, seed, err)
			}
			subsets := []model.IDSet{b.G.NodeSet()}
			for k := 1; k <= 4; k++ {
				subsets = append(subsets, b.G.DirectedCore(k))
			}
			for _, members := range subsets {
				m := members.Len()
				for k := 1; k <= 5 && k < m; k++ {
					holds, probes, skipped := probeCost(t, b.G, members, k, fmt.Sprintf("%s seed %d", d, seed))
					want := k*(k-1) + 2*(m-k)
					if total := probes + skipped[0] + skipped[1] + skipped[2]; total > want || holds && total != want {
						t.Fatalf("%s seed %d, κ(%v) ≥ %d = %v: %d flows + %v skipped, want k(k−1)+2(m−k) = %d",
							d, seed, members, k, holds, probes, skipped, want)
					}
				}
			}
			if !d.UsesSeed() {
				break
			}
		}
	}

	// Sparse and k-connected: the circulant i → i+1 … i+k on m ≥ 3k+2 nodes,
	// in cyclic order and with its nodes dealt out by a stride, and the two-way
	// circulant i ↔ i±1 … i±r (κ = 2r) in cyclic order — there only the last
	// node's two fan probes are saved, the floor.
	type sparse struct {
		name string
		g    *Digraph
		k    int
	}
	var cases []sparse
	for k := 1; k <= 4; k++ {
		for m := 3*k + 2; m <= 14; m++ {
			for _, stride := range []int{1, 3, 5} {
				if m%stride == 0 {
					continue
				}
				ids := make([]model.ID, m)
				for i := range ids {
					ids[i] = model.ID(1 + i*stride%m)
				}
				g := New()
				circulant(g, ids, k)
				cases = append(cases, sparse{fmt.Sprintf("circulant m=%d k=%d stride %d", m, k, stride), g, k})
			}
		}
	}
	for r := 1; r <= 3; r++ {
		for m := 6*r + 2; m <= 6*r+5; m++ {
			ids := make([]model.ID, m)
			for i := range ids {
				ids[i] = model.ID(1 + i)
			}
			g := New()
			circulant(g, ids, r)
			for _, u := range ids {
				for _, v := range g.Out(u) {
					g.AddEdge(v, u)
				}
			}
			if pairs, fans := literalSkips(g, 2*r); pairs != 0 || fans != 2 {
				t.Fatalf("two-way circulant m=%d r=%d: built so that only the last node's fan probes are saved, but %d pair and %d fan probes are", m, r, pairs, fans)
			}
			cases = append(cases, sparse{fmt.Sprintf("two-way circulant m=%d r=%d", m, r), g, 2 * r})
		}
	}
	for _, c := range cases {
		m := c.g.NumNodes()
		pairs, fans := literalSkips(c.g, c.k)
		holds, probes, skipped := probeCost(t, c.g, c.g.NodeSet(), c.k, c.name)
		if want := c.k*(c.k-1) + 2*(m-c.k) - pairs - fans; !holds || probes != want || skipped != [3]int{0, pairs, fans} {
			t.Fatalf("%s: κ ≥ %d is %v after %d flows, skipped %v; want true after k(k−1)+2(m−k) − %d − %d = %d, skipped [0 %d %d]",
				c.name, c.k, holds, probes, skipped, pairs, fans, want, pairs, fans)
		}
		if !c.g.IsKStronglyConnected(c.k) || c.g.IsKStronglyConnected(c.k+1) {
			t.Fatalf("%s: the oracle disagrees that κ = %d", c.name, c.k)
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
