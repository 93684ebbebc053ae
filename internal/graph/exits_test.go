package graph

import (
	"fmt"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
)

// assertExitsExact holds everything the degree exits stand in front of to
// flows that have none: assertKappaEngines on G[members] (PoolFlow's mask,
// FlowScratch on the induced graph — all three exits), kStrong(members) on g
// with the edges leaving members cut (CheckKOSR's shape: a closed set that
// outsiders still point into), and HasKDisjointPaths on every ordered pair of
// g against the unfronted MaxNodeDisjointPaths (exit 2 alone).
func assertExitsExact(t *testing.T, g *Digraph, members model.IDSet, tag string) {
	t.Helper()
	assertKappaEngines(t, g, members, tag)

	closed := g.Clone()
	for u := range members {
		for _, v := range g.Out(u) {
			if !members.Has(v) {
				closed.adj[u].Remove(v)
			}
		}
	}
	rows := []int32{} // nil would mean every node
	for i, id := range closed.Nodes() {
		if members.Has(id) {
			rows = append(rows, int32(i))
		}
	}
	sub := closed.Induced(members)
	var sc FlowScratch
	sc.Load(closed)
	for k := 0; k <= 5; k++ {
		if got, want := sc.kStrong(rows, k), kappaAllPairs(sub, k); got != want {
			t.Fatalf("%s: kStrong(%v, %d) = %v on the closed graph, all pairs say %v\n%s", tag, members, k, got, want, closed)
		}
	}

	sc.Load(g)
	for _, s := range g.Nodes() {
		for _, u := range g.Nodes() {
			paths := g.MaxNodeDisjointPaths(s, u, 0)
			for k := 0; k <= 5; k++ {
				if got := sc.HasKDisjointPaths(s, u, k); got != (k <= 0 || paths >= k) {
					t.Fatalf("%s: HasKDisjointPaths(%v, %v, %d) = %v with %d disjoint paths\n%s", tag, s, u, k, got, paths, g)
				}
			}
		}
	}
}

// twoCliques returns two K_a sharing their last, respectively first, c nodes:
// m = 2a−c nodes, least semi-degree a−1, and the shared nodes the only way
// across, so κ = c.
func twoCliques(a, c int) *Digraph {
	g := New()
	var left, right []model.ID
	for i := 1; i <= a; i++ {
		left = append(left, model.ID(i))
		right = append(right, model.ID(a-c+i))
	}
	clique(g, left...)
	clique(g, right...)
	return g
}

// TestKappaDegreeExitTight pins exit 1's bound where it is tight: two K_a
// sharing k−1 nodes have m = 2a−k+1 members and least semi-degree
// a−1 = (m+k−3)/2 — one half short of the bound — and κ = k−1. Under every
// rotation of the IDs both engines must refuse κ ≥ k and grant κ ≥ k−1.
func TestKappaDegreeExitTight(t *testing.T) {
	for a := 3; a <= 7; a++ {
		for k := 2; k < a; k++ {
			base := twoCliques(a, k-1)
			ids := base.Nodes()
			if m := len(ids); 2*base.minDegree() != m+k-3 {
				t.Fatalf("two K%d sharing %d: 2δ⁰ = %d, want m+k−3 = %d", a, k-1, 2*base.minDegree(), m+k-3)
			}
			for shift := range ids {
				perm := make(map[model.ID]model.ID, len(ids))
				for i, id := range ids {
					perm[id] = ids[(i+shift)%len(ids)]
				}
				g := relabel(base, perm)
				tag := fmt.Sprintf("two K%d sharing %d nodes rotated by %d", a, k-1, shift)
				if kappaAllPairs(g, k) || !kappaAllPairs(g, k-1) {
					t.Fatalf("%s: the oracle disagrees that κ = %d", tag, k-1)
				}
				for _, at := range []int{k - 1, k} {
					holds, _, _ := probeCost(t, g, g.NodeSet(), at, tag)
					if holds != (at < k) {
						t.Fatalf("%s: the engines say κ ≥ %d is %v", tag, at, holds)
					}
				}
				assertExitsExact(t, g, g.NodeSet(), tag)
			}
		}
	}
}

// kappaFuzzInput is FuzzKappaEngines' encoding of (g, members) for g on the
// nodes 1…n, 2 ≤ n ≤ 12: n−2, the subset mask in two bytes, then the adjacency matrix
// row by row, one bit an ordered pair.
func kappaFuzzInput(g *Digraph, members model.IDSet) []byte {
	n := g.NumNodes()
	var mask uint16
	for id := range members {
		mask |= 1 << (id - 1)
	}
	data := make([]byte, 3+(n*n+7)/8)
	data[0], data[1], data[2] = byte(n-2), byte(mask), byte(mask>>8)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if g.HasEdge(model.ID(u+1), model.ID(v+1)) {
				data[3+(u*n+v)/8] |= 1 << ((u*n + v) % 8)
			}
		}
	}
	return data
}

// FuzzKappaEngines holds the two κ engines, exits and all, to the literal
// all-pairs oracle on arbitrary digraphs of up to 12 nodes and arbitrary
// member subsets, for every k ≤ 5, and the fan (HasKFan) to the pair loop it
// stands for at every k the members reach. The corpus seeds are kappa_test.go's
// boundary graphs: cliques whole and minus an edge, a cut vertex, the
// one-directional cuts, and exit 1's tight case.
func FuzzKappaEngines(f *testing.F) {
	seeds := []*Digraph{twoCliques(4, 1), twoCliques(5, 2), twoCliques(6, 3)}
	for m := 2; m <= 6; m++ {
		var ids []model.ID
		for i := 1; i <= m; i++ {
			ids = append(ids, model.ID(i))
		}
		full := CompleteGraph(ids...)
		holed := full.Clone()
		holed.adj[1].Remove(model.ID(m))
		seeds = append(seeds, full, holed)
	}
	for back := 0; back <= 3; back++ {
		g := New()
		clique(g, 1, 2, 3, 4)
		clique(g, 5, 6, 7, 8)
		for a := model.ID(1); a <= 4; a++ {
			for b := model.ID(5); b <= 8; b++ {
				g.AddEdge(a, b)
			}
			if int(a) <= back {
				g.AddEdge(4+a, a)
			}
		}
		seeds = append(seeds, g)
	}
	for _, g := range seeds {
		f.Add(kappaFuzzInput(g, g.NodeSet()))
		f.Add(kappaFuzzInput(g, g.DirectedCore(2)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		g, members := kappaFuzzGraph(data)
		assertExitsExact(t, g, members, "fuzz")
		if members.Len() == 0 {
			return
		}
		var sc FlowScratch
		sc.Load(g)
		sub := g.Induced(members)
		for k := 1; k <= 5 && kappaAllPairs(sub, k); k++ {
			assertFanMatchesPairs(t, &sc, g, members, k, "fuzz")
		}
	})
}

// kappaFuzzGraph decodes kappaFuzzInput's encoding (len(data) ≥ 3; missing
// adjacency bytes read as no edge).
func kappaFuzzGraph(data []byte) (*Digraph, model.IDSet) {
	n := 2 + int(data[0])%11
	g := New()
	members := model.NewIDSet()
	for u := 0; u < n; u++ {
		g.AddNode(model.ID(u + 1))
		if (int(data[1])|int(data[2])<<8)>>u&1 != 0 {
			members.Add(model.ID(u + 1))
		}
		for v := 0; v < n; v++ {
			if at := 3 + (u*n+v)/8; at < len(data) && data[at]>>((u*n+v)%8)&1 != 0 {
				g.AddEdge(model.ID(u+1), model.ID(v+1))
			}
		}
	}
	return g, members
}
