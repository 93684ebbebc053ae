package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
)

// pairsHold is the loop the fan replaced, kept as the fan's oracle: one bare
// flowPair per target, no exit in front.
func pairsHold(sc *FlowScratch, ui int, targets []int, k int) bool {
	for _, ti := range targets {
		if sc.flowPair(ui, ti, k) < k {
			return false
		}
	}
	return true
}

// assertFanMatchesPairs checks the fan lemma on g, loaded in sc, for members S
// with κ(G[S]) ≥ k (the caller checked it) and every u ∉ S: a k-fan into S —
// through fanHolds (exit 3, then the flow), the bare fanFlow and the exported
// HasKFan alike — gives u k disjoint paths to every member; with |S| ≥ k,
// k paths to every member give a fan; and a fan gives k paths to every other
// outsider w with ≥ k in-neighbours in S. It returns the (u, S) cases checked
// and the outsiders w a fan reached.
func assertFanMatchesPairs(t *testing.T, sc *FlowScratch, g *Digraph, members model.IDSet, k int, tag string) (cases, reached int) {
	t.Helper()
	ids := g.Nodes()
	set := make([]uint64, sc.adj.words)
	var rows []int
	for i, id := range ids {
		if members.Has(id) {
			set[i>>6] |= 1 << (i & 63)
			rows = append(rows, i)
		}
	}
	sorted := members.Sorted()
	for ui, u := range ids {
		if members.Has(u) {
			continue
		}
		cases++
		fan := sc.fanHolds(ui, set, k)
		flow := sc.fanFlow(ui, set, k) >= k
		exported := sc.HasKFan(u, sorted, k)
		pairs := pairsHold(sc, ui, rows, k)
		switch {
		case fan != flow || fan != exported:
			t.Fatalf("%s, u=%v, S=%v, k=%d: fanHolds %v, fanFlow %v, HasKFan %v\n%s", tag, u, members, k, fan, flow, exported, g)
		case fan && !pairs:
			t.Fatalf("%s, u=%v, S=%v, k=%d: a fan, yet some member lacks k disjoint paths\n%s", tag, u, members, k, g)
		case pairs && !fan && len(rows) >= k:
			t.Fatalf("%s, u=%v, S=%v, k=%d: k disjoint paths to every member, yet no fan\n%s", tag, u, members, k, g)
		}
		if !fan {
			continue
		}
		for wi, w := range ids {
			if wi == ui || members.Has(w) {
				continue
			}
			in := 0
			for _, s := range sorted {
				if g.HasEdge(s, w) {
					in++
				}
			}
			if in < k {
				continue
			}
			reached++
			if sc.flowPair(ui, wi, k) < k {
				t.Fatalf("%s, u=%v, S=%v, k=%d: a fan, and %v has %d in-neighbours in S, yet fewer than k paths to it\n%s", tag, u, members, k, w, in, g)
			}
		}
	}
	return cases, reached
}

// TestFanMatchesPairs holds the fan lemma that CheckKOSR's fan-in condition and
// CheckExtendedKOSR's C2 rest on to the pair loop it replaced: on every graph
// family (the whole node set, the sink component, each directed k-core with
// and without a vertex, random subsets) and on every subset of small random
// digraphs drawn through FuzzKappaEngines' encoding, for every k ≤ 4 the
// subset's κ reaches by the all-pairs oracle.
func TestFanMatchesPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var cases, reached, sized int
	check := func(g *Digraph, sc *FlowScratch, members model.IDSet, tag string) {
		if members.Len() == 0 || members.Len() == g.NumNodes() {
			return
		}
		sub := g.Induced(members)
		for k := 1; k <= 4 && kappaAllPairs(sub, k); k++ {
			c, r := assertFanMatchesPairs(t, sc, g, members, k, tag)
			cases, reached = cases+c, reached+r
			if members.Len() >= k {
				sized += c
			}
		}
	}
	for _, d := range propertyDefs(t) {
		for seed := int64(1); seed <= 2; seed++ {
			b, err := d.Build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", d, seed, err)
			}
			tag := fmt.Sprintf("%s seed %d", d, seed)
			var sc FlowScratch
			sc.Load(b.G)
			subsets := []model.IDSet{}
			if sink, ok := b.G.UniqueSink(); ok {
				subsets = append(subsets, sink)
			}
			for k := 1; k <= 4; k++ {
				core := b.G.DirectedCore(k)
				subsets = append(subsets, core.Clone())
				if core.Len() > 2 {
					core.Remove(core.Sorted()[rng.Intn(core.Len())])
					subsets = append(subsets, core)
				}
			}
			for trial := 0; trial < 12; trial++ {
				subset := model.NewIDSet()
				for _, id := range b.G.Nodes() {
					if rng.Intn(3) != 0 {
						subset.Add(id)
					}
				}
				subsets = append(subsets, subset)
			}
			for _, members := range subsets {
				check(b.G, &sc, members, tag)
			}
			if !d.UsesSeed() {
				break
			}
		}
	}
	for trial := 0; trial < 120; trial++ {
		data := make([]byte, 3+(9*9+7)/8)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		data[0] = byte(1 + rng.Intn(7)) // 3 to 9 nodes
		g, _ := kappaFuzzGraph(data)
		var sc FlowScratch
		sc.Load(g)
		nodes := g.Nodes()
		for mask := 1; mask < 1<<len(nodes); mask++ {
			members := model.NewIDSet()
			for i, id := range nodes {
				if mask>>i&1 != 0 {
					members.Add(id)
				}
			}
			check(g, &sc, members, fmt.Sprintf("random trial %d", trial))
		}
	}
	if sized == 0 || reached == 0 {
		t.Fatalf("%d (u, S) cases with |S| ≥ k and %d outsiders reached: the lemma went untested", sized, reached)
	}
	t.Logf("%d (u, S, k) cases (%d with |S| ≥ k), %d outsiders with ≥ k in-neighbours in S reached by a fan", cases, sized, reached)
}
