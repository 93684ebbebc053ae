package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
)

func TestCheckKOSRSimple(t *testing.T) {
	// A 2-strongly-connected sink {1,2,3} (complete triangle) with a non-sink
	// node 4 pointing at two sink members: 2-OSR.
	g := CompleteGraph(1, 2, 3)
	g.AddEdge(4, 1)
	g.AddEdge(4, 2)
	r := CheckKOSR(g, 2)
	if !r.OK {
		t.Fatalf("expected 2-OSR, got: %s", r.Reason)
	}
	if !r.Sink.Equal(model.NewIDSet(1, 2, 3)) {
		t.Fatalf("sink = %v", r.Sink)
	}
	// It is not 3-OSR: the sink triangle has κ = 2.
	if CheckKOSR(g, 3).OK {
		t.Fatal("triangle sink cannot be 3-OSR")
	}
}

func TestCheckKOSRFailures(t *testing.T) {
	// Disconnected.
	g := CompleteGraph(1, 2, 3)
	g.AddNode(9)
	if r := CheckKOSR(g, 1); r.OK {
		t.Fatal("disconnected graph passed")
	}
	// Two sinks.
	h := edgeList([2]model.ID{1, 2}, [2]model.ID{1, 3})
	if r := CheckKOSR(h, 1); r.OK {
		t.Fatal("two-sink graph passed")
	}
	// Non-sink node with only one path to the sink fails k=2.
	g2 := CompleteGraph(1, 2, 3)
	g2.AddEdge(4, 1)
	if r := CheckKOSR(g2, 2); r.OK {
		t.Fatal("single-path non-sink node passed k=2")
	}
	// Empty graph.
	if r := CheckKOSR(New(), 1); r.OK {
		t.Fatal("empty graph passed")
	}
}

func TestCheckKOSRSingletonSink(t *testing.T) {
	// 2→1: sink {1}, κ(singleton) vacuously fine for k=1.
	g := edgeList([2]model.ID{2, 1})
	r := CheckKOSR(g, 1)
	if !r.OK || !r.Sink.Equal(model.NewIDSet(1)) {
		t.Fatalf("singleton sink: %+v", r)
	}
}

func TestCheckBFTCUP(t *testing.T) {
	fig := Fig1b()
	r := CheckBFTCUP(fig.G, fig.Byz, fig.F)
	if !r.OK {
		t.Fatalf("Fig1b should satisfy BFT-CUP requirements: %s", r.Reason)
	}
	if !r.Sink.Equal(fig.ExpectedSink) {
		t.Fatalf("Fig1b safe sink = %v, want %v", r.Sink, fig.ExpectedSink)
	}

	bad := Fig1a()
	if r := CheckBFTCUP(bad.G, bad.Byz, bad.F); r.OK {
		t.Fatal("Fig1a should NOT satisfy BFT-CUP requirements")
	}

	// Too many Byzantine nodes for the threshold.
	if r := CheckBFTCUP(fig.G, model.NewIDSet(4, 5), 1); r.OK {
		t.Fatal("2 Byzantine nodes should fail f=1")
	}

	// Sink too small: triangle sink with f=1 needs ≥ 3 correct sink members.
	g := CompleteGraph(1, 2)
	g.AddEdge(3, 1)
	g.AddEdge(3, 2)
	if r := CheckBFTCUP(g, model.NewIDSet(), 1); r.OK {
		t.Fatal("2-node sink should fail the 2f+1 size requirement")
	}
}

func TestGenKOSRSatisfiesChecker(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(3)
		spec := GenSpec{
			SinkSize:    2*k + 1 + rng.Intn(3),
			NonSinkSize: rng.Intn(5),
			K:           k,
			ExtraEdgeP:  rng.Float64() * 0.3,
		}
		g, sink, err := GenKOSR(rng, spec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := CheckKOSR(g, k)
		if !r.OK {
			t.Fatalf("trial %d (spec %+v): generated graph fails checker: %s\n%s", trial, spec, r.Reason, g)
		}
		if !r.Sink.Equal(sink) {
			t.Fatalf("trial %d: planted sink %v, checker found %v", trial, sink, r.Sink)
		}
	}
}

func TestGenKOSRRejectsImpossibleSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, _, err := GenKOSR(rng, GenSpec{SinkSize: 2, K: 2}); err == nil {
		t.Fatal("2-node sink cannot be 2-strongly connected; want error")
	}
}

func TestGenExtendedKOSRStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		spec := GenSpec{
			SinkSize:    3 + rng.Intn(5),
			NonSinkSize: rng.Intn(5),
			ExtraEdgeP:  rng.Float64() * 0.3,
		}
		g, core, fG, err := GenExtendedKOSR(rng, spec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The planted core must be the unique sink of the graph.
		sink, ok := g.UniqueSink()
		if !ok || !sink.Equal(core) {
			t.Fatalf("trial %d: sink %v (ok=%v), want core %v", trial, sink, ok, core)
		}
		// Base k-OSR with k = fG+1.
		if r := CheckKOSR(g, fG+1); !r.OK {
			t.Fatalf("trial %d: not (fG+1)-OSR: %s", trial, r.Reason)
		}
		// C2: every non-core node has fG+1 disjoint paths to every core node.
		for _, u := range g.Nodes() {
			if core.Has(u) {
				continue
			}
			for _, v := range core.Sorted() {
				if !g.HasKDisjointPaths(u, v, fG+1) {
					t.Fatalf("trial %d: C2 fails from %v to %v", trial, u, v)
				}
			}
		}
	}
}

func TestPDMap(t *testing.T) {
	g := edgeList([2]model.ID{1, 2}, [2]model.ID{1, 3}, [2]model.ID{2, 3})
	pd := PDMap(g)
	if !pd[1].Equal(model.NewIDSet(2, 3)) || !pd[2].Equal(model.NewIDSet(3)) || pd[3].Len() != 0 {
		t.Fatalf("PDMap = %v", pd)
	}
	// Mutating the map must not affect the graph.
	pd[1].Add(9)
	if g.HasEdge(1, 9) {
		t.Fatal("PDMap shares sets with the graph")
	}
}

// undirectedConnectedByMaps is Digraph.UndirectedConnected as it was before it
// moved onto the snapshot's CSR: the undirected counterpart built as a map of
// sets and walked.
func undirectedConnectedByMaps(g *Digraph) bool {
	nodes := g.Nodes()
	if len(nodes) <= 1 {
		return true
	}
	und := make(map[model.ID]model.IDSet, len(nodes))
	for _, u := range nodes {
		und[u] = model.NewIDSet()
	}
	for u, outs := range g.adj {
		for v := range outs {
			und[u].Add(v)
			und[v].Add(u)
		}
	}
	seen := model.NewIDSet(nodes[0])
	stack := []model.ID{nodes[0]}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range und[u].Sorted() {
			if seen.Add(v) {
				stack = append(stack, v)
			}
		}
	}
	return seen.Len() == len(nodes)
}

// checkKOSRByDigraph is CheckKOSR as it ran before it moved onto the flow
// engine's snapshot, kept as the test oracle: every step builds the object
// Definition 1 names — the undirected counterpart, the condensation, the
// induced sink subgraph — through the map-based Digraph methods.
func checkKOSRByDigraph(g *Digraph, k int) KOSRReport {
	r := KOSRReport{K: k}
	if g.NumNodes() == 0 {
		r.Reason = "empty graph"
		return r
	}
	if !undirectedConnectedByMaps(g) {
		r.Reason = "undirected counterpart is not connected"
		return r
	}
	sinks := g.Condense().SinkComponents()
	if len(sinks) != 1 {
		r.Reason = fmt.Sprintf("condensation has %d sink components, want exactly 1", len(sinks))
		return r
	}
	r.Sink = sinks[0]
	if !g.Induced(r.Sink).IsKStronglyConnected(k) {
		r.Reason = fmt.Sprintf("sink component %v is not %d-strongly connected", r.Sink, k)
		return r
	}
	if r.Sink.Len() == 1 {
		r.SinkConnectivity = InfiniteConnectivity
	} else {
		r.SinkConnectivity = k
	}
	for _, u := range g.Nodes() {
		if r.Sink.Has(u) {
			continue
		}
		for _, v := range r.Sink.Sorted() {
			if !g.HasKDisjointPaths(u, v, k) {
				r.Reason = fmt.Sprintf("fewer than %d node-disjoint paths from %v to sink node %v", k, u, v)
				return r
			}
		}
	}
	r.OK = true
	return r
}

// fanRoutes tallies, for every node outside a k-strongly connected sink, the
// route condition 4 takes for it: exit 3, a fan flow that holds, or a failed
// fan and the pair loop behind it, which holds (a sink of fewer than k
// members) or names the Reason.
func fanRoutes(g *Digraph, sink model.IDSet, k int, routes map[string]int) {
	var sc FlowScratch
	sc.Load(g)
	set := make([]uint64, sc.adj.words)
	var rows []int
	for i, id := range g.Nodes() {
		if sink.Has(id) {
			set[i>>6] |= 1 << (i & 63)
			rows = append(rows, i)
		}
	}
	for ui, id := range g.Nodes() {
		switch {
		case sink.Has(id):
		case andCount(sc.adj.Row(ui), set) >= k:
			routes["fan: exit 3"]++
		case sc.fanFlow(sc.base, sc.all, ui, set, k) >= k:
			routes["fan: flow"]++
		case pairsHold(&sc, ui, rows, k):
			routes["no fan: pairs hold"]++
		default:
			routes["no fan: pairs fail"]++
		}
	}
}

// TestCheckKOSRMatchesDigraphRoute holds the dense CheckKOSR to the Digraph
// route on 500 random graphs, field by field: planted k-OSR and extended
// graphs with and without a damaged edge, and sparse to dense Erdős–Rényi
// graphs on scattered IDs, which supply the disconnected, several-sink and
// singleton-sink cases. Every exit of the checker must be taken, and every
// route of its fan-in condition: exit 3, a fan flow, and a failed fan whose
// pair loop holds or fails.
func TestCheckKOSRMatchesDigraphRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	exits := map[string]int{}
	for trial := 0; trial < 500; trial++ {
		var g *Digraph
		switch trial % 4 {
		case 0:
			k := 1 + rng.Intn(3)
			var err error
			if g, _, err = GenKOSR(rng, GenSpec{SinkSize: 2*k + 1 + rng.Intn(4), NonSinkSize: rng.Intn(6), K: k, ExtraEdgeP: rng.Float64() * 0.3}); err != nil {
				t.Fatal(err)
			}
		case 1:
			var err error
			if g, _, _, err = GenExtendedKOSR(rng, GenSpec{SinkSize: 3 + rng.Intn(6), NonSinkSize: rng.Intn(6), ExtraEdgeP: rng.Float64() * 0.3}); err != nil {
				t.Fatal(err)
			}
		default:
			// IDs scattered over a wide range: rows are ranks, not ID values.
			g = New()
			n := 1 + rng.Intn(14)
			nodes := make([]model.ID, n)
			for i := range nodes {
				nodes[i] = model.ID(1 + rng.Intn(1<<20))
				g.AddNode(nodes[i])
			}
			p := rng.Float64() * 0.5
			for _, u := range nodes {
				for _, w := range nodes {
					if rng.Float64() < p {
						g.AddEdge(u, w)
					}
				}
			}
		}
		if trial%8 < 2 {
			// Damage a planted graph: drop one node's out-edges but one.
			nodes := g.Nodes()
			u := nodes[rng.Intn(len(nodes))]
			for _, w := range g.Out(u)[1:] {
				g.adj[u].Remove(w)
			}
		}
		if g.UndirectedConnected() != undirectedConnectedByMaps(g) {
			t.Fatalf("trial %d: UndirectedConnected = %v, the map walk disagrees\n%s", trial, g.UndirectedConnected(), g)
		}
		for k := 1; k <= 3; k++ {
			got, want := CheckKOSR(g, k), checkKOSRByDigraph(g, k)
			if got.OK != want.OK || got.K != want.K || got.Reason != want.Reason ||
				got.SinkConnectivity != want.SinkConnectivity || !got.Sink.Equal(want.Sink) || (got.Sink == nil) != (want.Sink == nil) {
				t.Fatalf("trial %d k=%d:\n  dense:   %+v\n  digraph: %+v\n%s", trial, k, got, want, g)
			}
			switch {
			case got.OK && got.Sink.Len() == 1:
				exits["ok, singleton sink"]++
			case got.OK:
				exits["ok"]++
			default:
				exits[strings.Fields(got.Reason)[0]]++
			}
			if got.OK || strings.HasPrefix(got.Reason, "fewer") {
				fanRoutes(g, got.Sink, k, exits)
			}
		}
	}
	for _, exit := range []string{"ok", "ok, singleton sink", "undirected", "condensation", "sink", "fewer",
		"fan: exit 3", "fan: flow", "no fan: pairs hold", "no fan: pairs fail"} {
		if exits[exit] == 0 {
			t.Fatalf("no graph left the checker through %q: %v", exit, exits)
		}
	}
	t.Logf("exits: %v", exits)
}

// TestCheckKOSRFanInFlows pins what CheckKOSR's fan-in condition costs over
// seeds 1–20: the flows it runs (CheckKOSR's flows less those of the sink's κ
// schedule, run alone on a second scratch) and the nodes exit 3 answers. On the
// kosr family of the graph_check workload every outside node points at k sink
// members, so exit 3 answers all 180 of them; on the scale-free family at
// k = 3, 83 of 320 need their fan flow. Every graph passes, so each outside
// node costs one flow or one exit; the counts are deterministic, and a rise
// means the fan stopped answering.
func TestCheckKOSRFanInFlows(t *testing.T) {
	for _, c := range []struct {
		def          string
		k            int // 0: the family's F+1
		flows, exit3 int
	}{
		{"kosr:sink=15,nonsink=9,k=3,extra=0.2", 0, 0, 180},
		{"sf:n=20,m=4", 3, 83, 237},
	} {
		d, err := ParseDef(c.def)
		if err != nil {
			t.Fatal(err)
		}
		var flows, exit3 int
		for seed := int64(1); seed <= 20; seed++ {
			b, err := d.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			k := c.k
			if k == 0 {
				k = b.F + 1
			}
			var sc FlowScratch
			r := sc.CheckKOSR(b.G, k)
			if !r.OK {
				t.Fatalf("%s seed %d: %s", c.def, seed, r.Reason)
			}
			var sched FlowScratch
			sched.Load(b.G)
			set := make([]uint64, sched.adj.words)
			for i, id := range b.G.Nodes() {
				if r.Sink.Has(id) {
					set[i>>6] |= 1 << (i & 63)
				}
			}
			sched.KappaAtLeast(set, k)
			fan, saved := sc.probes-sched.probes, sc.skipped[2]-sched.skipped[2]
			if outside := b.G.NumNodes() - r.Sink.Len(); fan+saved != outside {
				t.Fatalf("%s seed %d: %d flows and %d exits for the fan-in condition of %d outside nodes", c.def, seed, fan, saved, outside)
			}
			flows, exit3 = flows+fan, exit3+saved
		}
		if flows != c.flows || exit3 != c.exit3 {
			t.Fatalf("%s: the fan-in condition ran %d flows, exit 3 answered %d nodes; pinned %d and %d", c.def, flows, exit3, c.flows, c.exit3)
		}
	}
}
