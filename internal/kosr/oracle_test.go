package kosr

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
)

// kosrReasonByPairs is Definition 1 read off the Digraph, condition 4 as one
// bare flow per (outside node, sink member) pair: graph.CheckKOSR's Reason, ""
// when g is k-OSR.
func kosrReasonByPairs(g *graph.Digraph, k int) string {
	if g.NumNodes() == 0 {
		return "empty graph"
	}
	if !g.UndirectedConnected() {
		return "undirected counterpart is not connected"
	}
	sinks := g.Condense().SinkComponents()
	if len(sinks) != 1 {
		return fmt.Sprintf("condensation has %d sink components, want exactly 1", len(sinks))
	}
	sink := sinks[0]
	if !g.Induced(sink).IsKStronglyConnected(k) {
		return fmt.Sprintf("sink component %v is not %d-strongly connected", sink, k)
	}
	if reason := pairsByFlow(g, sink, k, "fewer than %d node-disjoint paths from %v to sink node %v"); reason != "" {
		return reason
	}
	return ""
}

// pairsByFlow runs one bare bounded flow per (node outside targets, target)
// pair, in ascending order, and formats the first pair with fewer than k
// node-disjoint paths into reason (k, the node, the target); "" if none has.
func pairsByFlow(g *graph.Digraph, targets model.IDSet, k int, reason string) string {
	var flow graph.FlowScratch
	flow.Load(g)
	for _, u := range g.Nodes() {
		if targets.Has(u) {
			continue
		}
		for _, w := range targets.Sorted() {
			if flow.MaxNodeDisjointPaths(u, w, k) < k {
				return fmt.Sprintf(reason, k, u, w)
			}
		}
	}
	return ""
}

// sinkLevel lists a view's sinks at g on a searcher, fully settled and sorted
// by S1, and whether the list is exhaustive: (*Searcher).SinksAtGExact, or
// testKappa's level, which settles P2 on the test side.
type sinkLevel func(se *Searcher, v *View, g int) ([]Candidate, bool)

// checkExtendedKOSRByPairs is CheckExtendedKOSR as it ran before its verdict
// stopped at the core's level and C2 ran one fan per node: C1 over the sinks
// of every g, taken straight off the fully settled levels and keyed by S1 ∪ S2,
// and C2 as one bare flow per (non-core node, core member) pair. Its Exact
// covers every g.
func checkExtendedKOSRByPairs(gdi *graph.Digraph, k int, level sinkLevel) ExtendedReport {
	r := ExtendedReport{K: k, Exact: true}
	if reason := kosrReasonByPairs(gdi, k); reason != "" {
		r.Reason = "not k-OSR: " + reason
		return r
	}
	v := FullView(gdi)
	se := NewSearcher()
	fg := make(map[string]int)
	members := make(map[string]model.IDSet)
	for g := v.MaxG(); g >= 0; g-- {
		cands, exact := level(se, v, g)
		r.Exact = r.Exact && exact
		for _, c := range cands {
			set := c.S1.Union(c.S2)
			if _, seen := fg[set.Key()]; !seen {
				fg[set.Key()], members[set.Key()] = g, set
			}
		}
	}
	if len(fg) == 0 {
		r.Reason = "no sink satisfies isSink* in the full view"
		return r
	}
	keys := make([]string, 0, len(fg))
	for key := range fg {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	best, bestCount := -1, 0
	var core model.IDSet
	for _, key := range keys {
		switch {
		case fg[key] > best:
			best, bestCount, core = fg[key], 1, members[key]
		case fg[key] == best:
			bestCount++
		}
	}
	if bestCount != 1 {
		r.Reason = fmt.Sprintf("C1 fails: %d distinct sinks share the maximum connectivity %d", bestCount, best+1)
		return r
	}
	r.Core, r.FG = core, best
	if best+1 < k {
		r.Reason = fmt.Sprintf("core connectivity %d below k=%d", best+1, k)
		return r
	}
	if reason := pairsByFlow(gdi, core, best+1, "C2 fails: fewer than %d node-disjoint paths from %v to core node %v"); reason != "" {
		r.Reason = reason
		return r
	}
	r.OK = true
	return r
}

// checkBFTCUPFTByPairs is CheckBFTCUPFT on checkExtendedKOSRByPairs.
func checkBFTCUPFTByPairs(gdi *graph.Digraph, byz model.IDSet, f int, level sinkLevel) BFTCUPFTReport {
	r := BFTCUPFTReport{F: f}
	if byz.Len() > f {
		r.Reason = fmt.Sprintf("%d Byzantine nodes exceed fault threshold f=%d", byz.Len(), f)
		return r
	}
	ext := checkExtendedKOSRByPairs(gdi.Without(byz), f+1, level)
	if !ext.OK {
		r.Reason = "safe subgraph not extended (f+1)-OSR: " + ext.Reason
		return r
	}
	if ext.Core.Len() < 2*f+1 {
		r.Reason = fmt.Sprintf("core of safe subgraph has %d processes, want ≥ %d", ext.Core.Len(), 2*f+1)
		return r
	}
	r.OK, r.Core, r.FG = true, ext.Core, ext.FG
	return r
}

// oracleDefs are graph_check's five families and smaller variants of each.
var oracleDefs = append(slices.Clone(graphCheckDefs),
	"kosr:sink=7,nonsink=4,k=2,extra=0.2",
	"kosr:sink=5,nonsink=3,k=2,extra=0.15",
	"extended:core=5,noncore=3,extra=0.2",
	"extended:core=7,noncore=4,extra=0.3",
	"er:n=12,p=0.3",
	"er:n=10,p=0.5",
	"geo:n=12,r=0.5",
	"sf:n=12,m=3",
	"sf:n=10,m=2",
)

// TestCheckExtendedKOSRMatchesPairOracle holds CheckExtendedKOSR and
// CheckBFTCUPFT to the pair-loop oracles above, report for report: every
// figure at k = 1…4 and f = 0…3, and 14 defs (graph_check's five and smaller
// variants) × seeds 1–60 × the Byzantine prefixes {}, {p_1}, {p_1, p_2} of
// the graph's nodes, at k ∈ {1, 2, 3, F+1} and f ∈ {|byz|, F}. Exact may only
// be stricter in the oracle, which searches every g.
func TestCheckExtendedKOSRMatchesPairOracle(t *testing.T) {
	outcomes := map[string]int{}
	ext := func(tag string, g *graph.Digraph, k int) {
		got, want := CheckExtendedKOSR(g, k), checkExtendedKOSRByPairs(g, k, (*Searcher).SinksAtGExact)
		if got.OK != want.OK || got.K != want.K || !got.Core.Equal(want.Core) || got.FG != want.FG ||
			got.Reason != want.Reason || want.Exact && !got.Exact {
			t.Fatalf("%s k=%d:\n  got:    %+v\n  oracle: %+v\n%s", tag, k, got, want, g)
		}
		switch {
		case got.OK:
			outcomes["ok"]++
		default:
			outcomes[strings.Join(strings.Fields(got.Reason)[:2], " ")]++
		}
	}
	ft := func(tag string, g *graph.Digraph, byz model.IDSet, f int) {
		got, want := CheckBFTCUPFT(g, byz, f), checkBFTCUPFTByPairs(g, byz, f, (*Searcher).SinksAtGExact)
		if got.OK != want.OK || got.F != want.F || !got.Core.Equal(want.Core) || got.FG != want.FG || got.Reason != want.Reason {
			t.Fatalf("%s byz=%v f=%d:\n  got:    %+v\n  oracle: %+v\n%s", tag, byz, f, got, want, g)
		}
	}
	for _, fig := range graph.AllFigures() {
		for k := 1; k <= 4; k++ {
			ext(fig.Name, fig.G, k)
		}
		for f := 0; f <= 3; f++ {
			ft(fig.Name, fig.G, fig.Byz, f)
		}
	}
	for _, s := range oracleDefs {
		d, err := graph.ParseDef(s)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 60; seed++ {
			b, err := d.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p <= 2; p++ {
				byz := model.NewIDSet(b.G.Nodes()[:p]...)
				safe := b.G.Without(byz)
				tag := fmt.Sprintf("%s seed %d byz %v", s, seed, byz)
				ks, fs := []int{1, 2, 3}, []int{p}
				if b.F+1 > 3 {
					ks = append(ks, b.F+1)
				}
				if b.F != p {
					fs = append(fs, b.F)
				}
				for _, k := range ks {
					ext(tag, safe, k)
				}
				for _, f := range fs {
					ft(tag, b.G, byz, f)
				}
			}
		}
	}
	for _, outcome := range []string{"ok", "C1 fails:", "C2 fails:", "not k-OSR:"} {
		if outcomes[outcome] == 0 {
			t.Fatalf("no report reached %q: %v", outcome, outcomes)
		}
	}
	t.Logf("outcomes: %v", outcomes)
}

// s2ShortcutGraph is a core whose S2 is a detour back into one S1 member:
// S1 = {p1,p2,p3} a triangle (g = 1), S2 = {p4}, which p1 and p2 point at and
// which points only at p1, and p5 outside pointing at p1 and p4. p5 has two
// paths ending at distinct core members, but both pass p1 on the way to p2 —
// a fan into S1 ∪ S2 is no proof of C2, a fan into S1 is.
func s2ShortcutGraph() *graph.Digraph {
	g := graph.New()
	for _, e := range [][2]model.ID{{1, 2}, {2, 1}, {1, 3}, {3, 1}, {2, 3}, {3, 2}, {1, 4}, {2, 4}, {4, 1}, {5, 1}, {5, 4}} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// TestC2FanIntoS1 pins that C2's fan runs into the core candidate's S1 only:
// on s2ShortcutGraph the core is {p1,p2,p3,p4} at f_G = 1, and C2 must fail
// for p5, which has two node-disjoint paths to p1 and p4 but one to p2.
func TestC2FanIntoS1(t *testing.T) {
	g := s2ShortcutGraph()
	r, want := CheckExtendedKOSR(g, 1), checkExtendedKOSRByPairs(g, 1, (*Searcher).SinksAtGExact)
	const reason = "C2 fails: fewer than 2 node-disjoint paths from p5 to core node p2"
	if r.OK || r.Reason != reason || !r.Core.Equal(ids(1, 2, 3, 4)) || r.FG != 1 || want.Reason != reason {
		t.Fatalf("report %+v, oracle %+v; want C2 to fail with %q", r, want, reason)
	}
}
