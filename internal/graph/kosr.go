package graph

import (
	"fmt"
	"slices"

	"github.com/bftcup/bftcup/internal/model"
)

// KOSRReport explains why a graph does or does not belong to k-OSR PD.
type KOSRReport struct {
	// OK reports membership in k-OSR PD; K echoes the k that was checked.
	OK               bool
	K                int
	Sink             model.IDSet // the unique sink component, when it exists
	Reason           string      // empty when OK
	SinkConnectivity int         // κ(G[sink]) actually verified (≥ K when OK)
}

// CheckKOSR verifies Definition 1 (k-One Sink Reducibility) for g:
//
//  1. the undirected counterpart of g is connected;
//  2. the condensation of g has exactly one sink component;
//  3. the sink component is k-strongly connected;
//  4. from every node outside the sink there are ≥ k node-disjoint paths to
//     every sink node.
//
// All four run in row-index space on the one snapshot FlowScratch.Load takes
// (nodes in ascending-ID order): no subgraph is built, and the only set made
// is the report's Sink.
func CheckKOSR(g *Digraph, k int) KOSRReport {
	var flow FlowScratch
	return flow.CheckKOSR(g, k)
}

// CheckKOSR is the package-level CheckKOSR on the caller's scratch, which it
// leaves loaded with g (an empty g aside) for the caller's own probes.
func (sc *FlowScratch) CheckKOSR(g *Digraph, k int) KOSRReport {
	r := KOSRReport{K: k}
	if g.NumNodes() == 0 {
		r.Reason = "empty graph"
		return r
	}
	sc.Load(g)
	ids := sc.adj.IDs()
	start, adj := sc.adj.csr()
	if !undirectedConnected(start, adj) {
		r.Reason = "undirected counterpart is not connected"
		return r
	}
	sinks := sinkComponents(start, adj)
	if len(sinks) != 1 {
		r.Reason = fmt.Sprintf("condensation has %d sink components, want exactly 1", len(sinks))
		return r
	}
	sink := sinks[0]
	r.Sink = make(model.IDSet, len(sink))
	for _, i := range sink {
		r.Sink.Add(ids[i])
	}
	// No edge leaves a sink component, which is what lets the κ schedule run
	// on the whole graph's rows.
	if !sc.kStrong(sink, k) {
		r.Reason = fmt.Sprintf("sink component %v is not %d-strongly connected", r.Sink, k)
		return r
	}
	if len(sink) == 1 {
		r.SinkConnectivity = InfiniteConnectivity
	} else {
		r.SinkConnectivity = k
	}
	// The fan-in condition: the sink is k-strongly connected, so one k-fan into
	// it per outside node decides it (HasKFan). A node whose fan fails is
	// probed pair by pair, which names the Reason and covers a sink of fewer
	// than k members, where no fan fits.
	set := sc.sets[:sc.adj.words]
	clear(set)
	for _, i := range sink {
		set[i>>6] |= 1 << (i & 63)
	}
	for u, id := range ids {
		if k <= 0 || r.Sink.Has(id) || sc.fanHolds(u, set, k) {
			continue
		}
		for _, v := range sink {
			if !sc.pairHolds(u, int(v), k) {
				r.Reason = fmt.Sprintf("fewer than %d node-disjoint paths from %v to sink node %v", k, id, ids[v])
				return r
			}
		}
	}
	r.OK = true
	return r
}

// undirectedConnected reports whether the undirected counterpart of a graph
// in CSR form is connected: union-find over its edges.
func undirectedConnected(start, adj []int32) bool {
	parent := make([]int32, len(start)-1)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	comps := len(parent)
	for u := range parent {
		for _, w := range adj[start[u]:start[u+1]] {
			if a, b := find(int32(u)), find(w); a != b {
				parent[a] = b
				comps--
			}
		}
	}
	return comps <= 1
}

// sinkComponents returns, each as ascending indices, the strongly connected
// components of a graph in CSR form that no edge leaves — the sinks of its
// condensation — in Tarjan's emission order.
func sinkComponents(start, adj []int32) [][]int32 {
	var t Tarjan
	n := t.Run(start, adj)
	compOf := make([]int, len(start)-1)
	for c := 0; c < n; c++ {
		for _, u := range t.Comp(c) {
			compOf[u] = c
		}
	}
	var sinks [][]int32
comps:
	for c := 0; c < n; c++ {
		for _, u := range t.Comp(c) {
			for _, w := range adj[start[u]:start[u+1]] {
				if compOf[w] != c {
					continue comps
				}
			}
		}
		sink := slices.Clone(t.Comp(c))
		slices.Sort(sink)
		sinks = append(sinks, sink)
	}
	return sinks
}

// BFTCUPReport is the verdict of CheckBFTCUP.
type BFTCUPReport struct {
	// OK reports whether Theorem 1's requirements hold; F echoes the checked
	// fault threshold.
	OK     bool
	F      int
	Sink   model.IDSet // sink of the safe subgraph, when it exists
	Reason string      // empty when OK
}

// CheckBFTCUP verifies Theorem 1's requirements for solving BFT-CUP: the safe
// subgraph gdi[correct] must belong to (f+1)-OSR PD and its sink must contain
// at least 2f+1 processes. byz is the set of Byzantine nodes (Gsafe = gdi
// without byz).
func CheckBFTCUP(gdi *Digraph, byz model.IDSet, f int) BFTCUPReport {
	r := BFTCUPReport{F: f}
	if byz.Len() > f {
		r.Reason = fmt.Sprintf("%d Byzantine nodes exceed fault threshold f=%d", byz.Len(), f)
		return r
	}
	safe := gdi
	if byz.Len() > 0 {
		safe = gdi.Without(byz)
	}
	osr := CheckKOSR(safe, f+1)
	if !osr.OK {
		r.Reason = "safe subgraph not (f+1)-OSR: " + osr.Reason
		return r
	}
	r.Sink = osr.Sink
	if osr.Sink.Len() < 2*f+1 {
		r.Reason = fmt.Sprintf("sink of safe subgraph has %d processes, want ≥ %d", osr.Sink.Len(), 2*f+1)
		return r
	}
	r.OK = true
	return r
}
