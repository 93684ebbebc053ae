package graph

import (
	"fmt"

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
func CheckKOSR(g *Digraph, k int) KOSRReport {
	r := KOSRReport{K: k}
	if g.NumNodes() == 0 {
		r.Reason = "empty graph"
		return r
	}
	if !g.UndirectedConnected() {
		r.Reason = "undirected counterpart is not connected"
		return r
	}
	sinks := g.Condense().SinkComponents()
	if len(sinks) != 1 {
		r.Reason = fmt.Sprintf("condensation has %d sink components, want exactly 1", len(sinks))
		return r
	}
	r.Sink = sinks[0]
	sinkGraph := g.Induced(r.Sink)
	if !sinkGraph.IsKStronglyConnected(k) {
		r.Reason = fmt.Sprintf("sink component %v is not %d-strongly connected", r.Sink, k)
		return r
	}
	if r.Sink.Len() == 1 {
		r.SinkConnectivity = InfiniteConnectivity
	} else {
		r.SinkConnectivity = k
	}
	// The fan-in condition probes |non-sink| × |sink| pairs on one graph:
	// load the split-graph residual template once and reuse it per pair.
	var flow FlowScratch
	flow.Load(g)
	for _, u := range g.Nodes() {
		if r.Sink.Has(u) {
			continue
		}
		for _, v := range r.Sink.Sorted() {
			if !flow.HasKDisjointPaths(u, v, k) {
				r.Reason = fmt.Sprintf("fewer than %d node-disjoint paths from %v to sink node %v", k, u, v)
				return r
			}
		}
	}
	r.OK = true
	return r
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
	safe := gdi.Without(byz)
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
