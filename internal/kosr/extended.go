package kosr

import (
	"fmt"
	"sort"

	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
)

// ExtendedReport is the verdict of CheckExtendedKOSR.
type ExtendedReport struct {
	// OK reports membership in extended k-OSR PD; K echoes the checked k.
	OK     bool
	K      int
	Core   model.IDSet // Vcore when OK
	FG     int         // f_Gdi(Vcore) = k_Gdi(Vcore) - 1
	Exact  bool        // whether sink enumeration was exhaustive
	Reason string      // empty when OK
	// Sinks lists every distinct sink set found, with its f_G, for
	// diagnostics and the experiments' tables.
	Sinks []SinkInfo
}

// SinkInfo describes one sink set found during extended-k-OSR checking.
type SinkInfo struct {
	// Members is the sink set; FG its fault capacity f_G.
	Members model.IDSet
	FG      int
}

// CheckExtendedKOSR verifies Definition 2 (extended k-OSR PD) for g:
// the graph belongs to k-OSR PD, and there is a core — a sink with strictly
// maximum connectivity among all sinks (C1) — reachable from every non-core
// node through k_Gdi(Vcore) node-disjoint paths (C2).
func CheckExtendedKOSR(gdi *graph.Digraph, k int) ExtendedReport {
	r := ExtendedReport{K: k, Exact: true}
	// One snapshot of gdi serves the base check and C2's pair probes.
	var flow graph.FlowScratch
	base := flow.CheckKOSR(gdi, k)
	if !base.OK {
		r.Reason = "not k-OSR: " + base.Reason
		return r
	}
	v := borrowedView(gdi)
	// Enumerate every sink set at every g, straight off the searcher's
	// candidate lists: a set is keyed by its merged member slice, and a
	// model.IDSet is built once per distinct set. g descends, so a set's first
	// sighting carries its largest g. One Searcher shares the κ/out-target
	// verdict memos across the whole sweep.
	se := NewSearcher()
	sinks := make(map[string]SinkInfo)
	var keys []string
	var members []model.ID
	var keyBuf []byte
	for g := v.MaxG(); g >= 0; g-- {
		cands, exact := se.collect(v, g)
		if !exact {
			r.Exact = false
		}
		for _, c := range cands {
			members = se.members(v, g, c, members[:0])
			keyBuf = model.AppendKey(keyBuf[:0], members)
			if _, seen := sinks[string(keyBuf)]; !seen {
				key := string(keyBuf)
				keys = append(keys, key)
				sinks[key] = SinkInfo{Members: model.NewIDSet(members...), FG: g}
			}
		}
	}
	if len(sinks) == 0 {
		r.Reason = "no sink satisfies isSink* in the full view"
		return r
	}
	sort.Strings(keys)
	for _, key := range keys {
		r.Sinks = append(r.Sinks, sinks[key])
	}
	// C1: a unique sink of strictly maximum connectivity.
	best, bestCount := -1, 0
	var core model.IDSet
	for _, s := range r.Sinks {
		switch {
		case s.FG > best:
			best, bestCount, core = s.FG, 1, s.Members
		case s.FG == best:
			bestCount++
		}
	}
	if bestCount != 1 {
		r.Reason = fmt.Sprintf("C1 fails: %d distinct sinks share the maximum connectivity %d", bestCount, best+1)
		return r
	}
	r.Core, r.FG = core, best
	// C1 also requires k_Gdi(Vcore) ≥ k (the paper derives this from the
	// graph being k-OSR; verify it anyway).
	if best+1 < k {
		r.Reason = fmt.Sprintf("core connectivity %d below k=%d", best+1, k)
		return r
	}
	// C2: every non-core node reaches every core node through k_Gdi(Vcore)
	// node-disjoint paths.
	kCore := best + 1
	coreNodes := core.Sorted()
	for _, u := range gdi.Nodes() {
		if core.Has(u) {
			continue
		}
		for _, w := range coreNodes {
			if !flow.HasKDisjointPaths(u, w, kCore) {
				r.Reason = fmt.Sprintf("C2 fails: fewer than %d node-disjoint paths from %v to core node %v", kCore, u, w)
				return r
			}
		}
	}
	r.OK = true
	return r
}

// BFTCUPFTReport is the verdict of CheckBFTCUPFT.
type BFTCUPFTReport struct {
	// OK reports whether the BFT-CUPFT requirements hold; F echoes the
	// actual Byzantine count the safe subgraph was computed with.
	OK   bool
	F    int
	Core model.IDSet // core of the safe subgraph
	// FG is the core's fault capacity f_G; Reason is empty when OK.
	FG     int
	Reason string
}

// CheckBFTCUPFT verifies the BFT-CUPFT model requirements (Section V): the
// safe subgraph belongs to extended (f+1)-OSR PD and its core contains at
// least 2f+1 processes.
func CheckBFTCUPFT(gdi *graph.Digraph, byz model.IDSet, f int) BFTCUPFTReport {
	r := BFTCUPFTReport{F: f}
	if byz.Len() > f {
		r.Reason = fmt.Sprintf("%d Byzantine nodes exceed fault threshold f=%d", byz.Len(), f)
		return r
	}
	safe := gdi
	if byz.Len() > 0 {
		safe = gdi.Without(byz)
	}
	ext := CheckExtendedKOSR(safe, f+1)
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
