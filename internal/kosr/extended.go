package kosr

import (
	"fmt"
	"slices"

	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
)

// ExtendedReport is the verdict of CheckExtendedKOSR.
type ExtendedReport struct {
	// OK reports membership in extended k-OSR PD; K echoes the checked k.
	OK   bool
	K    int
	Core model.IDSet // Vcore when OK
	FG   int         // f_Gdi(Vcore) = k_Gdi(Vcore) - 1
	// Exact reports whether the levels searched were exhaustive: every g from
	// MaxG down to the core's (to 0 when no level yields a sink). SinkSets
	// reports it for every level.
	Exact  bool
	Reason string // empty when OK
}

// SinkInfo describes one sink set of a graph's full view.
type SinkInfo struct {
	// Members is the sink set S1 ∪ S2; FG its fault capacity f_G, the largest g
	// at which isSink* accepts it.
	Members model.IDSet
	FG      int
}

// levelSink is one distinct sink set S1 ∪ S2 of one level of the sweep
// (ascending, key its model.AppendKey), with the S1 of the first candidate
// that yields it.
type levelSink struct {
	key     string
	members []model.ID
	s1      []model.ID
}

// sweep is the g-sweep of gdi's full view that CheckExtendedKOSR and SinkSets
// share: g descends from MaxG on one Searcher, whose κ and out-target memos
// serve every level, and each level's distinct sink sets, in candidate order,
// go to level until it returns false. It reports whether every level
// searched was exhaustive.
func sweep(gdi *graph.Digraph, level func(g int, sinks []levelSink) bool) (exact bool) {
	v := borrowedView(gdi)
	se := NewSearcher()
	exact = true
	seen := make(map[string]bool)
	var sinks []levelSink
	var members []model.ID
	var keyBuf []byte
	for g := v.MaxG(); g >= 0; g-- {
		cands, ex := se.collect(v, g)
		exact = exact && ex
		sinks = sinks[:0]
		clear(seen)
		for _, c := range cands {
			members = se.members(v, g, c, members[:0])
			keyBuf = model.AppendKey(keyBuf[:0], members)
			if seen[string(keyBuf)] {
				continue
			}
			key := string(keyBuf)
			seen[key] = true
			s1 := make([]model.ID, len(c.s1))
			for i, m := range c.s1 {
				s1[i] = se.procs[m].id
			}
			sinks = append(sinks, levelSink{key: key, members: slices.Clone(members), s1: s1})
		}
		if !level(g, sinks) {
			break
		}
	}
	return exact
}

// SinkSets is the catalogue of gdi's sinks: every distinct set S1 ∪ S2 that
// isSink* accepts at some g in the full view, ascending by key, and whether
// the search was exhaustive at every g. No verdict reads it —
// CheckExtendedKOSR stops at the core's level — it is for diagnostics.
func SinkSets(gdi *graph.Digraph) (sinks []SinkInfo, exact bool) {
	byKey := make(map[string]SinkInfo)
	var keys []string
	exact = sweep(gdi, func(g int, level []levelSink) bool {
		for _, s := range level {
			// g descends, so a set's first sighting carries its largest g.
			if _, ok := byKey[s.key]; !ok {
				keys = append(keys, s.key)
				byKey[s.key] = SinkInfo{Members: model.NewIDSet(s.members...), FG: g}
			}
		}
		return true
	})
	slices.Sort(keys)
	for _, key := range keys {
		sinks = append(sinks, byKey[key])
	}
	return sinks, exact
}

// CheckExtendedKOSR verifies Definition 2 (extended k-OSR PD) for g:
// the graph belongs to k-OSR PD, and there is a core — a sink with strictly
// maximum connectivity among all sinks (C1) — reachable from every non-core
// node through k_Gdi(Vcore) node-disjoint paths (C2).
func CheckExtendedKOSR(gdi *graph.Digraph, k int) ExtendedReport {
	r := ExtendedReport{K: k, Exact: true}
	// One snapshot of gdi serves the base check and C2's probes.
	var flow graph.FlowScratch
	base := flow.CheckKOSR(gdi, k)
	if !base.OK {
		r.Reason = "not k-OSR: " + base.Reason
		return r
	}
	// C1 is read at the first g from the top that yields a sink: every set
	// found there has f_G = g, and a set first found lower has a lower f_G.
	var top []levelSink
	best := -1
	r.Exact = sweep(gdi, func(g int, sinks []levelSink) bool {
		best, top = g, sinks
		return len(sinks) == 0
	})
	switch {
	case len(top) == 0:
		r.Reason = "no sink satisfies isSink* in the full view"
		return r
	case len(top) != 1:
		r.Reason = fmt.Sprintf("C1 fails: %d distinct sinks share the maximum connectivity %d", len(top), best+1)
		return r
	}
	core := top[0]
	r.Core, r.FG = model.NewIDSet(core.members...), best
	// C1 also requires k_Gdi(Vcore) ≥ k (the paper derives this from the
	// graph being k-OSR; verify it anyway).
	if best+1 < k {
		r.Reason = fmt.Sprintf("core connectivity %d below k=%d", best+1, k)
		return r
	}
	// C2: every non-core node reaches every core node through k_Gdi(Vcore)
	// node-disjoint paths. G[S1] is k_Gdi(Vcore)-strongly connected and every
	// S2 member has that many in-neighbours in S1, so one fan into S1 per node
	// decides it (FlowScratch.HasKFan); a node whose fan fails is probed pair
	// by pair, which names the Reason.
	kCore := best + 1
	for _, u := range gdi.Nodes() {
		if r.Core.Has(u) || flow.HasKFan(u, core.s1, kCore) {
			continue
		}
		for _, w := range core.members {
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
