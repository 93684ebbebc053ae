package kosr

import (
	"fmt"

	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
)

// Worst-case Byzantine placement search. The paper's knowledge-connectivity
// conditions are adversarial statements — a graph solves BFT-CUP when the
// sink survives *every* f-subset of faulty processes, not an average one — so
// a sweep that fixes the placement (tail, sink) measures a best case the
// theorems never promise. WorstPlacement closes that gap: it enumerates the
// f-subsets, grades each by the knowledge margin the correct processes are
// left with, and returns the placement an optimal adversary would pick.

// Placement is one graded Byzantine placement.
type Placement struct {
	// Byz is the Byzantine subset.
	Byz model.IDSet
	// Margin is the largest g at which the correct-only view (every process
	// known, PDs present only for the non-Byzantine processes) still contains
	// a sink — what Algorithm 4's Core search would adopt. -1 means no sink
	// survives at any g: the placement denies the committee entirely.
	Margin int
}

// WorstEnumLimit caps the number of f-subsets WorstPlacement enumerates.
// Sweep graphs are small (n ≤ ~20, f ≤ 3), far below the cap; hitting it is
// a sign the caller wants the probabilistic machinery of ROADMAP item 3, and
// the search fails loudly rather than silently truncating the enumeration.
const WorstEnumLimit = 1 << 20

// WorstPlacement grades every f-subset of g's processes and returns the one
// with the minimal margin; among equally bad subsets the lexicographically
// smallest (by sorted member list) wins, which makes the placement — and
// every sweep fingerprint built on it — deterministic.
//
// The enumeration is cheap because all subsets share one Searcher: every
// per-subset view draws its records from the same immutable record universe
// (owner u always advertises OutSet(u); views differ only in which records
// are present), which is exactly the workload Searcher.RebindPreserving keeps
// the content-keyed memos valid for. A component that reappears across
// subsets — the common case, since removing f records leaves most of the
// graph untouched — reuses its candidate list and κ verdicts verbatim.
func WorstPlacement(g *graph.Digraph, f int) (Placement, error) {
	nodes := g.Nodes()
	n := len(nodes)
	if f < 0 {
		return Placement{}, fmt.Errorf("kosr: worst placement needs f ≥ 0, got %d", f)
	}
	if f > n {
		return Placement{}, fmt.Errorf("kosr: worst placement of %d processes in a %d-process graph", f, n)
	}
	if c := binomial(n, f); c < 0 || c > WorstEnumLimit {
		return Placement{}, fmt.Errorf("kosr: worst placement C(%d,%d) exceeds the enumeration cap %d", n, f, WorstEnumLimit)
	}

	v := borrowedView(g)
	se := NewSearcher()
	byz := model.NewIDSet()
	best := Placement{Margin: int(^uint(0) >> 1)} // +Inf until the first grade
	forEachCombination(n, f, func(idx []int) bool {
		clear(byz)
		for _, i := range idx {
			byz.Add(nodes[i])
		}
		m := placementMargin(se, g, v, byz)
		if m < best.Margin {
			best = Placement{Byz: byz.Clone(), Margin: m}
		}
		// -1 is the global minimum, and the lexicographic enumeration order
		// makes the first achiever the canonical one — stop early.
		return m == -1
	})
	return best, nil
}

// PlacementMargin grades one concrete Byzantine subset: the largest g at
// which the correct-only view still contains a sink (-1 when none does). It
// is the per-subset quantity WorstPlacement minimizes, exported so sweeps and
// tests can grade fixed placements (tail, sink) on the same scale.
func PlacementMargin(g *graph.Digraph, byz model.IDSet) int {
	return placementMargin(NewSearcher(), g, borrowedView(g), byz)
}

// placementMargin runs the Core search's g sweep on the shared searcher over
// the correct-only view for one Byzantine subset. That view copies nothing:
// it is v, g's borrowed full view, with the subset's records taken out for
// the length of the call. Known stays whole — it is placement-independent:
// correct processes eventually hear of every process, Byzantine ones
// included, because correct PDs point at them.
func placementMargin(se *Searcher, g *graph.Digraph, v *View, byz model.IDSet) int {
	for u := range byz {
		delete(v.PD, u)
	}
	defer func() {
		for u := range byz {
			if g.HasNode(u) {
				v.PD[u] = g.OutSet(u)
			}
		}
	}()
	se.RebindPreserving(v)
	for margin := v.MaxG(); margin >= 0; margin-- {
		if cands, _ := se.collect(v, margin); len(cands) > 0 {
			return margin
		}
	}
	return -1
}

// binomial returns C(n, k), or -1 on overflow past WorstEnumLimit·2³².
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
		if c < 0 || c > WorstEnumLimit<<32 {
			return -1
		}
	}
	return c
}

// forEachCombination yields every k-combination of {0,…,n-1} in lexicographic
// order until the callback returns true.
func forEachCombination(n, k int, yield func(idx []int) bool) {
	if k == 0 {
		yield(nil)
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		if yield(idx) {
			return
		}
		// Advance: find the rightmost index that can still move.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
