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
// a sign the caller wants Monte Carlo placement sampling (parked in ROADMAP),
// and the search fails loudly rather than silently truncating the enumeration.
const WorstEnumLimit = 1 << 20

// WorstPlacement grades the f-subsets of g's processes and returns the one
// with the minimal margin; among equally bad subsets the lexicographically
// smallest (by sorted member list) wins, which makes the placement — and
// every sweep fingerprint built on it — deterministic.
//
// All subsets share one Searcher: every per-subset view draws its records
// from the same immutable record universe (owner u always advertises
// OutSet(u); views differ only in which records are present), which is
// exactly the workload Searcher.RebindPreserving keeps the content-keyed
// memos valid for. A component that reappears across subsets — the common
// case, since removing f records leaves most of the graph untouched — reuses
// its candidate list and κ verdicts verbatim. And most subsets are never
// searched at all: see witnesses.
func WorstPlacement(g *graph.Digraph, f int) (Placement, error) {
	p, _, err := worstPlacement(g, f)
	return p, err
}

// worstPlacement is WorstPlacement plus the number of subsets it searched,
// which the tests and the benchmark pin.
func worstPlacement(g *graph.Digraph, f int) (best Placement, graded int, err error) {
	nodes := g.Nodes()
	n := len(nodes)
	if f < 0 {
		return Placement{}, 0, fmt.Errorf("kosr: worst placement needs f ≥ 0, got %d", f)
	}
	if f > n {
		return Placement{}, 0, fmt.Errorf("kosr: worst placement of %d processes in a %d-process graph", f, n)
	}
	total := binomial(n, f)
	if total < 0 || total > WorstEnumLimit {
		return Placement{}, 0, fmt.Errorf("kosr: worst placement C(%d,%d) exceeds the enumeration cap %d", n, f, WorstEnumLimit)
	}

	v := borrowedView(g)
	se := NewSearcher()
	byz := model.NewIDSet()
	best.Margin = int(^uint(0) >> 1) // +Inf until the first grade
	// Nothing is set up for the filter until a first subset has been graded
	// without ending the search: the families that exit at once pay nothing.
	var wit *witnesses
	forEachCombination(n, f, func(idx []int) bool {
		if wit != nil && wit.clears(idx) {
			return false
		}
		clear(byz)
		for _, i := range idx {
			byz.Add(nodes[i])
		}
		m, cands := placementMargin(se, g, v, byz)
		graded++
		if m < best.Margin {
			best = Placement{Byz: byz.Clone(), Margin: m}
		}
		if m == -1 {
			// -1 is the global minimum, and the lexicographic enumeration order
			// makes the first achiever the canonical one — stop early.
			return true
		}
		if graded == 1 && total > 1 {
			wit = newWitnesses(se, v, nodes)
		}
		if wit != nil {
			wit.record(cands)
		}
		return false
	})
	return best, graded, nil
}

// witnesses is the filter in front of the per-subset search: the S1 of every
// candidate a graded subset was left with at its margin, as bitsets over the
// searcher's interned indices. P1–P3 of isSink read nothing but S1's own
// records, so such an S1 is a candidate, at the same g, in the view of every
// subset that takes none of its members out — and an exhaustive search of
// that view finds it. A subset disjoint from a witness therefore has a margin
// no lower than the witness's level, which is the margin of a graded subset
// and so no lower than the best so far (the best is the minimum over those):
// under the strict-< tie-break it can neither replace the best nor be the -1
// early exit, and it is skipped unsearched.
type witnesses struct {
	index []int32  // nodes[i]'s interned index
	byz   []uint64 // the subset under test; its length is every bitset's width
	sets  []uint64 // the recorded S1s, back to back
}

// newWitnesses arms the filter, or returns nil where it would not be exact:
// "a search of the view finds it" holds only while every component is
// enumerated exhaustively, that is while none exceeds ExactLimit. The full
// view's largest component bounds those of every view with records taken out
// (the received graph only loses nodes), so this is decided once, from the
// input. Decomposing the full view (v between gradings) also interns every
// process, which fixes the bitset width. The candidates of the grading before
// it, slices of the searcher's pair scratch, are not touched by it.
func newWitnesses(se *Searcher, v *View, nodes []model.ID) *witnesses {
	se.RebindPreserving(v)
	if se.largestComponent(v) > ExactLimit {
		return nil
	}
	w := &witnesses{index: make([]int32, len(nodes)), byz: make([]uint64, (len(se.procs)+63)/64)}
	for i, u := range nodes {
		w.index[i] = se.internID(u)
	}
	return w
}

// record files the candidates a graded subset was left with at its margin.
// None is filed twice: each is disjoint from the subset just graded, which
// would have been skipped had the candidate been a witness already.
func (w *witnesses) record(cands []cachedCand) {
	for _, c := range cands {
		at := len(w.sets)
		w.sets = append(w.sets, make([]uint64, len(w.byz))...)
		set := w.sets[at:]
		for _, m := range c.s1 {
			set[m>>6] |= 1 << (m & 63)
		}
	}
}

// clears reports whether some witness survives the subset given as positions
// in nodes.
func (w *witnesses) clears(idx []int) bool {
	clear(w.byz)
	for _, i := range idx {
		m := w.index[i]
		w.byz[m>>6] |= 1 << (m & 63)
	}
sets:
	for at := 0; at < len(w.sets); at += len(w.byz) {
		for j, word := range w.byz {
			if w.sets[at+j]&word != 0 {
				continue sets
			}
		}
		return true
	}
	return false
}

// placementMargin runs the Core search's g sweep on the shared searcher over
// the correct-only view for one Byzantine subset, and returns with the margin
// the candidates found at it (in the searcher's pair scratch: valid until its
// next search). That view copies nothing: it is v, g's borrowed full view,
// with the subset's records taken out for the length of the call. Known stays
// whole — it is placement-independent: correct processes eventually hear of
// every process, Byzantine ones included, because correct PDs point at them.
func placementMargin(se *Searcher, g *graph.Digraph, v *View, byz model.IDSet) (int, []cachedCand) {
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
			return margin, cands
		}
	}
	return -1, nil
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
