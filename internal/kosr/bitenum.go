package kosr

import (
	"fmt"
	"math/bits"
)

// poolEnum enumerates the S1 candidates of one peeled pool (≤ 64 nodes) in
// dominated-subset-pruned order, replacing the plain 2^n mask walk: subsets
// whose already-forfeited out-targets exceed g, whose remaining members
// cannot reach |S1| ≥ 2g+1, or one of whose members has lost the in/out
// degree κ(G[S1]) ≥ g+1 requires are cut as whole subtrees of the
// include/exclude recursion. Every prune is sound — it only discards subsets
// that fail one of isSink's S1-side checks — so the yielded set is a
// superset of the passing S1 sets and the caller's exact (memoized) checks
// decide membership; the brute-force equivalence tests pin pruned ≡ plain
// mask walk.
//
// State is bitset-native: pool positions are bits of a uint64, adjacency
// within the pool is one word per member, and external out-targets are
// numbered into (at most) 64 index bits so the out-target lower bound is two
// popcounts. When a pool's members reach more than 64 distinct external
// targets the extra ones are dropped from the masks — the bound stays a true
// lower bound, extExact turns false, and yields report it so callers count
// exactly. The zero value is ready; init rebinds it to a new pool.
type poolEnum struct {
	n        int
	g        int
	minSize  int
	adj      [64]uint64 // out-edges within the pool (bit = pool position)
	radj     [64]uint64 // in-edges within the pool
	ext      [64]uint64 // external out-targets (bit = the target's number)
	extExact bool
}

// init binds the enumerator to a pool of len(adj) ≤ 64 members at threshold
// g. adj[i] holds member i's out-edges within the pool (no self bit), ext[i]
// its out-targets outside it; extExact says that every external target got a
// bit.
func (e *poolEnum) init(g int, adj, ext []uint64, extExact bool) {
	n := len(adj)
	if n > 64 {
		panic(fmt.Sprintf("kosr: poolEnum over %d ids (callers must respect ExactLimit=%d; the bitset enumeration caps at 64)", n, ExactLimit))
	}
	e.n, e.g, e.minSize, e.extExact = n, g, 2*g+1, extExact
	copy(e.adj[:], adj)
	copy(e.ext[:], ext)
	clear(e.radj[:n])
	for i := 0; i < n; i++ {
		for row := e.adj[i]; row != 0; row &= row - 1 {
			e.radj[bits.TrailingZeros64(row)] |= 1 << i
		}
	}
}

// run yields every subset (as a mask over pool positions) that survives the
// prunes, with a count of its out-targets: exact when outExact, else a lower
// bound. Yields happen in depth-first include-before-exclude order; callers
// sort their results, so only the yielded *set* matters.
func (e *poolEnum) run(yield func(mask uint64, out int, outExact bool)) {
	if e.n == 0 {
		return
	}
	full := uint64(1)<<e.n - 1
	if e.n == 64 {
		full = ^uint64(0)
	}
	var rec func(pos int, inc, exc, extU, tIn uint64)
	rec = func(pos int, inc, exc, extU, tIn uint64) {
		if pos == e.n {
			if bits.OnesCount64(inc) >= e.minSize {
				yield(inc, bits.OnesCount64(extU)+bits.OnesCount64(tIn&^inc), e.extExact)
			}
			return
		}
		bit := uint64(1) << pos
		undecided := full &^ (inc | exc | (bit<<1 - 1) | bit)
		// Include pos: its external targets and in-pool targets become
		// committed; targets already excluded are forfeited out-targets.
		{
			incN := inc | bit
			extUN := extU | e.ext[pos]
			tInN := tIn | e.adj[pos]
			if bits.OnesCount64(extUN)+bits.OnesCount64(tInN&exc) <= e.g {
				ok := true
				if e.g >= 1 {
					// κ ≥ g+1 needs in/out degree ≥ g+1 inside S1 ⊆ inc ∪
					// undecided (g ≥ 1 ⇒ |S1| ≥ 3, so no singleton escapes
					// the degree requirement).
					avail := incN | undecided
					if bits.OnesCount64(e.adj[pos]&avail) <= e.g || bits.OnesCount64(e.radj[pos]&avail) <= e.g {
						ok = false
					}
				}
				if ok {
					rec(pos+1, incN, exc, extUN, tInN)
				}
			}
		}
		// Exclude pos: every included member that pointed at pos forfeits an
		// out-target (handled by the tIn&exc bound) and every included
		// member adjacent to pos loses available degree.
		{
			excN := exc | bit
			if bits.OnesCount64(inc)+bits.OnesCount64(undecided) >= e.minSize &&
				bits.OnesCount64(extU)+bits.OnesCount64(tIn&excN) <= e.g {
				ok := true
				if e.g >= 1 {
					avail := inc | undecided
					affected := inc & (e.radj[pos] | e.adj[pos])
					for affected != 0 {
						u := bits.TrailingZeros64(affected)
						affected &= affected - 1
						if bits.OnesCount64(e.adj[u]&avail) <= e.g || bits.OnesCount64(e.radj[u]&avail) <= e.g {
							ok = false
							break
						}
					}
				}
				if ok {
					rec(pos+1, inc, excN, extU, tIn)
				}
			}
		}
	}
	rec(0, 0, 0, 0, 0)
}
