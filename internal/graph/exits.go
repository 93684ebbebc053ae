package graph

import (
	"math"
	"math/bits"
)

// degreeExits reads "κ(G[S]) ≥ k" off an adjacency's out- and in-rows (w words
// a row, sets as bitsets over row indices) wherever popcounts settle what a
// flow would: three exits, each exact (ARCHITECTURE.md, "The κ probe schedule").
// Both κ engines put them in front of every probe; the tests' oracles never do.
type degreeExits struct {
	out, in []uint64
	w       int
	skipped *[3]int // the engine's count of flows exits 1, 2 and 3 made unnecessary
}

// andCount returns |a ∩ b|.
func andCount(a, b []uint64) (n int) {
	for w := range a {
		n += bits.OnesCount64(a[w] & b[w])
	}
	return n
}

// whole answers the query where the degrees do. With δ⁰ the least in- or
// out-degree inside set (m > k members): κ ≤ δ⁰, and 2δ⁰ ≥ m+k−2 gives κ ≥ k
// (exit 1) — take any k−1 nodes away and two survivors u, v without the edge
// u→v still have N⁺(u) and N⁻(v) overlap.
func (d degreeExits) whole(set []uint64, m, k int) (holds, decided bool) {
	least := math.MaxInt
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			i := (w<<6 + bits.TrailingZeros64(word)) * d.w
			least = min(least, andCount(d.out[i:i+d.w], set), andCount(d.in[i:i+d.w], set))
		}
	}
	if 2*least < m+k-2 {
		return false, least < k
	}
	d.skipped[0] += k*(k-1) + 2*(m-k)
	return true, true
}

// pair reports [i→j] + |N⁺(i) ∩ N⁻(j) ∩ set| ≥ k: that many internally
// disjoint i→j paths of length ≤ 2 run inside set, so the pair probe needs no
// flow (exit 2). A nil set is every node.
func (d degreeExits) pair(i, j int, set []uint64, k int) bool {
	out, in := d.out[i*d.w:(i+1)*d.w], d.in[j*d.w:(j+1)*d.w]
	n := int(out[j>>6] >> (j & 63) & 1)
	for w := range out {
		x := out[w] & in[w]
		if set != nil {
			x &= set[w]
		}
		n += bits.OnesCount64(x)
	}
	if n < k {
		return false
	}
	d.skipped[1]++
	return true
}

// fan reports that k of earlier are neighbours of j in rows: with d.in, the
// paths a→e→j of the fan probe a → v_j, with d.out the paths j→e→b of
// v_j → b, which share nothing but their endpoints (exit 3).
func (d degreeExits) fan(rows []uint64, j int, earlier []uint64, k int) bool {
	if andCount(rows[j*d.w:(j+1)*d.w], earlier) < k {
		return false
	}
	d.skipped[2]++
	return true
}
