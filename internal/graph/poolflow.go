package graph

import "math/bits"

// PoolFlow answers κ(G[S]) ≥ k queries for subsets S of one fixed pool of up
// to 64 nodes, entirely in bitset space: the pool's adjacency is a []uint64
// of single-word rows (bit j in row i = edge pool[i]→pool[j]), a subset is a
// uint64 mask over pool positions, and each query runs vertex-split max-flow
// probes on fixed-size stack-free scratch. This is the κ engine of the subset
// search: the sink enumeration probes κ for many S1 subsets of one peeled
// pool, and a query costs no allocation and no graph materialization.
//
// The split graph of a ≤64-node pool has ≤128 vertices — two words per
// residual row — and, as in FlowScratch, every residual capacity is 0/1. A
// query spreads the subset's rows once, copies them before each probe, and
// runs FlowScratch.IsKStronglyConnected's probe schedule over the members in
// position order: k(k−1) + 2(m−k) probes for m members (flows, but for what
// degreeExits answers), the verdict of one flow per ordered pair (the tests
// hold both engines to that loop). The zero value is ready; Reset rebinds it.
type PoolFlow struct {
	n    int
	adj  [64]uint64 // out-rows within the pool (no self bits)
	radj [64]uint64 // in-rows within the pool

	base  [256]uint64 // 128 rows × 2 words: the queried subset's split graph
	resid [256]uint64 // the running probe's residual
	prev  [128]int8
	queue [128]int8

	probes  int    // flows run since the zero value; tests pin the schedule's cost with it
	skipped [3]int // flows exits 1, 2 and 3 made unnecessary
}

// Reset binds the PoolFlow to a pool given by its adjacency rows: adj[i] has
// bit j set iff the pool's i-th node has an edge to its j-th node. len(adj)
// must be ≤ 64; self bits are ignored.
func (pf *PoolFlow) Reset(adj []uint64) {
	if len(adj) > 64 {
		panic("graph: PoolFlow pool exceeds 64 nodes")
	}
	pf.n = len(adj)
	for i := range adj {
		pf.adj[i] = adj[i] &^ (1 << i)
	}
	for i := 0; i < pf.n; i++ {
		pf.radj[i] = 0
	}
	for i := 0; i < pf.n; i++ {
		row := pf.adj[i]
		for row != 0 {
			j := bits.TrailingZeros64(row)
			row &= row - 1
			pf.radj[j] |= 1 << i
		}
	}
}

// KappaAtLeast reports κ(G[S]) ≥ k for the subset S given as a mask over
// pool positions, matching Digraph.IsKStronglyConnected on the induced
// subgraph: vacuously true for |S| ≤ 1 or k ≤ 0, false for |S| ≤ k, then
// the degrees where they decide and the probe schedule where they do not.
func (pf *PoolFlow) KappaAtLeast(mask uint64, k int) bool {
	if pf.n < 64 {
		mask &= 1<<pf.n - 1
	}
	m := bits.OnesCount64(mask)
	if k <= 0 || m <= 1 {
		return true
	}
	if m <= k {
		return false
	}
	// The degrees inside the subset may settle it either way.
	ex, set := degreeExits{pf.adj[:pf.n], pf.radj[:pf.n], 1, &pf.skipped}, []uint64{mask}
	if holds, decided := ex.whole(set, m, k); decided {
		return holds
	}
	// The split graph restricted to mask (in(i) = 2i, out(i) = 2i+1). Rows of
	// positions outside mask are never visited: no member's row points at them.
	for rest := mask; rest != 0; rest &= rest - 1 {
		i := bits.TrailingZeros64(rest)
		in, out := 2*i, 2*i+1
		pf.base[2*in], pf.base[2*in+1] = 0, 0
		pf.base[2*in+out>>6] = 1 << (out & 63)
		pf.base[2*out], pf.base[2*out+1] = spreadEven(pf.adj[i] & mask)
	}
	rows := 4 * bits.Len64(mask) // words up to the last member's out row
	earlier := []uint64{0}       // the members before v_j
	for rest := mask; rest != 0; rest &= rest - 1 {
		j := bits.TrailingZeros64(rest)
		in, out := 2*j, 2*j+1
		earlier[0] = mask & (1<<j - 1)
		if bits.OnesCount64(earlier[0]) < k {
			for e := earlier[0]; e != 0; e &= e - 1 {
				i := bits.TrailingZeros64(e)
				if !ex.pair(i, j, set, k) && pf.flowPair(rows, i, j, k) < k ||
					!ex.pair(j, i, set, k) && pf.flowPair(rows, j, i, k) < k {
					return false
				}
			}
			continue
		}
		if !ex.fan(ex.in, j, earlier, k) {
			// a → v_j: out(v_j)'s row becomes in(earlier members).
			copy(pf.resid[:rows], pf.base[:rows])
			pf.resid[2*out], pf.resid[2*out+1] = spreadEven(earlier[0])
			if pf.augment(j, j, k) < k {
				return false
			}
		}
		if !ex.fan(ex.out, j, earlier, k) {
			// v_j → b: in(v_j)'s column becomes out(earlier members).
			copy(pf.resid[:rows], pf.base[:rows])
			for r := mask; r != 0; r &= r - 1 {
				pf.resid[4*bits.TrailingZeros64(r)+2+in>>6] &^= 1 << (in & 63)
			}
			for e := earlier[0]; e != 0; e &= e - 1 {
				pf.resid[4*bits.TrailingZeros64(e)+2+in>>6] |= 1 << (in & 63)
			}
			if pf.augment(j, j, k) < k {
				return false
			}
		}
	}
	return true
}

// flowPair is the bounded Edmonds-Karp probe between pool positions s and t
// on a fresh copy of the subset's split graph.
func (pf *PoolFlow) flowPair(rows, s, t, limit int) int {
	copy(pf.resid[:rows], pf.base[:rows])
	return pf.augment(s, t, limit)
}

// augment pushes flow from out(s) to in(t) through the residual rows as they
// stand (all capacities 0/1, see FlowScratch; s == t is a fan probe).
func (pf *PoolFlow) augment(s, t, limit int) int {
	pf.probes++
	source, sink := int8(2*s+1), int8(2*t)
	flow := 0
	for {
		if limit > 0 && flow >= limit {
			return flow
		}
		var seen0, seen1 uint64
		if source < 64 {
			seen0 = 1 << source
		} else {
			seen1 = 1 << (source & 63)
		}
		pf.prev[source] = source
		pf.queue[0] = source
		qlen := 1
		found := false
		for qi := 0; qi < qlen && !found; qi++ {
			x := pf.queue[qi]
			f0 := pf.resid[2*int(x)] &^ seen0
			f1 := pf.resid[2*int(x)+1] &^ seen1
			seen0 |= f0
			seen1 |= f1
			for f0 != 0 {
				y := int8(bits.TrailingZeros64(f0))
				f0 &= f0 - 1
				pf.prev[y] = x
				if y == sink {
					found = true
					break
				}
				pf.queue[qlen] = y
				qlen++
			}
			for !found && f1 != 0 {
				y := int8(64 + bits.TrailingZeros64(f1))
				f1 &= f1 - 1
				pf.prev[y] = x
				if y == sink {
					found = true
					break
				}
				pf.queue[qlen] = y
				qlen++
			}
		}
		if !found {
			return flow
		}
		for y := sink; y != source; {
			x := pf.prev[y]
			pf.resid[2*int(x)+int(y>>6)] &^= 1 << (y & 63)
			pf.resid[2*int(y)+int(x>>6)] |= 1 << (x & 63)
			y = x
		}
		flow++
	}
}

// spreadEven maps bit i of x to bit 2i of the (lo, hi) result pair — the
// pool-position → in-vertex translation of the split graph.
func spreadEven(x uint64) (lo, hi uint64) {
	return spread32(x & 0xFFFFFFFF), spread32(x >> 32)
}

// spread32 interleaves zeros into the low 32 bits of x (bit i → bit 2i).
func spread32(x uint64) uint64 {
	x &= 0x00000000FFFFFFFF
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}
