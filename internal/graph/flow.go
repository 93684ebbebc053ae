package graph

import (
	"math"
	"math/bits"
	"slices"

	"github.com/bftcup/bftcup/internal/model"
)

// InfiniteConnectivity is the κ reported for single-node graphs: "for any
// pair of nodes" is vacuously true for every k, matching the g = 0 base case
// of isSink* where a lone process with no outgoing knowledge is a sink.
const InfiniteConnectivity = math.MaxInt32

// FlowScratch is the vertex-split max-flow engine behind every node-disjoint
// path count and every κ threshold. Load snapshots a graph, LoadRows takes
// adjacency rows as they come (the sink search's pool); each probe then costs
// one residual copy plus BFS augments on bitset rows. Pair and fan probes run
// on the whole graph's split-graph template, built by Load; κ queries
// (KappaAtLeast) on the split graph of the queried member set, built per
// query. Buffers grow to the largest graph seen and are reused. The Digraph
// methods of the same names are load-then-probe one-shots. The zero value is
// ready and answers 0 before the first Load. One goroutine per value.
//
// Every residual capacity is 0 or 1, so the residual graph is a pure bitset
// matrix. That is sound because the probes run from out(s) to in(t) in the
// vertex-split graph: the only arcs that classically need capacity > 1 are
// the internal arcs in(s)→out(s) and in(t)→out(t), and neither can cross any
// out(s)/in(t) cut in the source→sink direction — in(s)→out(s) ends on the
// source side (at the source itself) and in(t)→out(t) starts on the sink
// side (at the sink itself) — so their capacity never bounds the max flow
// and pinning them to 1 changes no flow value.
type FlowScratch struct {
	adj   BitAdjacency
	words int      // words per split-graph row
	base  []uint64 // 2n rows × words: the whole graph's split-graph template
	sub   []uint64 // KappaAtLeast's template: the queried set's split graph
	resid []uint64
	prev  []int32
	queue []int32
	seen  []uint64 // visited bitset for the BFS

	// Bitsets over row indices: every loaded node, a target or member set,
	// and KappaAtLeast's members before the one probed.
	all, set, earlier []uint64

	buf []uint64 // the backing array of the []uint64 fields above
	idx []int32  // the backing array of prev and queue

	probes  int    // flows run since the zero value; tests pin the schedule's cost with it
	skipped [3]int // flows exits 1, 2 and 3 made unnecessary
}

// Load snapshots g's adjacency and builds the split-graph template for
// subsequent probes.
func (sc *FlowScratch) Load(g *Digraph) {
	sc.adj.Load(g)
	sc.prepare()
	sc.split(sc.base, sc.all)
}

// LoadRows loads n nodes by their out-rows, ⌈n/64⌉ words each: bit j of row i
// is an edge i → j, and no row has its own bit. The nodes have no IDs: they
// serve KappaAtLeast and IsKStronglyConnected, whose sets are row indices.
func (sc *FlowScratch) LoadRows(n int, rows []uint64) {
	sc.adj.loadRows(n, rows)
	sc.prepare()
}

// prepare sizes the scratch for the loaded rows.
func (sc *FlowScratch) prepare() {
	n, w := sc.adj.n, sc.adj.words
	size := 2 * n
	sc.words = (size + 63) / 64
	need, total := size*sc.words, 3*size*sc.words+sc.words+3*w
	sc.buf = slices.Grow(sc.buf[:0], total)[:total]
	buf := sc.buf
	take := func(k int) (s []uint64) { s, buf = buf[:k:k], buf[k:]; return s }
	sc.base, sc.sub, sc.resid = take(need), take(need), take(need)
	sc.seen, sc.all, sc.set, sc.earlier = take(sc.words), take(w), take(w), take(w)
	sc.idx = slices.Grow(sc.idx[:0], 2*size)[:2*size]
	sc.prev, sc.queue = sc.idx[:size:size], sc.idx[size:]
	clear(sc.all)
	for i := 0; i < n; i++ {
		sc.all[i>>6] |= 1 << (i & 63)
	}
}

// split writes the split graph of G[set] into tmpl and returns the words up to
// the last member's rows. in(u) = 2i, out(u) = 2i+1: the internal arc
// in(u)→out(u) carries the node-disjointness, an arc out(u)→in(v) the edge
// u→v. Rows of non-members are left as they are: no member's row points at
// them, so no probe visits them.
func (sc *FlowScratch) split(tmpl, set []uint64) int {
	words, last := sc.words, 0
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			in, out := tmpl[2*i*words:(2*i+1)*words], tmpl[(2*i+1)*words:(2*i+2)*words]
			for x := range in {
				in[x] = 0
			}
			in[(2*i+1)>>6] = 1 << ((2*i + 1) & 63)
			spread(out, sc.adj.Row(i), set)
			last = i
		}
	}
	return (2*last + 2) * words
}

// spread writes into a split-graph row the in-vertices of the nodes in row ∩
// mask: in(j) = 2j, so adjacency word w covers split words 2w and 2w+1 (the
// latter is past the row's end only where it would be 0).
func spread(dst, row, mask []uint64) {
	for w, x := range row {
		x &= mask[w]
		dst[2*w] = spread32(x)
		if 2*w+1 < len(dst) {
			dst[2*w+1] = spread32(x >> 32)
		}
	}
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

// pairHolds reports k node-disjoint paths between the loaded nodes with
// indices si and ti: read off the rows where exit 2 allows, else by flowPair.
func (sc *FlowScratch) pairHolds(si, ti, k int) bool {
	ex := degreeExits{sc.adj.rows, sc.adj.cols, sc.adj.words, &sc.skipped}
	return ex.pair(si, ti, nil, k) || sc.flowPair(sc.base, si, ti, k) >= k
}

// flowPair runs the bounded Edmonds-Karp max-flow between the loaded nodes
// with indices si and ti on a fresh copy of the template tmpl.
func (sc *FlowScratch) flowPair(tmpl []uint64, si, ti, limit int) int {
	copy(sc.resid, tmpl)
	return sc.augment(si, ti, limit)
}

// augment pushes flow from out(si) to in(ti) through the residual rows as
// they stand, until the limit is reached or no augmenting path remains; limit
// ≤ 0 means unlimited. si == ti is legal (the fan probes rewire one side of
// the node's arcs). The paths of at most three arcs off the source's row —
// out(si)→in(ti), and out(si)→in(u)→out(u)→in(ti) through distinct u — need
// no search and go first; the rest are found by word-parallel BFS.
func (sc *FlowScratch) augment(si, ti, limit int) int {
	sc.probes++
	words, resid, seen, prev, queue := sc.words, sc.resid, sc.seen, sc.prev, sc.queue
	source, sink := int32(2*si+1), int32(2*ti)
	flow := 0
	for w := 0; w < words; w++ {
		for row := resid[int(source)*words+w]; row != 0 && (limit <= 0 || flow < limit); row &= row - 1 {
			in := int32(w<<6 + bits.TrailingZeros64(row))
			if in == sink {
				flip(resid, words, source, sink)
				flow++
			} else if in&1 == 0 && resid[int(in)*words+int(in+1)>>6]>>((in+1)&63)&1 != 0 &&
				resid[int(in+1)*words+int(sink>>6)]>>(sink&63)&1 != 0 {
				flip(resid, words, source, in)
				flip(resid, words, in, in+1)
				flip(resid, words, in+1, sink)
				flow++
			}
		}
	}
	for ; limit <= 0 || flow < limit; flow++ {
		seen[0] = 0
		clear(seen[1:])
		seen[source>>6] = 1 << (source & 63)
		// The first visited word, all of it below 33 nodes, stays in a
		// register: a word in memory chains every dequeue on a store.
		seen0 := seen[0]
		prev[source], queue[0] = source, source
	bfs:
		for qi, qlen := 0, 1; ; qi++ {
			if qi == qlen {
				return flow
			}
			x := queue[qi]
			at := int(x) * words
			fresh := resid[at] &^ seen0
			seen0 |= fresh
			for w := 0; ; {
				for ; fresh != 0; fresh &= fresh - 1 {
					y := int32(w<<6 + bits.TrailingZeros64(fresh))
					prev[y] = x
					if y == sink {
						break bfs
					}
					queue[qlen] = y
					qlen++
				}
				if w++; w == words {
					break
				}
				fresh = resid[at+w] &^ seen[w]
				seen[w] |= fresh
			}
		}
		for y := sink; y != source; y = prev[y] {
			flip(resid, words, prev[y], y)
		}
	}
	return flow
}

// flip sends one unit of flow along the residual arc x → y: the arc goes, its
// reverse appears.
func flip(resid []uint64, words int, x, y int32) {
	resid[int(x)*words+int(y>>6)] &^= 1 << (y & 63)
	resid[int(y)*words+int(x>>6)] |= 1 << (x & 63)
}

// MaxNodeDisjointPaths returns the maximum number of internally-node-disjoint
// directed paths from s to t in the loaded graph, computed as max-flow on the
// vertex-split graph (every node other than s and t has capacity 1). limit >
// 0 caps the search: the probe returns early once limit paths are found,
// which is all the k-OSR checks ever need. limit ≤ 0 means unlimited. A
// direct edge s→t counts as one path, per the paper's path-counting in
// Definition 1; s == t and nodes unknown to the snapshot yield 0.
func (sc *FlowScratch) MaxNodeDisjointPaths(s, t model.ID, limit int) int {
	si, ok1 := sc.adj.Index(s)
	ti, ok2 := sc.adj.Index(t)
	if s == t || !ok1 || !ok2 {
		return 0
	}
	return sc.flowPair(sc.base, si, ti, limit)
}

// HasKDisjointPaths reports whether there are at least k internally-node-
// disjoint paths from s to t in the loaded graph.
func (sc *FlowScratch) HasKDisjointPaths(s, t model.ID, k int) bool {
	si, ok1 := sc.adj.Index(s)
	ti, ok2 := sc.adj.Index(t)
	return k <= 0 || s != t && ok1 && ok2 && sc.pairHolds(si, ti, k)
}

// HasKFan reports whether the loaded graph has a k-fan from u into targets:
// k paths out of u that share nothing but u and end at distinct targets. u
// must not be a target. When G[targets] is k-strongly connected and has at
// least k members, that holds exactly when u has k node-disjoint paths to
// every target — and then also to every node that ≥ k targets point at
// (Menger's fan lemma; ARCHITECTURE.md, "The κ probe schedule") — so one fan
// answers what |targets| pair probes would. Targets unknown to the snapshot
// are ignored; an unknown u has no fan.
func (sc *FlowScratch) HasKFan(u model.ID, targets []model.ID, k int) bool {
	if k <= 0 {
		return true
	}
	ui, ok := sc.adj.Index(u)
	if !ok {
		return false
	}
	clear(sc.set)
	for _, t := range targets {
		if ti, ok := sc.adj.Index(t); ok {
			sc.set[ti>>6] |= 1 << (ti & 63)
		}
	}
	return sc.fanHolds(ui, sc.set, k)
}

// fanHolds is HasKFan for the node with index ui and a target bitset over row
// indices: read off u's out-row where exit 3 allows (k targets are out-
// neighbours of u), else by fanFlow on the whole graph.
func (sc *FlowScratch) fanHolds(ui int, set []uint64, k int) bool {
	ex := degreeExits{sc.adj.rows, sc.adj.cols, sc.adj.words, &sc.skipped}
	return ex.fan(ex.out, ui, set, k) || sc.fanFlow(sc.base, sc.all, ui, set, k) >= k
}

// fanFlow is the flow behind a fan: out(ui) to in(ui) on a copy of tmpl, the
// split graph of the members, bounded by limit, after in(ui)'s column is
// rewired to the targets' out-rows (in(ui) becomes the virtual sink b that
// every target points at), so a path can only end by leaving a target through
// its in(t)→out(t) arc — one path per target.
func (sc *FlowScratch) fanFlow(tmpl, members []uint64, ui int, targets []uint64, limit int) int {
	resid, words := sc.resid, sc.words
	copy(resid, tmpl)
	in := 2 * ui
	for w, word := range members {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			at := (2*i+1)*words + in>>6
			resid[at] = resid[at]&^(1<<(in&63)) | (targets[w]>>(i&63)&1)<<(in&63)
		}
	}
	return sc.augment(ui, ui, limit)
}

// IsKStronglyConnected reports whether every ordered pair of distinct nodes
// of the loaded graph is joined by at least k node-disjoint paths (the
// paper's definition of k-strong connectivity): KappaAtLeast of every node.
func (sc *FlowScratch) IsKStronglyConnected(k int) bool { return sc.KappaAtLeast(sc.all, k) }

// KappaAtLeast reports κ(G[S]) ≥ k for the subgraph induced by the member set
// S, a bitset over the loaded rows: true for |S| ≤ 1 or k ≤ 0, false for
// |S| ≤ k, else the degree exits where they decide and Even's schedule (1975)
// where they do not — k(k−1) + 2(m−k) probes for m members, not m(m−1): the
// first k members pairwise both ways, then per later member v_j one a → v_j
// and one v_j → b, where the virtual source a points at, and the virtual sink
// b is pointed at by, every earlier member (ARCHITECTURE.md has the proof). a
// borrows out(v_j)'s row, b in(v_j)'s column, so v_j → b is v_j's fan into
// the earlier members.
func (sc *FlowScratch) KappaAtLeast(set []uint64, k int) bool {
	if holds, decided := sc.KappaDecided(set, k); decided {
		return holds
	}
	ex := degreeExits{sc.adj.rows, sc.adj.cols, sc.adj.words, &sc.skipped}
	tmpl := sc.sub[:sc.split(sc.sub, set)]
	earlier, j := sc.earlier, 0
	clear(earlier)
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			v := w<<6 + bits.TrailingZeros64(word)
			if j < k {
				for ew, e := range earlier {
					for ; e != 0; e &= e - 1 {
						i := ew<<6 + bits.TrailingZeros64(e)
						if !ex.pair(i, v, set, k) && sc.flowPair(tmpl, i, v, k) < k ||
							!ex.pair(v, i, set, k) && sc.flowPair(tmpl, v, i, k) < k {
							return false
						}
					}
				}
			} else {
				if !ex.fan(ex.in, v, earlier, k) {
					// a → v_j: out(v_j)'s row becomes in(v_0 … v_{j-1}).
					copy(sc.resid, tmpl)
					spread(sc.resid[(2*v+1)*sc.words:(2*v+2)*sc.words], earlier, set)
					if sc.augment(v, v, k) < k {
						return false
					}
				}
				if !ex.fan(ex.out, v, earlier, k) && sc.fanFlow(tmpl, set, v, earlier, k) < k {
					return false
				}
			}
			earlier[w] |= 1 << (v & 63)
			j++
		}
	}
	return true
}

// KappaDecided is KappaAtLeast where it runs no flow: the set sizes that
// settle the query and degree exit 1. decided is false where KappaAtLeast
// would go on to Even's schedule.
func (sc *FlowScratch) KappaDecided(set []uint64, k int) (holds, decided bool) {
	m := 0
	for _, word := range set {
		m += bits.OnesCount64(word)
	}
	if k <= 0 || m <= 1 {
		return true, true
	}
	if m <= k {
		return false, true
	}
	ex := degreeExits{sc.adj.rows, sc.adj.cols, sc.adj.words, &sc.skipped}
	return ex.whole(set, m, k)
}

// MaxNodeDisjointPaths is FlowScratch.MaxNodeDisjointPaths on a one-shot
// snapshot of g.
func (g *Digraph) MaxNodeDisjointPaths(s, t model.ID, limit int) int {
	var sc FlowScratch
	sc.Load(g)
	return sc.MaxNodeDisjointPaths(s, t, limit)
}

// HasKDisjointPaths is FlowScratch.HasKDisjointPaths on a one-shot snapshot
// of g.
func (g *Digraph) HasKDisjointPaths(s, t model.ID, k int) bool {
	return k <= 0 || g.MaxNodeDisjointPaths(s, t, k) >= k
}

// IsKStronglyConnected is the definition read literally on a one-shot
// snapshot of g: one bounded flow per ordered pair, no schedule and no degree
// exit but κ ≤ δ⁰. Nothing on a hot path calls it — the tests and view.go's
// literal predicates hold the engine to it.
func (g *Digraph) IsKStronglyConnected(k int) bool {
	n := g.NumNodes()
	if k <= 0 || n <= 1 {
		return true
	}
	if g.minDegree() < k {
		return false
	}
	var sc FlowScratch
	sc.Load(g)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s != t && sc.flowPair(sc.base, s, t, k) < k {
				return false
			}
		}
	}
	return true
}

// minDegree returns the smallest in- or out-degree of g, an upper bound on κ.
func (g *Digraph) minDegree() int {
	indeg := make(map[model.ID]int, len(g.nodes))
	for _, outs := range g.adj {
		for v := range outs {
			indeg[v]++
		}
	}
	best := math.MaxInt
	for u := range g.nodes {
		best = min(best, len(g.adj[u]), indeg[u])
	}
	return best
}

// StrongConnectivity returns κ(g): the maximum k such that g is k-strongly
// connected. Single-node graphs return InfiniteConnectivity; disconnected or
// not strongly connected graphs return 0.
func (g *Digraph) StrongConnectivity() int {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	if n == 1 {
		return InfiniteConnectivity
	}
	// κ is at most the minimum of in/out degrees and n-1.
	best := min(g.minDegree(), n-1)
	var sc FlowScratch
	sc.Load(g)
	for best > 0 && !sc.IsKStronglyConnected(best) {
		best--
	}
	return best
}
