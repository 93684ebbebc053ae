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
// path count on a whole graph: Load snapshots a graph once, then each probe
// (MaxNodeDisjointPaths, HasKDisjointPaths, each flow of the schedule behind
// IsKStronglyConnected) costs one residual copy plus word-parallel BFS
// augments. It owns, on bitsets, the adjacency snapshot (BitAdjacency), the
// pair-independent residual rows of the split graph, the per-probe residual
// copy and the BFS arrays; buffers grow to the largest graph seen and are
// reused, so a long-lived value stops allocating once warm. The Digraph
// methods of the same names are load-then-probe one-shots; callers that
// probe one graph many times (CheckKOSR's fan-in condition and
// CheckExtendedKOSR's C2, one fan per outside node — HasKFan — with pair
// probes only where a fan fails) or many graphs in a row hold a FlowScratch
// instead.
// The zero value is ready and answers 0 before the first Load. One goroutine
// per value.
//
// PoolFlow is the other shape of the same computation — κ of many subsets of
// one ≤ 64-node pool, no snapshot per subset — and the call site picks:
// whole graphs here, subset masks there.
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
	base  []uint64 // 2n rows × words: pair-independent residual template
	resid []uint64
	prev  []int32
	queue []int32
	seen  []uint64 // visited bitset for the BFS
	sets  []uint64 // kStrong's member and earlier-member bitsets over row indices

	probes  int    // flows run since the zero value; tests pin the schedule's cost with it
	skipped [3]int // flows exits 1, 2 and 3 made unnecessary
}

// Load snapshots g's adjacency and builds the split-graph residual template
// for subsequent probes.
func (sc *FlowScratch) Load(g *Digraph) {
	sc.adj.Load(g)
	n := sc.adj.NumNodes()
	size := 2 * n
	sc.words = (size + 63) / 64
	need := size * sc.words
	if cap(sc.base) < need {
		sc.base = make([]uint64, need)
		sc.resid = make([]uint64, need)
	}
	sc.base = sc.base[:need]
	sc.resid = sc.resid[:need]
	for i := range sc.base {
		sc.base[i] = 0
	}
	// in(u) = 2i, out(u) = 2i+1. Internal arcs in(u)→out(u) carry the
	// node-disjointness; adjacency arcs out(u)→in(v) carry the edges.
	for i := 0; i < n; i++ {
		in, out := 2*i, 2*i+1
		sc.base[in*sc.words+(out>>6)] |= 1 << (out & 63)
		row := sc.adj.Row(i)
		dst := sc.base[out*sc.words : (out+1)*sc.words]
		for w, word := range row {
			for word != 0 {
				j := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				inj := 2 * j
				dst[inj>>6] |= 1 << (inj & 63)
			}
		}
	}
	if cap(sc.prev) < size {
		sc.prev = make([]int32, size)
		sc.queue = make([]int32, size)
	}
	sc.prev = sc.prev[:size]
	sc.queue = sc.queue[:size]
	if cap(sc.seen) < sc.words {
		sc.seen = make([]uint64, sc.words)
	}
	sc.seen = sc.seen[:sc.words]
	sc.sets = slices.Grow(sc.sets[:0], 2*sc.adj.words)[:2*sc.adj.words]
}

// pairHolds reports k node-disjoint paths between the loaded nodes with
// indices si and ti: read off the rows where exit 2 allows, else by flowPair.
func (sc *FlowScratch) pairHolds(si, ti, k int) bool {
	ex := degreeExits{sc.adj.rows, sc.adj.cols, sc.adj.words, &sc.skipped}
	return ex.pair(si, ti, nil, k) || sc.flowPair(si, ti, k) >= k
}

// flowPair runs the bounded Edmonds-Karp max-flow between the loaded nodes
// with indices si and ti on a fresh copy of the residual template.
func (sc *FlowScratch) flowPair(si, ti, limit int) int {
	copy(sc.resid, sc.base)
	return sc.augment(si, ti, limit)
}

// augment pushes flow from out(si) to in(ti) through the residual rows as
// they stand: augmenting paths are found by word-parallel BFS until the limit
// is reached or no path remains. limit ≤ 0 means unlimited. si == ti is legal
// (IsKStronglyConnected's fan probes rewire one side of the node's arcs).
func (sc *FlowScratch) augment(si, ti, limit int) int {
	sc.probes++
	source, sink := int32(2*si+1), int32(2*ti)
	size := 2 * sc.adj.NumNodes()
	flow := 0
	for {
		if limit > 0 && flow >= limit {
			return flow
		}
		for w := range sc.seen {
			sc.seen[w] = 0
		}
		sc.seen[source>>6] |= 1 << (source & 63)
		sc.prev[source] = source
		sc.queue[0] = source
		qlen := 1
		found := false
		for qi := 0; qi < qlen && !found; qi++ {
			x := sc.queue[qi]
			row := sc.resid[int(x)*sc.words : (int(x)+1)*sc.words]
			for w := 0; w < sc.words; w++ {
				fresh := row[w] &^ sc.seen[w]
				if fresh == 0 {
					continue
				}
				sc.seen[w] |= fresh
				for fresh != 0 {
					y := int32(w<<6 + bits.TrailingZeros64(fresh))
					fresh &= fresh - 1
					if int(y) >= size {
						break
					}
					sc.prev[y] = x
					if y == sink {
						found = true
						break
					}
					sc.queue[qlen] = y
					qlen++
				}
				if found {
					break
				}
			}
		}
		if !found {
			return flow
		}
		for y := sink; y != source; {
			x := sc.prev[y]
			sc.resid[int(x)*sc.words+int(y>>6)] &^= 1 << (y & 63)
			sc.resid[int(y)*sc.words+int(x>>6)] |= 1 << (x & 63)
			y = x
		}
		flow++
	}
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
	return sc.flowPair(si, ti, limit)
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
	set := sc.sets[:sc.adj.words]
	clear(set)
	for _, t := range targets {
		if ti, ok := sc.adj.Index(t); ok {
			set[ti>>6] |= 1 << (ti & 63)
		}
	}
	return sc.fanHolds(ui, set, k)
}

// fanHolds is HasKFan for the node with index ui and a target bitset over row
// indices: read off u's out-row where exit 3 allows (k targets are out-
// neighbours of u), else by fanFlow. kStrong's v_j → b probe is v_j's fan into
// the earlier members.
func (sc *FlowScratch) fanHolds(ui int, set []uint64, k int) bool {
	ex := degreeExits{sc.adj.rows, sc.adj.cols, sc.adj.words, &sc.skipped}
	return ex.fan(ex.out, ui, set, k) || sc.fanFlow(ui, set, k) >= k
}

// fanFlow is the flow behind a fan: out(ui) to in(ui), bounded by limit, after
// in(ui)'s column is rewired to the targets' out-rows (in(ui) becomes the
// virtual sink b that every target points at), so a path can only end by
// leaving a target through its in(t)→out(t) arc — one path per target.
func (sc *FlowScratch) fanFlow(ui int, set []uint64, limit int) int {
	copy(sc.resid, sc.base)
	in := 2 * ui
	for i := 0; i < sc.adj.NumNodes(); i++ {
		bit := set[i>>6] >> (i & 63) & 1
		row := sc.resid[(2*i+1)*sc.words:]
		row[in>>6] = row[in>>6]&^(1<<(in&63)) | bit<<(in&63)
	}
	return sc.augment(ui, ui, limit)
}

// IsKStronglyConnected reports whether every ordered pair of distinct nodes
// of the loaded graph is joined by at least k node-disjoint paths (the
// paper's definition of k-strong connectivity). Graphs with ≤ 1 node are
// k-strongly connected for every k (vacuous quantification).
//
// Even's schedule (1975) decides it in k(k−1) + 2(n−k) probes, not n(n−1),
// each a flow unless degreeExits answers it: the first k nodes pairwise in
// both directions, then per later node v_j one a → v_j and one v_j → b, the
// virtual source a pointing at, the virtual sink b pointed at by, every earlier
// node. A separator C with |C| < k misses one of the first k nodes, so the
// first node it cuts off from the earlier survivors fails a pairwise probe or
// — each first hop out of a, each last hop into b, lying in C or beyond it — a
// fan probe; ARCHITECTURE.md has the full argument. a borrows out(v_j), idle
// while v_j is the sink; b borrows in(v_j).
func (sc *FlowScratch) IsKStronglyConnected(k int) bool { return sc.kStrong(nil, k) }

// kStrong is IsKStronglyConnected for the subgraph induced by members
// (ascending row indices; nil means every node), which no edge may leave: a
// path that starts inside then stays inside, so every probe of the schedule
// reads the same flow on the whole graph's residual rows as it would on a
// snapshot of the induced subgraph. CheckKOSR's sink component is such a set.
func (sc *FlowScratch) kStrong(members []int32, k int) bool {
	n := sc.adj.NumNodes()
	m, at := n, func(j int) int { return j }
	if members != nil {
		m, at = len(members), func(j int) int { return int(members[j]) }
	}
	if k <= 0 || m <= 1 {
		return true
	}
	if m <= k {
		// κ(G) ≤ n-1 always (at most n-2 internal vertices plus the direct
		// edge ⇒ ≤ n-1 disjoint paths).
		return false
	}
	// The degrees among the members may settle it either way.
	ex, w := degreeExits{sc.adj.rows, sc.adj.cols, sc.adj.words, &sc.skipped}, sc.adj.words
	set, earlier := sc.sets[:w], sc.sets[w:]
	clear(sc.sets)
	for j := 0; j < m; j++ {
		set[at(j)>>6] |= 1 << (at(j) & 63)
	}
	if holds, decided := ex.whole(set, m, k); decided {
		return holds
	}
	for j := 1; j < m; j++ {
		vj := at(j)
		earlier[at(j-1)>>6] |= 1 << (at(j-1) & 63)
		if j < k {
			for i := 0; i < j; i++ {
				if !sc.pairHolds(at(i), vj, k) || !sc.pairHolds(vj, at(i), k) {
					return false
				}
			}
			continue
		}
		out := 2*vj + 1
		if !ex.fan(ex.in, vj, earlier, k) {
			// a → v_j: out(v_j)'s row becomes in(v_0 … v_{j-1}).
			copy(sc.resid, sc.base)
			row := sc.resid[out*sc.words : (out+1)*sc.words]
			clear(row)
			for i := 0; i < j; i++ {
				row[at(i)>>5] |= 1 << (2 * at(i) & 63)
			}
			if sc.augment(vj, vj, k) < k {
				return false
			}
		}
		// v_j → b: v_j's fan into v_0 … v_{j-1}.
		if !sc.fanHolds(vj, earlier, k) {
			return false
		}
	}
	return true
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
// literal predicates hold the two engines to it.
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
			if s != t && sc.flowPair(s, t, k) < k {
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
