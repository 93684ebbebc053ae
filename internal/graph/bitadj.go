package graph

import (
	"math/bits"
	"slices"

	"github.com/bftcup/bftcup/internal/model"
)

// BitAdjacency is a word-packed adjacency matrix over an indexed snapshot of
// a digraph's nodes: row i is a []uint64 bitset of the out-neighbors of the
// i-th node in sorted-ID order. It is the representation behind the bitset
// flow engine (FlowScratch), which derives the vertex-split residual graph of
// its max-flow probes from the rows.
//
// A BitAdjacency is a snapshot — it does not track later mutations of the
// source graph. Load reuses the backing buffers, so a long-lived value warms
// up like the rest of the scratch machinery. One goroutine per value.
type BitAdjacency struct {
	ids   []model.ID // empty after loadRows: the rows are the only identity
	n     int
	words int
	rows  []uint64 // n rows × words
	cols  []uint64 // the transpose: row j holds j's in-neighbors
}

// Load snapshots g: nodes indexed in sorted-ID order, one bitset row of
// out-neighbors per node.
func (b *BitAdjacency) Load(g *Digraph) {
	b.ids = b.ids[:0]
	for id := range g.nodes {
		b.ids = append(b.ids, id)
	}
	slices.Sort(b.ids)
	b.reset(len(b.ids))
	for i, u := range b.ids {
		row := b.Row(i)
		for v := range g.adj[u] {
			if j, ok := b.Index(v); ok && v != u {
				row[j>>6] |= 1 << (j & 63)
			}
		}
	}
	b.transpose()
}

// loadRows snapshots n nodes given by their out-rows, ⌈n/64⌉ words each (bit
// j of row i: an edge i → j, never i → i).
func (b *BitAdjacency) loadRows(n int, rows []uint64) {
	b.ids = b.ids[:0]
	b.reset(n)
	copy(b.rows, rows)
	b.transpose()
}

// reset sizes the rows for n nodes, all empty.
func (b *BitAdjacency) reset(n int) {
	b.n, b.words = n, (n+63)/64
	need := n * b.words
	if cap(b.rows) < 2*need {
		b.rows = make([]uint64, 2*need)
	}
	b.rows, b.cols = b.rows[:need], b.rows[need:2*need]
	clear(b.rows)
}

// transpose derives the in-rows from the out-rows.
func (b *BitAdjacency) transpose() {
	clear(b.cols)
	for i := 0; i < b.n; i++ {
		for w, word := range b.Row(i) {
			for ; word != 0; word &= word - 1 {
				j := w<<6 + bits.TrailingZeros64(word)
				b.cols[j*b.words+i>>6] |= 1 << (i & 63)
			}
		}
	}
}

// csr returns the snapshot in the CSR form Tarjan.Run takes: node i's
// out-neighbours, ascending, are adj[start[i]:start[i+1]].
func (b *BitAdjacency) csr() (start, adj []int32) {
	start = make([]int32, 1, b.n+1)
	for i := 0; i < b.n; i++ {
		for w, word := range b.Row(i) {
			for ; word != 0; word &= word - 1 {
				adj = append(adj, int32(w<<6+bits.TrailingZeros64(word)))
			}
		}
		start = append(start, int32(len(adj)))
	}
	return start, adj
}

// IDs returns the indexed nodes in index order (sorted by ID). The slice is
// owned by the BitAdjacency.
func (b *BitAdjacency) IDs() []model.ID { return b.ids }

// Index returns the row index of id: its rank among the sorted IDs.
func (b *BitAdjacency) Index(id model.ID) (int, bool) {
	return slices.BinarySearch(b.ids, id)
}

// Row returns node i's out-neighbor bitset (owned by the BitAdjacency).
func (b *BitAdjacency) Row(i int) []uint64 {
	return b.rows[i*b.words : (i+1)*b.words]
}
