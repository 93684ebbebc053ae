// Package graph implements the directed-graph mathematics behind knowledge
// connectivity: strongly connected components, condensations, sinks, Menger
// node-disjoint paths, strong connectivity (κ), directed k-core peeling, the
// k-OSR PD checker of Alchieri et al. (Definition 1 in the paper), and the
// BFT-CUP requirement checker (Theorem 1). It also provides generators for
// random knowledge connectivity graphs and the reconstructions of every
// figure in the paper.
//
// All iteration is deterministic (sorted by ID) so that simulations and
// searches are reproducible.
package graph

import (
	"fmt"
	"strings"

	"github.com/bftcup/bftcup/internal/model"
)

// Digraph is a directed graph over process IDs. The zero value is not usable;
// construct with New.
type Digraph struct {
	nodes model.IDSet
	adj   map[model.ID]model.IDSet // out-neighbors
}

// New returns an empty directed graph.
func New() *Digraph {
	return &Digraph{nodes: model.NewIDSet(), adj: make(map[model.ID]model.IDSet)}
}

// FromAdjacency builds a graph from an adjacency map. Nodes mentioned only as
// targets are added as isolated nodes.
func FromAdjacency(adj map[model.ID][]model.ID) *Digraph {
	g := New()
	for u, outs := range adj {
		g.AddNode(u)
		for _, v := range outs {
			g.AddEdge(u, v)
		}
	}
	return g
}

// AddNode inserts a node (no-op if present).
func (g *Digraph) AddNode(u model.ID) {
	if g.nodes.Add(u) {
		g.adj[u] = model.NewIDSet()
	}
}

// AddEdge inserts the edge u→v, adding the endpoints as needed. Self-loops
// are ignored: knowledge of oneself is implicit in the model.
func (g *Digraph) AddEdge(u, v model.ID) {
	g.AddNode(u)
	g.AddNode(v)
	if u == v {
		return
	}
	g.adj[u].Add(v)
}

// HasNode reports whether u is a node of g.
func (g *Digraph) HasNode(u model.ID) bool { return g.nodes.Has(u) }

// HasEdge reports whether the edge u→v exists.
func (g *Digraph) HasEdge(u, v model.ID) bool {
	outs, ok := g.adj[u]
	return ok && outs.Has(v)
}

// Nodes returns all nodes in ascending order.
func (g *Digraph) Nodes() []model.ID { return g.nodes.Sorted() }

// NodeSet returns a copy of the node set.
func (g *Digraph) NodeSet() model.IDSet { return g.nodes.Clone() }

// NumNodes returns the node count.
func (g *Digraph) NumNodes() int { return g.nodes.Len() }

// NumEdges returns the edge count.
func (g *Digraph) NumEdges() int {
	n := 0
	for _, outs := range g.adj {
		n += outs.Len()
	}
	return n
}

// Out returns the out-neighbors of u in ascending order.
func (g *Digraph) Out(u model.ID) []model.ID {
	if outs, ok := g.adj[u]; ok {
		return outs.Sorted()
	}
	return nil
}

// OutSet returns the out-neighbor set of u (not a copy; callers must not
// mutate it).
func (g *Digraph) OutSet(u model.ID) model.IDSet { return g.adj[u] }

// OutDegree returns |Out(u)|.
func (g *Digraph) OutDegree(u model.ID) int {
	if outs, ok := g.adj[u]; ok {
		return outs.Len()
	}
	return 0
}

// In returns the in-neighbors of u in ascending order (computed on demand).
func (g *Digraph) In(u model.ID) []model.ID {
	var ins []model.ID
	for _, v := range g.Nodes() {
		if g.adj[v].Has(u) {
			ins = append(ins, v)
		}
	}
	return ins
}

// Clone returns a deep copy.
func (g *Digraph) Clone() *Digraph {
	c := New()
	for id := range g.nodes {
		c.AddNode(id)
	}
	for u, outs := range g.adj {
		for v := range outs {
			c.adj[u].Add(v)
		}
	}
	return c
}

// Induced returns the subgraph induced by keep: nodes in keep and edges with
// both endpoints in keep.
func (g *Digraph) Induced(keep model.IDSet) *Digraph {
	s := New()
	for id := range keep {
		if g.nodes.Has(id) {
			s.AddNode(id)
		}
	}
	for u := range s.nodes {
		for v := range g.adj[u] {
			if s.nodes.Has(v) {
				s.adj[u].Add(v)
			}
		}
	}
	return s
}

// Without returns a copy of g with the given nodes (and incident edges)
// removed. This is how the safe subgraph Gsafe = Gdi[ΠC] is obtained.
func (g *Digraph) Without(remove model.IDSet) *Digraph {
	return g.Induced(g.nodes.Diff(remove))
}

// UndirectedConnected reports whether the undirected counterpart of g is
// connected (first bullet of Definition 1). The empty graph is connected.
func (g *Digraph) UndirectedConnected() bool {
	var b BitAdjacency
	b.Load(g)
	return undirectedConnected(b.csr())
}

// String renders the adjacency list, one node per line, deterministically.
func (g *Digraph) String() string {
	var b strings.Builder
	for _, u := range g.Nodes() {
		fmt.Fprintf(&b, "%v -> %v\n", u, model.IDSet(g.adj[u]).String())
	}
	return b.String()
}

// SCCs returns the strongly connected components of g as sorted slices of
// sorted IDs, in reverse topological order of the condensation (components
// that can only be reached come first... specifically Tarjan's output order:
// a component is emitted before any component that can reach it). Use
// Condensation for explicit DAG structure.
func (g *Digraph) SCCs() []model.IDSet {
	// The snapshot's CSR is in sorted-ID index space: roots and children
	// ascend by ID.
	var b BitAdjacency
	b.Load(g)
	var t Tarjan
	comps := make([]model.IDSet, t.Run(b.csr()))
	for c := range comps {
		comps[c] = model.NewIDSet()
		for _, i := range t.Comp(c) {
			comps[c].Add(b.ids[i])
		}
	}
	return comps
}

// Condensation describes the DAG obtained by contracting each SCC of a graph
// to a single node.
type Condensation struct {
	Comps []model.IDSet        // component membership
	Of    map[model.ID]int     // node → component index
	Succ  map[int]map[int]bool // edges between components
}

// Condense computes the condensation of g.
func (g *Digraph) Condense() *Condensation {
	comps := g.SCCs()
	c := &Condensation{
		Comps: comps,
		Of:    make(map[model.ID]int),
		Succ:  make(map[int]map[int]bool),
	}
	for i, comp := range comps {
		for id := range comp {
			c.Of[id] = i
		}
		c.Succ[i] = make(map[int]bool)
	}
	for u, outs := range g.adj {
		cu := c.Of[u]
		for v := range outs {
			if cv := c.Of[v]; cv != cu {
				c.Succ[cu][cv] = true
			}
		}
	}
	return c
}

// SinkComponents returns the components with no outgoing condensation edges.
func (c *Condensation) SinkComponents() []model.IDSet {
	var sinks []model.IDSet
	for i, comp := range c.Comps {
		if len(c.Succ[i]) == 0 {
			sinks = append(sinks, comp)
		}
	}
	return sinks
}

// UniqueSink returns the sole sink component of g's condensation, or ok=false
// if there are zero or several sinks. This is Vsink of Definition 1.
func (g *Digraph) UniqueSink() (model.IDSet, bool) {
	sinks := g.Condense().SinkComponents()
	if len(sinks) != 1 {
		return nil, false
	}
	return sinks[0], true
}

// DirectedCore returns the maximal subset S of g's nodes such that every node
// of S has in-degree ≥ k and out-degree ≥ k within G[S] (the directed k-core).
// Every subgraph with κ ≥ k is contained in it, because vertex connectivity is
// bounded by minimum degree; this makes peeling a sound pruning step for the
// sink search.
func (g *Digraph) DirectedCore(k int) model.IDSet {
	alive := g.NodeSet()
	if k <= 0 {
		return alive
	}
	// Reverse adjacency, built once: peeling u must find the vertices that
	// point at u without scanning the whole node set per peeled vertex.
	in := make(map[model.ID][]model.ID, len(alive))
	indeg := make(map[model.ID]int, len(alive))
	outdeg := make(map[model.ID]int, len(alive))
	for u, outs := range g.adj {
		outdeg[u] = len(outs)
		for v := range outs {
			in[v] = append(in[v], u)
			indeg[v]++
		}
	}
	var queue []model.ID
	for u := range alive {
		if indeg[u] < k || outdeg[u] < k {
			queue = append(queue, u)
		}
	}
	// The k-core is the unique maximal fixed point, so peel order is free.
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !alive.Has(u) {
			continue
		}
		alive.Remove(u)
		for v := range g.adj[u] {
			if indeg[v]--; indeg[v] < k && alive.Has(v) {
				queue = append(queue, v)
			}
		}
		for _, w := range in[u] {
			if outdeg[w]--; outdeg[w] < k && alive.Has(w) {
				queue = append(queue, w)
			}
		}
	}
	return alive
}
