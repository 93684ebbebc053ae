package graph

import (
	"fmt"
	"math/rand"

	"github.com/bftcup/bftcup/internal/model"
)

// GenSpec parameterizes random knowledge-connectivity-graph generation.
type GenSpec struct {
	SinkSize    int     // number of sink (or core) members, ≥ 2f+1
	NonSinkSize int     // number of non-sink members
	K           int     // required connectivity (f+1)
	ExtraEdgeP  float64 // probability of extra random edges for variety
}

// circulant builds the circulant digraph on ids where node i points to the
// next k nodes (cyclically). Its strong connectivity is exactly k.
func circulant(g *Digraph, ids []model.ID, k int) {
	m := len(ids)
	for i := 0; i < m; i++ {
		for d := 1; d <= k && d < m; d++ {
			g.AddEdge(ids[i], ids[(i+d)%m])
		}
	}
}

// GenKOSR generates a random graph whose safe subgraph belongs to k-OSR PD
// with a sink of spec.SinkSize nodes (IDs 1..SinkSize) and spec.NonSinkSize
// non-sink nodes. The construction is correct by design:
//
//   - the sink is a k-circulant (κ = k exactly) plus optional random
//     sink-internal edges (which can only increase κ);
//   - every non-sink node points to k distinct sink members, giving k
//     node-disjoint paths to every sink node by Menger's fan argument;
//   - non-sink nodes may additionally point to earlier non-sink nodes
//     (acyclic among themselves), which preserves the single sink.
//
// Returned sink is the planted sink set. Tests cross-check the construction
// with CheckKOSR on small instances.
func GenKOSR(rng *rand.Rand, spec GenSpec) (g *Digraph, sink model.IDSet, err error) {
	if spec.SinkSize < spec.K+1 && spec.SinkSize != 1 {
		return nil, nil, fmt.Errorf("sink of %d nodes cannot be %d-strongly connected", spec.SinkSize, spec.K)
	}
	g = New()
	sinkIDs := make([]model.ID, spec.SinkSize)
	for i := range sinkIDs {
		sinkIDs[i] = model.ID(i + 1)
		g.AddNode(sinkIDs[i])
	}
	circulant(g, sinkIDs, spec.K)
	// Optional extra sink-internal edges.
	for _, u := range sinkIDs {
		for _, v := range sinkIDs {
			if u != v && rng.Float64() < spec.ExtraEdgeP {
				g.AddEdge(u, v)
			}
		}
	}
	sink = model.NewIDSet(sinkIDs...)
	// Non-sink nodes.
	for i := 0; i < spec.NonSinkSize; i++ {
		u := model.ID(spec.SinkSize + i + 1)
		g.AddNode(u)
		// k distinct sink targets.
		perm := rng.Perm(spec.SinkSize)
		for j := 0; j < spec.K && j < spec.SinkSize; j++ {
			g.AddEdge(u, sinkIDs[perm[j]])
		}
		// Optional edges to earlier non-sink nodes (keeps them non-sink).
		for j := 0; j < i; j++ {
			if rng.Float64() < spec.ExtraEdgeP {
				g.AddEdge(u, model.ID(spec.SinkSize+j+1))
			}
		}
	}
	return g, sink, nil
}

// GenExtendedKOSR generates a random graph satisfying the extended k-OSR
// requirements (Definition 2) with a planted core of spec.SinkSize nodes
// (IDs 1..SinkSize; a complete digraph) and spec.NonSinkSize non-core nodes.
//
// Non-core nodes form a DAG among themselves and each points to
// kCore = f_G(core)+1 distinct core members. Consequences, relied upon by the
// tests:
//
//   - every non-core subset of size ≥ 2 has κ = 0 (DAG) and every non-core
//     singleton has outgoing edges, so no subset outside the core satisfies
//     isSink* at any g — C1 holds with the core strictly maximal;
//   - each non-core node reaches every core member through kCore
//     node-disjoint paths (direct fan into a complete digraph) — C2 holds.
//
// Returns the graph, the planted core, and f_G(core) = min(⌊(m-1)/2⌋, m-2)
// for core size m (partition S1 = core, S2 = ∅).
func GenExtendedKOSR(rng *rand.Rand, spec GenSpec) (g *Digraph, core model.IDSet, fG int, err error) {
	m := spec.SinkSize
	if m < 3 {
		return nil, nil, 0, fmt.Errorf("core needs ≥ 3 nodes, got %d", m)
	}
	fG = (m - 1) / 2
	if mm := m - 2; mm < fG {
		fG = mm
	}
	kCore := fG + 1
	g = New()
	coreIDs := make([]model.ID, m)
	for i := range coreIDs {
		coreIDs[i] = model.ID(i + 1)
	}
	for _, u := range coreIDs {
		for _, v := range coreIDs {
			if u != v {
				g.AddEdge(u, v)
			}
		}
	}
	core = model.NewIDSet(coreIDs...)
	for i := 0; i < spec.NonSinkSize; i++ {
		u := model.ID(m + i + 1)
		g.AddNode(u)
		perm := rng.Perm(m)
		for j := 0; j < kCore; j++ {
			g.AddEdge(u, coreIDs[perm[j]])
		}
		for j := 0; j < i; j++ {
			if rng.Float64() < spec.ExtraEdgeP {
				g.AddEdge(u, model.ID(m+j+1))
			}
		}
	}
	return g, core, fG, nil
}

// GenER generates a directed Erdős–Rényi graph G(n, p) on IDs 1..n: every
// ordered pair (u, v), u ≠ v, carries an edge independently with probability
// p. The pair order of the RNG draws is fixed (u ascending, v ascending), so
// one (n, seed) always yields the same graph — the trace-determinism tests
// and the matrix compile cache rely on it. Unlike GenKOSR there is no planted
// structure: whether a sink emerges is the measured event.
func GenER(rng *rand.Rand, n int, p float64) *Digraph {
	g := New()
	for i := 1; i <= n; i++ {
		g.AddNode(model.ID(i))
	}
	for u := 1; u <= n; u++ {
		for v := 1; v <= n; v++ {
			if u != v && rng.Float64() < p {
				g.AddEdge(model.ID(u), model.ID(v))
			}
		}
	}
	return g
}

// GenGeometric generates a random geometric digraph on IDs 1..n: each node
// draws a point uniformly in the unit square, and two nodes know each other
// (edges both ways) iff their Euclidean distance is ≤ r. All 2n coordinates
// are drawn before any thresholding, so for a fixed (n, seed) the point set
// is identical across radii and the edge set is monotone in r — the radius-
// monotonicity tests pin exactly that: edges(r₁) ⊆ edges(r₂) for r₁ ≤ r₂.
func GenGeometric(rng *rand.Rand, n int, r float64) *Digraph {
	g := New()
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		g.AddNode(model.ID(i + 1))
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	r2 := r * r
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if dx*dx+dy*dy <= r2 {
				g.AddEdge(model.ID(i+1), model.ID(j+1))
				g.AddEdge(model.ID(j+1), model.ID(i+1))
			}
		}
	}
	return g
}

// GenScaleFree generates a Barabási–Albert-style scale-free digraph on IDs
// 1..n: the first min(m, n) nodes form a complete digraph, and every later
// node adds out-edges to m distinct existing nodes chosen preferentially with
// weight in-degree+1. Preferential attachment concentrates in-degree on the
// early nodes (the heavy tail the degree-distribution test checks), giving
// the seed clique a natural sink-ish role without planting one: whether it
// actually satisfies the sink properties on a draw stays a measured event.
func GenScaleFree(rng *rand.Rand, n, m int) *Digraph {
	g := New()
	if m > n {
		m = n
	}
	indeg := make([]int, n+1) // indeg[v] for v = 1..n
	for i := 1; i <= n; i++ {
		g.AddNode(model.ID(i))
	}
	seed := m
	if seed < 1 {
		seed = 1
	}
	for u := 1; u <= seed; u++ {
		for v := 1; v <= seed; v++ {
			if u != v {
				g.AddEdge(model.ID(u), model.ID(v))
				indeg[v]++
			}
		}
	}
	chosen := make([]bool, n+1)
	for u := seed + 1; u <= n; u++ {
		existing := u - 1
		total := 0
		for v := 1; v <= existing; v++ {
			chosen[v] = false
			total += indeg[v] + 1
		}
		picks := m
		if picks > existing {
			picks = existing
		}
		for picked := 0; picked < picks; {
			// Weighted draw over the existing nodes; rejection on repeats
			// keeps the draw sequence deterministic per (n, m, seed).
			x := rng.Intn(total)
			v := 0
			for w := 1; w <= existing; w++ {
				x -= indeg[w] + 1
				if x < 0 {
					v = w
					break
				}
			}
			if chosen[v] {
				continue
			}
			chosen[v] = true
			g.AddEdge(model.ID(u), model.ID(v))
			picked++
		}
		for v := 1; v <= existing; v++ {
			if chosen[v] {
				indeg[v]++
			}
		}
	}
	return g
}
