package graph

// Tarjan is the repo's one strongly-connected-components decomposition:
// iterative (bounded stack), in index space, on scratch that grows to the
// largest graph seen and is reused afterwards. Digraph.SCCs runs it once on a
// throwaway value; the sink search keeps one per searcher and re-runs it on
// every knowledge event. The zero value is ready; one goroutine per value.
type Tarjan struct {
	num, low []int32
	onStack  []bool
	stack    []int32
	frames   []tarjanFrame
	order    []int32 // vertices grouped by component, in emission order
	bounds   []int32 // component c is order[bounds[c]:bounds[c+1]]
}

type tarjanFrame struct{ u, child int32 }

// Run decomposes the graph given in CSR form — vertex u's out-neighbours are
// adj[start[u]:start[u+1]], len(start) = n+1 — and returns the number of
// components. Roots are tried in index order and children in row order, and a
// component is emitted before any component that can reach it, so the
// emission order (which UniqueSink and the condensation depend on) is a
// function of the indexing alone.
func (t *Tarjan) Run(start, adj []int32) int {
	n := len(start) - 1
	if cap(t.num) < n {
		t.num = make([]int32, n)
		t.low = make([]int32, n)
		t.onStack = make([]bool, n)
	}
	t.num, t.low, t.onStack = t.num[:n], t.low[:n], t.onStack[:n]
	for i := range t.num {
		t.num[i] = -1
		t.onStack[i] = false
	}
	t.stack, t.frames, t.order = t.stack[:0], t.frames[:0], t.order[:0]
	t.bounds = append(t.bounds[:0], 0)
	counter := int32(0)
	visit := func(u int32) {
		t.num[u], t.low[u] = counter, counter
		counter++
		t.stack = append(t.stack, u)
		t.onStack[u] = true
		t.frames = append(t.frames, tarjanFrame{u: u})
	}
	for root := int32(0); root < int32(n); root++ {
		if t.num[root] >= 0 {
			continue
		}
		visit(root)
		for len(t.frames) > 0 {
			f := &t.frames[len(t.frames)-1]
			u := f.u
			if outs := adj[start[u]:start[u+1]]; f.child < int32(len(outs)) {
				w := outs[f.child]
				f.child++
				if t.num[w] < 0 {
					visit(w)
				} else if t.onStack[w] && t.num[w] < t.low[u] {
					t.low[u] = t.num[w]
				}
				continue
			}
			// Post-visit of u.
			t.frames = t.frames[:len(t.frames)-1]
			if len(t.frames) > 0 {
				if p := t.frames[len(t.frames)-1].u; t.low[u] < t.low[p] {
					t.low[p] = t.low[u]
				}
			}
			if t.low[u] == t.num[u] {
				top := len(t.stack)
				for {
					top--
					t.onStack[t.stack[top]] = false
					if t.stack[top] == u {
						break
					}
				}
				t.order = append(t.order, t.stack[top:]...)
				t.stack = t.stack[:top]
				t.bounds = append(t.bounds, int32(len(t.order)))
			}
		}
	}
	return len(t.bounds) - 1
}

// Comp returns the vertices of the c-th emitted component, in no particular
// order. The slice is owned by the scratch and valid until the next Run.
func (t *Tarjan) Comp(c int) []int32 {
	return t.order[t.bounds[c]:t.bounds[c+1]]
}
