package kosr

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
)

// candsEqual compares two candidate lists structurally (G, S1, S2, order).
func candsEqual(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].G != b[i].G || !a[i].S1.Equal(b[i].S1) || !a[i].S2.Equal(b[i].S2) {
			return false
		}
	}
	return true
}

// bruteSinksAtG is the definitional oracle: every subset of the received set
// with ≥ 2g+1 members, checked by the literal View.IsSink against its derived
// S2, sorted by the canonical key of S1. It shares no code with the Searcher
// (no SCC decomposition, no peel, no pruned enumeration, no memo).
func bruteSinksAtG(v *View, g int) []Candidate {
	var out []Candidate
	enumerateSubsets(v.Received().Sorted(), 2*g+1, func(s1 model.IDSet) {
		if s2 := v.DeriveS2(s1, g); v.IsSink(g, s1, s2) {
			out = append(out, Candidate{G: g, S1: s1, S2: s2})
		}
	})
	sortCandidates(out)
	return out
}

func sortCandidates(cs []Candidate) {
	slices.SortFunc(cs, func(a, b Candidate) int { return cmp.Compare(a.S1.Key(), b.S1.Key()) })
}

// The one-shot forms the unit tests use: a fresh Searcher per call, so views
// assembled by direct map writes (or shrunk between calls) are fine.
func sinksAtG(v *View, g int) []Candidate {
	cands, _ := NewSearcher().SinksAtGExact(v, g)
	return cands
}
func findSinkKnownF(v *View, f int) (Candidate, bool) { return NewSearcher().FindSinkKnownF(v, f) }
func findCore(v *View) (Candidate, bool)              { return NewSearcher().FindCore(v) }
func findNaive(v *View) (Candidate, bool)             { return NewSearcher().FindNaive(v) }

// assertSearcherMatches compares every search the protocol stack runs — all
// thresholds, exactness flags, and the three find rules — between the
// searcher and the brute-force oracle on one view state (≤ ExactLimit
// received records, so the searcher must be exact).
func assertSearcherMatches(t *testing.T, se *Searcher, v *View, tag string) {
	t.Helper()
	brute := make([][]Candidate, v.MaxG()+2)
	for g := range brute {
		brute[g] = bruteSinksAtG(v, g)
		got, exact := se.SinksAtGExact(v, g)
		if !exact {
			t.Fatalf("%s: SinksAtGExact(%d) inexact on %d records", tag, g, len(v.PD))
		}
		if !candsEqual(got, brute[g]) {
			t.Fatalf("%s: SinksAtG(%d) diverges:\n  searcher:    %v\n  brute force: %v", tag, g, got, brute[g])
		}
	}
	check := func(name string, got Candidate, gotOK bool, gs []int) {
		t.Helper()
		want, wantOK := Candidate{}, false
		for _, g := range gs {
			if len(brute[g]) > 0 {
				want, wantOK = brute[g][0], true
				break
			}
		}
		if gotOK != wantOK {
			t.Fatalf("%s: %s ok=%v, brute force %v", tag, name, gotOK, wantOK)
		}
		if wantOK && !candsEqual([]Candidate{got}, []Candidate{want}) {
			t.Fatalf("%s: %s = %+v, brute force %+v", tag, name, got, want)
		}
	}
	up := make([]int, v.MaxG()+1)
	down := make([]int, v.MaxG()+1)
	for g := range up {
		up[g], down[g] = g, v.MaxG()-g
	}
	got, ok := se.FindSinkKnownF(v, 1)
	check("FindSinkKnownF(1)", got, ok, []int{1})
	got, ok = se.FindCore(v)
	check("FindCore", got, ok, down)
	got, ok = se.FindNaive(v)
	check("FindNaive", got, ok, up)
}

// propertyGraphs returns one representative graph per family (every figure,
// a complete graph, random k-OSR and random extended k-OSR instances).
func propertyGraphs(t *testing.T, rng *rand.Rand) map[string]*graph.Digraph {
	t.Helper()
	out := make(map[string]*graph.Digraph)
	for _, fig := range graph.AllFigures() {
		out[fig.Name] = fig.G
	}
	out["complete:5"] = graph.CompleteGraph(1, 2, 3, 4, 5)
	kg, _, err := graph.GenKOSR(rng, graph.GenSpec{SinkSize: 5, NonSinkSize: 3, K: 2, ExtraEdgeP: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	out["kosr:gen"] = kg
	eg, _, _, err := graph.GenExtendedKOSR(rng, graph.GenSpec{SinkSize: 4, NonSinkSize: 2, ExtraEdgeP: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	out["extended:gen"] = eg
	return out
}

// TestSearcherMatchesBruteForce is the searcher ≡ oracle property: over
// randomized record-insertion sequences on every graph family, after every
// single insertion, every search agrees with the brute-force walk. One
// searcher serves all states of one sequence — exactly the per-process
// usage — so the test also exercises revision-driven invalidation and
// component-cache reuse.
func TestSearcherMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, g := range propertyGraphs(t, rng) {
		owners := g.Nodes()
		for trial := 0; trial < 3; trial++ {
			rng.Shuffle(len(owners), func(i, j int) { owners[i], owners[j] = owners[j], owners[i] })
			v := NewView()
			se := NewSearcher()
			assertSearcherMatches(t, se, v, name+"/empty")
			for step, owner := range owners {
				v.AddKnown(owner)
				v.SetPD(owner, g.OutSet(owner))
				// Known grows like discovery's line 5: PD contents join S_known.
				for _, tgt := range g.OutSet(owner).Sorted() {
					v.AddKnown(tgt)
				}
				assertSearcherMatches(t, se, v, fmt.Sprintf("%s/trial %d/step %d", name, trial, step))
			}
		}
	}
}

// TestSearcherReusedAcrossViews pins the per-worker pooling pattern: one
// searcher serving many unrelated views in sequence (as a scenario.Runner
// hands it from cell to cell) rebinds on each and never leaks results
// across. Interleaving the views makes stale-memo reuse fatal rather than
// silent.
func TestSearcherReusedAcrossViews(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	se := NewSearcher()
	graphs := propertyGraphs(t, rng)
	for round := 0; round < 2; round++ {
		for name, g := range graphs {
			v := FullView(g)
			assertSearcherMatches(t, se, v, name+"/reused")
		}
	}
}

// TestSearcherToleratesPDReplacement pins the generation guard: overwriting
// a received PD (which discovery never does, but the mutator API must
// survive) drops the content memos instead of serving stale candidates.
func TestSearcherToleratesPDReplacement(t *testing.T) {
	fig := graph.Fig1b()
	v := FullView(fig.G)
	se := NewSearcher()
	assertSearcherMatches(t, se, v, "fig1b/before-replacement")
	// Sever node 1: its PD now points nowhere, which changes the sink SCC.
	v.SetPD(1, model.NewIDSet())
	if v.Gen() == 0 {
		t.Fatal("PD replacement did not bump the view generation")
	}
	assertSearcherMatches(t, se, v, "fig1b/after-replacement")
}

// TestViewRevision pins the mutator API's counter semantics the searcher
// relies on: every change bumps Rev, no-ops don't, and only content
// replacement bumps Gen.
func TestViewRevision(t *testing.T) {
	v := NewView()
	if v.Rev() != 0 || v.Gen() != 0 {
		t.Fatalf("fresh view rev=%d gen=%d", v.Rev(), v.Gen())
	}
	v.SetPD(1, ids(2, 3))
	r1 := v.Rev()
	if r1 == 0 {
		t.Fatal("SetPD did not bump the revision")
	}
	v.SetPD(1, ids(3, 2)) // same set, different construction order: no-op
	if v.Rev() != r1 || v.Gen() != 0 {
		t.Fatalf("identical SetPD bumped rev/gen: rev=%d gen=%d", v.Rev(), v.Gen())
	}
	if !v.AddKnown(9) || v.Rev() != r1+1 {
		t.Fatalf("AddKnown(9) rev=%d, want %d", v.Rev(), r1+1)
	}
	if v.AddKnown(9) || v.Rev() != r1+1 {
		t.Fatal("duplicate AddKnown bumped the revision")
	}
	v.SetPD(1, ids(2)) // replacement
	if v.Gen() != 1 {
		t.Fatalf("replacement gen=%d, want 1", v.Gen())
	}
}

// TestEnumerateSubsetsLoudGuard pins the n > 30 guard as a panic: a silent
// empty enumeration would masquerade as "no sink found" if ExactLimit were
// ever raised past the mask width.
func TestEnumerateSubsetsLoudGuard(t *testing.T) {
	big := make([]model.ID, 31)
	for i := range big {
		big[i] = model.ID(i + 1)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("enumerateSubsets(31 ids) did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "31") {
			t.Fatalf("panic %v does not name the offending size", r)
		}
	}()
	enumerateSubsets(big, 1, func(model.IDSet) {})
}

// shiftedGraph returns g with every ID moved up by delta.
func shiftedGraph(g *graph.Digraph, delta model.ID) *graph.Digraph {
	out := graph.New()
	for _, u := range g.Nodes() {
		out.AddNode(u + delta)
		for _, w := range g.Out(u) {
			out.AddEdge(u+delta, w+delta)
		}
	}
	return out
}

// TestSearcherMemoKeysWellFormed pins where the per-SCC memo stores: after a
// search every (g, component) pair of the decomposition that P1 allows must be
// found under uvarint(g) ‖ component key, and nothing else may be in the map.
// searchComp's subset enumeration reuses the key buffer, so a store that read
// the buffer after the search would park the entry under the last subset's
// bare key, where no lookup ever finds it — silently defeating the memo while
// every result stays correct.
func TestSearcherMemoKeysWellFormed(t *testing.T) {
	v := FullView(graph.Fig1b().G)
	se := NewSearcher()
	want := 0
	for g := 0; g <= 2; g++ {
		se.SinksAtGExact(v, g)
		for _, comp := range se.comps {
			key := append(binary.AppendUvarint(nil, uint64(g)), comp.key...)
			_, ok := se.sccCands[string(key)]
			// collect never asks a component that P1 rules out (fewer than 2g+1
			// members), so such a pair has no entry at all.
			asked := len(comp.idx) >= 2*g+1
			if asked {
				want++
			}
			if ok != asked {
				t.Fatalf("g=%d component %v: entry under its (g, component) key %x: %v, want %v — stored under a clobbered key, or a component too small for P1 was searched", g, comp.idx, key, ok, asked)
			}
		}
		if len(se.sccCands) != want {
			t.Fatalf("after g=0..%d over %d components the per-SCC memo holds %d entries, want %d", g, len(se.comps), len(se.sccCands), want)
		}
	}
	// Fig. 1b decomposes into three components, of which one has three
	// members or more and none has five: 3 entries at g = 0, 1 at g = 1, none
	// at g = 2 (it was 3 per g while collect asked every component).
	if want != 4 {
		t.Fatalf("the per-SCC memo holds %d entries after g = 0..2, want 4", want)
	}
	if len(se.subsets) == 0 {
		t.Fatal("no per-S1 verdict facts memoized")
	}
	for key := range se.subsets {
		if key == "" || key[len(key)-1] == 0 {
			t.Fatalf("per-S1 key %x is not canonical (empty or trailing zero byte)", key)
		}
	}
}

// TestCollectSizeSkipInvisible pins that collect loses nothing by not asking
// the components P1 rules out: at every g, on every property graph and on one
// whose sink searches structurally (exact = false), it returns the candidates
// and the exact flag of the loop that asks every component. That the
// candidates are the right ones is the all-subsets oracle's word
// (TestSearcherMatchesBruteForce), not this loop's.
func TestCollectSizeSkipInvisible(t *testing.T) {
	graphs := propertyGraphs(t, rand.New(rand.NewSource(9)))
	graphs["kosr:sink=24"] = buildDef(t, "kosr:sink=24,nonsink=4,k=3", 1)
	for name, gr := range graphs {
		v := FullView(gr)
		se, all := NewSearcher(), NewSearcher()
		all.refresh(v)
		for g := v.MaxG() + 1; g >= 0; g-- {
			var want []cachedCand
			wantExact := true
			for i := range all.comps {
				ent := all.entryFor(v, g, &all.comps[i])
				wantExact = wantExact && ent.exact
				want = append(want, ent.cands...)
			}
			sortCands(want)
			got, exact := se.collect(v, g)
			if exact != wantExact || !slices.EqualFunc(got, want, func(a, b cachedCand) bool { return a.key == b.key }) {
				t.Fatalf("%s g=%d: collect returned %d candidates, exact=%v; asking every component %d, exact=%v",
					name, g, len(got), exact, len(want), wantExact)
			}
		}
	}
}

// TestSearcherKeySpaceIgnoresIDValues pins that the memo key space is built
// from interned indices, never from ID values: the same graph with every ID
// shifted by +100 and by +1<<40 memoizes exactly as many entries and finds
// the same candidates (modulo the shift) as the unshifted one, at every g.
func TestSearcherKeySpaceIgnoresIDValues(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, g := range propertyGraphs(t, rng) {
		v0 := FullView(g)
		se0 := NewSearcher()
		for _, delta := range []model.ID{100, 1 << 40} {
			vs := FullView(shiftedGraph(g, delta))
			ses := NewSearcher()
			for gt := v0.MaxG(); gt >= 0; gt-- {
				want, _ := se0.SinksAtGExact(v0, gt)
				got, exact := ses.SinksAtGExact(vs, gt)
				if !exact || len(got) != len(want) {
					t.Fatalf("%s +%d g=%d: %d candidates (exact=%v), unshifted %d", name, delta, gt, len(got), exact, len(want))
				}
				// Decimal keys order differently after a shift, so compare as sets.
				wantKeys := make(map[string]bool, len(want))
				for _, c := range want {
					wantKeys[shiftedSet(c.S1, delta).Key()+"|"+shiftedSet(c.S2, delta).Key()] = true
				}
				for _, c := range got {
					if !wantKeys[c.S1.Key()+"|"+c.S2.Key()] {
						t.Fatalf("%s +%d g=%d: candidate %v/%v has no unshifted counterpart", name, delta, gt, c.S1, c.S2)
					}
				}
			}
			if len(ses.sccCands) != len(se0.sccCands) || len(ses.subsets) != len(se0.subsets) {
				t.Fatalf("%s +%d: memo holds %d/%d entries, unshifted %d/%d", name, delta,
					len(ses.sccCands), len(ses.subsets), len(se0.sccCands), len(se0.subsets))
			}
		}
	}
}

func shiftedSet(s model.IDSet, delta model.ID) model.IDSet {
	out := model.NewIDSet()
	for id := range s {
		out.Add(id + delta)
	}
	return out
}

// TestSearcherManyRecords runs the searcher past every width the old key
// spaces had (64 IDs, 64 records): ten 7-cliques chained by single edges,
// inserted in random order. After every insertion a warm searcher agrees
// with a fresh one at every g that can hold a candidate, and on the full view
// each clique's candidates are the brute-force ones of that clique's records
// alone (a valid S1 lies inside one SCC, and the chain edges join no two).
func TestSearcherManyRecords(t *testing.T) {
	g := graph.New()
	var cliques [][]model.ID
	for c := 0; c < 10; c++ {
		var members []model.ID
		for i := 0; i < 7; i++ {
			members = append(members, model.ID(1000*c+i+1))
		}
		cliques = append(cliques, members)
		for _, u := range members {
			for _, w := range members {
				g.AddEdge(u, w)
			}
		}
		if c > 0 {
			g.AddEdge(cliques[c-1][6], members[0])
		}
	}
	full := FullView(g)
	owners := g.Nodes()
	rand.New(rand.NewSource(70)).Shuffle(len(owners), func(i, j int) { owners[i], owners[j] = owners[j], owners[i] })
	v := NewView()
	warm := NewSearcher()
	for step, owner := range owners {
		v.AddKnown(owner)
		v.SetPD(owner, full.PD[owner])
		for tgt := range full.PD[owner] {
			v.AddKnown(tgt)
		}
		for gt := 0; gt <= 3; gt++ {
			got, gotExact := warm.SinksAtGExact(v, gt)
			want, wantExact := NewSearcher().SinksAtGExact(v, gt)
			if gotExact != wantExact || !candsEqual(got, want) {
				t.Fatalf("step %d g=%d: warm searcher %v (exact=%v), fresh searcher %v (exact=%v)", step, gt, got, gotExact, want, wantExact)
			}
		}
	}
	if len(v.PD) != 70 {
		t.Fatalf("view holds %d records, want 70", len(v.PD))
	}
	for gt := 0; gt <= 3; gt++ {
		var want []Candidate
		for _, members := range cliques {
			// The clique's own records, every process still known: S2 may
			// name the next clique's entry point.
			cv := NewView()
			cv.Known = v.Known
			for _, u := range members {
				cv.PD[u] = v.PD[u]
			}
			want = append(want, bruteSinksAtG(cv, gt)...)
		}
		sortCandidates(want)
		got, exact := warm.SinksAtGExact(v, gt)
		if !exact || !candsEqual(got, want) {
			t.Fatalf("full view g=%d: searcher %v (exact=%v), per-clique brute force %v", gt, got, exact, want)
		}
	}
}

// TestSearcherPeelMatchesDirectedCore holds the index-space peel to the
// map-based one it replaced in the search: over random insertion sequences on
// planted and unplanted families, after every insertion, for every component
// of the decomposition and every k the search can ask for, Searcher.peel on
// the CSR returns exactly inducedOf(comp).DirectedCore(k) in ascending order
// (k ≤ 1: the whole component), and leaves its degree scratch as it found it.
// IDs are shifted past 64 and past 2^32 as in the key-space tests: the peel
// works on positions, never on ID values.
func TestSearcherPeelMatchesDirectedCore(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	kept, partial, emptied := 0, 0, 0
	for _, def := range []string{
		"kosr:sink=9,nonsink=5,k=3,extra=0.2", "extended:core=7,noncore=4,extra=0.2",
		"er:n=24,p=0.2", "er:n=18,p=0.45", "geo:n=24,r=0.35", "sf:n=24,m=3",
	} {
		d, err := graph.ParseDef(def)
		if err != nil {
			t.Fatal(err)
		}
		for i, delta := range []model.ID{0, 60, 1 << 33} {
			b, err := d.Build(int64(i + 1))
			if err != nil {
				t.Fatal(err)
			}
			g := shiftedGraph(b.G, delta)
			owners := g.Nodes()
			rng.Shuffle(len(owners), func(i, j int) { owners[i], owners[j] = owners[j], owners[i] })
			v := NewView()
			se := NewSearcher()
			for step, owner := range owners {
				v.AddKnown(owner)
				v.SetPD(owner, g.OutSet(owner))
				se.refresh(v)
				for c := range se.comps {
					comp := &se.comps[c]
					induced := se.inducedOf(comp)
					for k := 0; k <= v.MaxG()+2; k++ {
						want := induced.NodeSet()
						if k > 1 {
							want = induced.DirectedCore(k)
						}
						var got []model.ID
						for _, u := range se.peel(comp.idx, int32(k)) {
							got = append(got, se.ids[u])
						}
						if !slices.Equal(got, want.Sorted()) {
							t.Fatalf("%s +%d step %d: peel(%v, %d) = %v, DirectedCore gives %v", def, delta, step, induced.Nodes(), k, got, want)
						}
						switch len(got) {
						case len(comp.idx):
							kept++
						case 0:
							emptied++
						default:
							partial++
						}
					}
				}
				for u, d := range se.deg {
					if d != -1 && u%2 == 0 {
						t.Fatalf("%s +%d step %d: deg[%d] = %d after the peels, want -1", def, delta, step, u, d)
					}
				}
			}
		}
	}
	if kept == 0 || partial == 0 || emptied == 0 {
		t.Fatalf("peels that kept everything / something / nothing: %d / %d / %d — one outcome never ran", kept, partial, emptied)
	}
}

// TestStructuralFallback executes the > ExactLimit path, which has exactly
// one implementation and no brute-force twin (2^24 subsets): on a complete
// graph and on a planted k-OSR graph whose sink is a 24-node SCC, every g at
// which the peeled pool is still larger than ExactLimit must be reported
// inexact, every candidate returned must satisfy the literal View.IsSink, and
// both find rules must still return the planted sink.
func TestStructuralFallback(t *testing.T) {
	for _, tc := range []struct {
		def       string
		inexactTo int // largest g whose peeled pool exceeds ExactLimit
	}{
		{"complete:24", 11},               // P1 (2g+1 ≤ 24) is the only limit
		{"kosr:sink=24,nonsink=4,k=3", 2}, // the (g+1)-core of a κ=3 sink is empty past g=2
	} {
		d, err := graph.ParseDef(tc.def)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		sink := b.Sink
		if sink.Len() == 0 {
			sink = b.G.NodeSet()
		}
		v := FullView(b.G)
		se := NewSearcher()
		for g := v.MaxG(); g >= 0; g-- {
			cands, exact := se.SinksAtGExact(v, g)
			if exact != (g > tc.inexactTo) {
				t.Fatalf("%s g=%d: exact=%v with a %d-node sink SCC", tc.def, g, exact, sink.Len())
			}
			if g <= tc.inexactTo && len(cands) == 0 {
				t.Fatalf("%s g=%d: the fallback found no candidate", tc.def, g)
			}
			for _, c := range cands {
				if !v.IsSink(g, c.S1, c.S2) {
					t.Fatalf("%s g=%d: candidate %v / %v fails the literal isSink", tc.def, g, c.S1, c.S2)
				}
			}
		}
		if c, ok := se.FindSinkKnownF(v, b.F); !ok || !c.Members().Equal(sink) {
			t.Fatalf("%s: FindSinkKnownF(%d) = %v, %v, want the planted sink", tc.def, b.F, c.Members(), ok)
		}
		if c, ok := se.FindCore(v); !ok || !c.Members().Equal(sink) || c.G != tc.inexactTo {
			t.Fatalf("%s: FindCore = g=%d %v, %v, want the planted sink at g=%d", tc.def, c.G, c.Members(), ok, tc.inexactTo)
		}
	}
}

// TestSearcherOutTargetsPastEnumWidth covers the enumerator's lower-bound
// out-target counts: a pool that points at more than 64 distinct external
// targets overflows poolEnum's interned-target mask, every yield is then
// flagged inexact, and the searcher must recount on the view. Six records, so
// brute force decides.
func TestSearcherOutTargetsPastEnumWidth(t *testing.T) {
	v := NewView()
	for u := model.ID(1); u <= 6; u++ {
		pd := model.NewIDSet()
		for w := model.ID(1); w <= 6; w++ {
			if w != u {
				pd.Add(w)
			}
		}
		if u == 1 {
			for x := model.ID(1001); x <= 1070; x++ {
				pd.Add(x)
			}
		}
		v.AddKnown(u)
		v.SetPD(u, pd)
		for tgt := range pd {
			v.AddKnown(tgt)
		}
	}
	se := NewSearcher()
	assertSearcherMatches(t, se, v, "70 external targets")
	if se.enum.extExact {
		t.Fatal("the pool's external targets fit the enumerator's mask — the lower-bound path did not run")
	}
}

// searcherAllocBudget gates the steady-state allocation count of a repeated
// search on an unchanged view (the searcher analogue of the scenario
// package's TestCompiledRunAllocsSteadyState). A memo-hit search allocates
// only the result — the winner's S1 and S2 sets, built at the API edge
// (measured: 4; the budget is that reading + 20 %). A hit renders its key into
// a reused buffer and looks it up without materializing a string; a memo-less
// search re-runs SCC, peel, enumeration and max-flow and allocates ~95 (memo
// entries, candidate slices and keys), so any regression of the memo mechanism
// (a clobbered key, a string materialized on the hit path) costs multiples of
// the budget.
const searcherAllocBudget = 5

// TestSearcherAllocsSteadyState gates the scratch-reuse win from both
// sides: under the absolute budget, and far under a fresh searcher's search
// of the same view.
func TestSearcherAllocsSteadyState(t *testing.T) {
	fig := graph.Fig1b()
	v := FullView(fig.G)
	se := NewSearcher()
	if _, ok := se.FindSinkKnownF(v, fig.F); !ok {
		t.Fatal("sink not found")
	}
	warm := testing.AllocsPerRun(10, func() {
		if _, ok := se.FindSinkKnownF(v, fig.F); !ok {
			t.Fatal("sink not found")
		}
	})
	scratch := testing.AllocsPerRun(10, func() {
		if _, ok := findSinkKnownF(v, fig.F); !ok {
			t.Fatal("sink not found")
		}
	})
	t.Logf("allocs/search: steady-state %.0f, fresh searcher %.0f (budget %d)", warm, scratch, searcherAllocBudget)
	if warm > searcherAllocBudget {
		t.Fatalf("steady-state search allocates %.0f objects (budget %d) — the searcher's scratch reuse regressed", warm, searcherAllocBudget)
	}
	if warm*4 > scratch {
		t.Fatalf("steady-state search allocates %.0f objects vs %.0f on a fresh searcher — the memo is not engaging", warm, scratch)
	}
}

// TestEngineS2MatchesDeriveS2 is the differential test of where S2 comes
// from: the engine counts it off its interned PD lists (Searcher.outside),
// the oracle is the literal View.DeriveS2, and the two share no code. Every
// candidate at every g must carry exactly DeriveS2(S1, g), and the member
// slice CheckExtendedKOSR keys a sink by must be S1 ∪ S2 ascending — on the
// figures and 200 random planted and unplanted graphs, each as its full view,
// as a view with records missing (S_known ⊋ S_received) and as a view whose
// S_known misses processes its records point at. The last kind is what
// exercises P4's Known clause: a process more than g members of S1 point at
// is not in S2 while the view has not heard of it.
func TestEngineS2MatchesDeriveS2(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	graphs := map[string]*graph.Digraph{}
	for _, fig := range graph.AllFigures() {
		graphs[fig.Name] = fig.G
	}
	for _, def := range []string{
		"er:n=14,p=0.3", "geo:n=12,r=0.5", "sf:n=14,m=3",
		"kosr:sink=7,nonsink=4,k=2,extra=0.2", "extended:core=6,noncore=4,extra=0.2",
	} {
		d, err := graph.ParseDef(def)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 40; seed++ {
			b, err := d.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			graphs[fmt.Sprintf("%s#%d", def, seed)] = b.G
		}
	}
	cands, nonEmpty, unheard := 0, 0, 0
	for name, g := range graphs {
		owners := g.Nodes()
		rng.Shuffle(len(owners), func(i, j int) { owners[i], owners[j] = owners[j], owners[i] })
		// deaf never hears of a third of the processes unless it holds their
		// record, however many of its records point at them.
		unheardOf := model.NewIDSet()
		for _, u := range owners {
			if rng.Intn(3) == 0 {
				unheardOf.Add(u)
			}
		}
		partial, deaf := NewView(), NewView()
		for _, owner := range owners[:len(owners)/2+rng.Intn(len(owners)/2+1)] {
			partial.AddKnown(owner)
			partial.SetPD(owner, g.OutSet(owner))
			deaf.AddKnown(owner)
			deaf.SetPD(owner, g.OutSet(owner))
			for _, tgt := range g.OutSet(owner).Sorted() {
				partial.AddKnown(tgt)
				if !unheardOf.Has(tgt) {
					deaf.AddKnown(tgt)
				}
			}
		}
		for vi, v := range []*View{FullView(g), partial, deaf} {
			se := NewSearcher()
			for gt := v.MaxG(); gt >= 0; gt-- {
				got, _ := se.SinksAtGExact(v, gt)
				pairs, _ := se.collect(v, gt)
				for i, c := range got {
					cands++
					want := v.DeriveS2(c.S1, gt)
					if !c.S2.Equal(want) {
						t.Fatalf("%s view %d g=%d S1=%v: engine S2 %v, DeriveS2 %v", name, vi, gt, c.S1, c.S2, want)
					}
					if members := se.members(v, gt, pairs[i], nil); !slices.Equal(members, c.S1.Union(want).Sorted()) {
						t.Fatalf("%s view %d g=%d S1=%v: member slice %v, want S1 ∪ %v ascending", name, vi, gt, c.S1, members, want)
					}
					if want.Len() > 0 {
						nonEmpty++
					}
					for tgt := range v.OutTargets(c.S1) {
						if !v.Known.Has(tgt) && v.SourceCount(c.S1, tgt) > gt {
							unheard++
						}
					}
				}
			}
		}
	}
	t.Logf("%d graphs, %d candidates, %d with a non-empty S2, %d targets kept out of S2 by the Known clause alone", len(graphs), cands, nonEmpty, unheard)
	if nonEmpty == 0 || unheard == 0 {
		t.Fatalf("non-empty S2s: %d, targets only the Known clause excludes: %d — a clause of P4 never ran", nonEmpty, unheard)
	}
}
