package kosr

import (
	"math/bits"
	"math/rand"
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

// assertSearcherMatches compares every search the protocol stack runs — all
// thresholds, exactness flags, and the three find rules — between the
// incremental searcher and the from-scratch View methods on one view state.
func assertSearcherMatches(t *testing.T, se *Searcher, v *View, tag string) {
	t.Helper()
	for g := 0; g <= v.MaxG()+1; g++ {
		want, wantExact := v.SinksAtGExact(g)
		got, gotExact := se.SinksAtGExact(v, g)
		if gotExact != wantExact {
			t.Fatalf("%s: SinksAtGExact(%d) exact=%v, from-scratch %v", tag, g, gotExact, wantExact)
		}
		if !candsEqual(got, want) {
			t.Fatalf("%s: SinksAtG(%d) diverges:\n  incremental: %v\n  from-scratch: %v", tag, g, got, want)
		}
	}
	type rule struct {
		name string
		inc  func() (Candidate, bool)
		ref  func() (Candidate, bool)
	}
	rules := []rule{
		{"FindSinkKnownF(1)", func() (Candidate, bool) { return se.FindSinkKnownF(v, 1) }, func() (Candidate, bool) { return v.FindSinkKnownF(1) }},
		{"FindCore", func() (Candidate, bool) { return se.FindCore(v) }, func() (Candidate, bool) { return v.FindCore() }},
		{"FindNaive", func() (Candidate, bool) { return se.FindNaive(v) }, func() (Candidate, bool) { return v.FindNaive() }},
	}
	for _, r := range rules {
		got, gotOK := r.inc()
		want, wantOK := r.ref()
		if gotOK != wantOK {
			t.Fatalf("%s: %s ok=%v, from-scratch %v", tag, r.name, gotOK, wantOK)
		}
		if gotOK && (got.G != want.G || !got.S1.Equal(want.S1) || !got.S2.Equal(want.S2)) {
			t.Fatalf("%s: %s = %+v, from-scratch %+v", tag, r.name, got, want)
		}
	}
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

// TestSearcherMatchesFromScratch is the incremental ≡ from-scratch property:
// over randomized record-insertion sequences on every graph family, after
// every single insertion, every search agrees with the from-scratch View
// methods. One searcher serves all states of one sequence — exactly the
// per-process usage — so the test also exercises revision-driven
// invalidation and component-cache reuse.
func TestSearcherMatchesFromScratch(t *testing.T) {
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
				assertSearcherMatches(t, se, v, name)
				_ = step
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

// TestForEachSubsetUpToNoAliasing pins forEachSubsetUpTo against the classic
// append-aliasing hazard: sibling recursion branches extend the same parent
// prefix via append(cur, ids[i]), so a shared backing array could leak one
// branch's tail into the next. The reference is an independent bit-mask
// enumeration; every subset of size ≤ maxSize must arrive exactly once with
// exactly its own members.
func TestForEachSubsetUpToNoAliasing(t *testing.T) {
	ids := []model.ID{2, 3, 5, 7, 11, 13}
	for maxSize := 0; maxSize <= len(ids); maxSize++ {
		got := make(map[string]int)
		forEachSubsetUpTo(ids, maxSize, func(s model.IDSet) bool {
			got[s.Key()]++
			return false
		})
		want := make(map[string]int)
		for mask := 0; mask < 1<<len(ids); mask++ {
			if bits.OnesCount(uint(mask)) > maxSize {
				continue
			}
			s := model.NewIDSet()
			for i := range ids {
				if mask&(1<<i) != 0 {
					s.Add(ids[i])
				}
			}
			want[s.Key()]++
		}
		if len(got) != len(want) {
			t.Fatalf("maxSize=%d: yielded %d distinct subsets, want %d", maxSize, len(got), len(want))
		}
		for key, n := range got {
			if n != 1 {
				t.Fatalf("maxSize=%d: subset {%s} yielded %d times (aliasing between sibling branches)", maxSize, key, n)
			}
			if _, ok := want[key]; !ok {
				t.Fatalf("maxSize=%d: yielded subset {%s} is not a subset of ids (corrupted contents)", maxSize, key)
			}
		}
	}
	// Early-stop contract: a true return ends the enumeration.
	calls := 0
	forEachSubsetUpTo(ids, 2, func(model.IDSet) bool { calls++; return calls == 3 })
	if calls != 3 {
		t.Fatalf("early stop after 3 yields, got %d", calls)
	}
}

// TestSearcherMemoKeysWellFormed pins the per-SCC memo's key spaces. Views
// whose IDs all fit 1..64 are maskable: entries land in the mask-keyed map
// under the component's content mask (a subset of the received-ID mask), and
// the string maps stay empty. Views with larger IDs fall back to the string
// maps, whose store key must be of the "g|members" form — searchComp's subset
// enumeration reuses the key buffer, so a store that reads the buffer after
// the search would park the entry under the last subset's bare key, where no
// lookup ever finds it, silently defeating the memo while every result stays
// correct.
func TestSearcherMemoKeysWellFormed(t *testing.T) {
	v := FullView(graph.Fig1b().G)
	se := NewSearcher()
	if _, ok := se.FindCore(v); !ok {
		t.Fatal("core not found")
	}
	if !se.maskable {
		t.Fatal("Fig1b view (IDs ≤ 64) should be maskable")
	}
	if len(se.sccCandsM) == 0 {
		t.Fatal("no per-SCC entries memoized in the mask-keyed map")
	}
	if len(se.sccCands) != 0 || len(se.subsets) != 0 {
		t.Fatalf("maskable view leaked into the string maps (%d sccCands, %d subsets)", len(se.sccCands), len(se.subsets))
	}
	var universe uint64
	for id := range v.PD {
		universe |= 1 << (id - 1)
	}
	for mk := range se.sccCandsM {
		if mk.mask == 0 || mk.mask&^universe != 0 {
			t.Fatalf("per-SCC mask key %b is not a nonempty subset of the received-ID mask %b", mk.mask, universe)
		}
	}

	// Shift every ID by +100: same graph, IDs > 64, string-keyed path.
	base := graph.Fig1b().G
	shifted := graph.New()
	for _, u := range base.Nodes() {
		shifted.AddNode(u + 100)
	}
	for _, u := range base.Nodes() {
		for _, w := range base.Out(u) {
			shifted.AddEdge(u+100, w+100)
		}
	}
	vs := FullView(shifted)
	ses := NewSearcher()
	c1, ok1 := ses.FindCore(vs)
	if !ok1 {
		t.Fatal("core not found in shifted view")
	}
	if ses.maskable {
		t.Fatal("shifted view (IDs > 64) should not be maskable")
	}
	if len(ses.sccCands) == 0 {
		t.Fatal("no per-SCC entries memoized in the string-keyed map")
	}
	for key := range ses.sccCands {
		if !strings.Contains(key, "|") {
			t.Fatalf("per-SCC memo key %q is not of the form g|members — the entry was stored under a clobbered key", key)
		}
	}
	// The two key spaces must agree on the result modulo the shift.
	c0, _ := se.FindCore(v)
	if c1.G != c0.G || c1.S1.Len() != c0.S1.Len() {
		t.Fatalf("shifted core (g=%d, |S1|=%d) disagrees with unshifted (g=%d, |S1|=%d)", c1.G, c1.S1.Len(), c0.G, c0.S1.Len())
	}
	for id := range c0.S1 {
		if !c1.S1.Has(id + 100) {
			t.Fatalf("shifted core S1 missing %d+100", id)
		}
	}
}

// searcherAllocBudget gates the steady-state allocation count of a repeated
// search on an unchanged view (the searcher analogue of the scenario
// package's TestCompiledRunAllocsSteadyState). A memo-hit search allocates
// only the result — the winner's derived S2, a few objects (measured: 4).
// With the mask-keyed memos a hit performs no key rendering at all, so the
// budget is re-pinned at 2× the measured steady state: the from-scratch path
// re-runs SCC, peel, enumeration and max-flow, allocating hundreds, and any
// regression of the memo mechanism (a clobbered key, a string render on the
// hit path) costs multiples of the budget without flaking on allocator
// noise.
const searcherAllocBudget = 8

// TestSearcherAllocsSteadyState gates the scratch-reuse win from both
// sides: under the absolute budget, and far under the from-scratch search
// for the same view.
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
		if _, ok := v.FindSinkKnownF(fig.F); !ok {
			t.Fatal("sink not found")
		}
	})
	t.Logf("allocs/search: incremental steady-state %.0f, from-scratch %.0f (budget %d)", warm, scratch, searcherAllocBudget)
	if warm > searcherAllocBudget {
		t.Fatalf("steady-state search allocates %.0f objects (budget %d) — the searcher's scratch reuse regressed", warm, searcherAllocBudget)
	}
	if warm*4 > scratch {
		t.Fatalf("steady-state search allocates %.0f objects vs %.0f from scratch — the memo is not engaging", warm, scratch)
	}
}
