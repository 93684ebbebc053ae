package matrix

import (
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/scenario"
)

// freshSearch runs every search on a brand-new kosr.Searcher, so no memo, no
// decomposition and no scratch survives from one call to the next.
type freshSearch struct{}

func (freshSearch) FindSinkKnownF(v *kosr.View, f int) (kosr.Candidate, bool) {
	return kosr.NewSearcher().FindSinkKnownF(v, f)
}
func (freshSearch) FindCore(v *kosr.View) (kosr.Candidate, bool) {
	return kosr.NewSearcher().FindCore(v)
}
func (freshSearch) FindNaive(v *kosr.View) (kosr.Candidate, bool) {
	return kosr.NewSearcher().FindNaive(v)
}

// assertSearchTransparent runs every cell of src twice with tracing on —
// once on the pooled, memo-warm kosr.Searchers the stack uses, once with
// freshSearch injected per node — and requires byte-identical per-cell trace
// digests and graded outcomes. This is the memo-transparency contract end to
// end: committee-adoption timing is trace-visible, so a searcher that has
// served earlier knowledge events, earlier thresholds and earlier cells must
// return exactly what a fresh one would at every knowledge event; only the
// work per invocation may shrink.
func assertSearchTransparent(t *testing.T, src CellSource) {
	t.Helper()
	var inc, ref scenario.Runner
	ref.SearchFactory = func() kosr.Search { return freshSearch{} }
	for i := 0; i < src.Len(); i++ {
		p := src.Cell(i).Params
		c, err := p.Compile()
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		got, err := inc.Run(c, p.Seed, true)
		if err != nil {
			t.Fatalf("cell %d (pooled searchers): %v", i, err)
		}
		gotDigest, gotEvents, gotConsensus := got.TraceDigest, got.TraceEvents, got.Consensus()
		want, err := ref.Run(c, p.Seed, true)
		if err != nil {
			t.Fatalf("cell %d (fresh searchers): %v", i, err)
		}
		if gotEvents == 0 {
			t.Fatalf("cell %d recorded no trace events — transparency check is vacuous", i)
		}
		if gotDigest != want.TraceDigest || gotEvents != want.TraceEvents {
			t.Fatalf("cell %d (%s): pooled searchers diverge from fresh ones: %s/%d vs %s/%d",
				i, p.ID(), gotDigest[:16], gotEvents, want.TraceDigest[:16], want.TraceEvents)
		}
		if gotConsensus != want.Consensus() {
			t.Fatalf("cell %d (%s): graded verdict diverges between pooled and fresh searchers", i, p.ID())
		}
	}
}

// TestSearchEngineTransparentStandardSweep pins pooled ≡ fresh-searcher
// per-cell trace digests on the standard sweep — every protocol family,
// both network models, clean and Byzantine placements.
func TestSearchEngineTransparentStandardSweep(t *testing.T) {
	src, err := StandardSweep(Seeds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	assertSearchTransparent(t, src)
}

// TestSearchEngineTransparentExtendedKOSR pins the same contract on the
// extended-KOSR sweep, where every cell builds its own random graph and the
// Core search (the heaviest search the stack runs) fires on every knowledge
// update.
func TestSearchEngineTransparentExtendedKOSR(t *testing.T) {
	a := Axes{
		Name:   "extended-search-transparency",
		Graphs: []graph.Def{def(t, "extended:core=4,noncore=2,extra=0.2")},
		Modes:  []core.Mode{core.ModeUnknownF},
		Nets:   []scenario.NetParams{{Kind: scenario.NetSync}},
		Seeds:  Seeds(1, 6),
	}
	src, err := a.Source()
	if err != nil {
		t.Fatal(err)
	}
	assertSearchTransparent(t, src)
}
