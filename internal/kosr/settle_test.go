package kosr

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
)

// testKappa decides P2 on the test side: κ(G[S1]) ≥ k on a graph.FlowScratch
// loaded with the subgraph S1's records induce, through none of settle, the
// facts memo or the searcher's flow engine. Verdicts are memoized by S1 and k
// for one graph: its records never change, so they hold in every view drawn
// from it.
type testKappa map[string]bool

func (tk testKappa) holds(v *View, s1 model.IDSet, k int) bool {
	key := s1.Key() + "/" + strconv.Itoa(k)
	if holds, ok := tk[key]; ok {
		return holds
	}
	induced := graph.New()
	for u := range s1 {
		induced.AddNode(u)
		for w := range v.PD[u] {
			if w != u && s1.Has(w) {
				induced.AddEdge(u, w)
			}
		}
	}
	var sc graph.FlowScratch
	sc.Load(induced)
	holds := sc.IsKStronglyConnected(k)
	tk[key] = holds
	return holds
}

// level is a sinkLevel: collect's candidates at g, each kept only if P2
// holds by holds — the level fully settled, as the search held it before P2
// was settled lazily.
func (tk testKappa) level(se *Searcher, v *View, g int) ([]Candidate, bool) {
	pairs, exact := se.collect(v, g)
	var out []Candidate
	for _, c := range pairs {
		if cand := se.candidate(v, g, c); tk.holds(v, cand.S1, g+1) {
			out = append(out, cand)
		}
	}
	return out, exact
}

// eagerWorst is worstPlacement with every witness settled when it is filed,
// on the test side: only the margin's candidates whose P2 holds are filed,
// and a subset is skipped when one of them survives it.
func eagerWorst(g *graph.Digraph, f int, tk testKappa) (best Placement, graded int) {
	nodes := g.Nodes()
	v := borrowedView(g)
	se := NewSearcher()
	best.Margin = int(^uint(0) >> 1)
	var wits []model.IDSet
	armed := false
	forEachCombination(len(nodes), f, func(idx []int) bool {
		byz := model.NewIDSet()
		for _, i := range idx {
			byz.Add(nodes[i])
		}
		for _, w := range wits {
			if w.Intersect(byz).Len() == 0 {
				return false
			}
		}
		m, cands := placementMargin(se, g, v, byz)
		graded++
		if m < best.Margin {
			best = Placement{Byz: byz, Margin: m}
		}
		if m == -1 {
			return true
		}
		if graded == 1 && binomial(len(nodes), f) > 1 {
			armed = newWitnesses(se, v, nodes) != nil
		}
		if armed {
			for _, c := range cands {
				if s1 := se.candidate(v, m, c).S1; tk.holds(v, s1, m+1) {
					wits = append(wits, s1)
				}
			}
		}
		return false
	})
	return best, graded
}

// openWitnessGraph leaves WorstPlacement a witness whose P2 is open and
// fails. p2–p9 are one component: the triangle A = {p2,p3,p4}, pointing at p5
// only, and the bowtie B = {p5,…,p9}, two triangles sharing p7, pointing at p2
// only; p1 points at p2 from outside. At g = 1 both pass P1 and P3, and both
// have in- and out-degree 2 inside, too little for degree exit 1 to decide
// them — but κ(B) = 1. A comes first in key order and passes, so the search
// leaves B open. Grading {p1} files A, B and A ∪ B (open and failing too);
// {p2} is disjoint from B alone, and taking p2's record out leaves no sink at
// all (margin -1), so it must be graded: a B counted as passing would skip it
// and lose the worst placement.
func openWitnessGraph() *graph.Digraph {
	g := graph.New()
	for _, tri := range [][3]model.ID{{2, 3, 4}, {5, 6, 7}, {7, 8, 9}} {
		for _, u := range tri {
			for _, w := range tri {
				if u != w {
					g.AddEdge(u, w)
				}
			}
		}
	}
	g.AddEdge(4, 5)
	g.AddEdge(9, 2)
	g.AddEdge(1, 2)
	return g
}

// candidateKeys renders a candidate list for comparison.
func candidateKeys(cs []Candidate) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = fmt.Sprintf("g%d %s|%s", c.G, c.S1.Key(), c.S2.Key())
	}
	return out
}

// TestLazySettleMatchesEager is the differential test of settling P2 only for
// the candidates a caller reads. The reference settles every candidate on the
// test side (testKappa); on every property graph, openWitnessGraph and
// graph_check's five defs at seeds 1–50:
//
//   - at every replay prefix and every g, FindSinkKnownF returns the first
//     element of the fully settled level, SinksAtGExact returns that level,
//     and FindCore and FindNaive the first element of the first non-empty
//     level down and up;
//   - the CheckExtendedKOSR and CheckBFTCUPFT reports equal the pair oracles
//     run on fully settled levels;
//   - WorstPlacement's placement and graded count equal eagerWorst's.
//
// A deferred candidate counted as passing turns all three red.
func TestLazySettleMatchesEager(t *testing.T) {
	type input struct {
		g *graph.Digraph
		f int // the def's fault threshold; -1 for a property graph
	}
	inputs := make(map[string]input)
	for name, g := range propertyGraphs(t, rand.New(rand.NewSource(57))) {
		inputs[name] = input{g, -1}
	}
	inputs["open-witness"] = input{openWitnessGraph(), -1}
	for _, s := range graphCheckDefs {
		d, err := graph.ParseDef(s)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 50; seed++ {
			b, err := d.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			inputs[fmt.Sprintf("%s seed %d", s, seed)] = input{b.G, b.F}
		}
	}
	searches := 0
	for name, in := range inputs {
		tk := make(testKappa)
		// A replay runs the settled reference on searchers of its own, one for
		// each fully settled path: production's settle (SinksAtGExact) and the
		// test side's.
		full, ref := NewSearcher(), NewSearcher()
		NewSearchReplay(in.g).Run(func(se *Searcher, v *View) bool {
			levels := make([][]Candidate, v.MaxG()+1)
			for g := range levels {
				levels[g], _ = tk.level(ref, v, g)
				if got, _ := full.SinksAtGExact(v, g); !candsEqual(got, levels[g]) {
					t.Fatalf("%s, %d records, g=%d: SinksAtGExact %v, settled on the test side %v",
						name, len(v.PD), g, candidateKeys(got), candidateKeys(levels[g]))
				}
			}
			check := func(rule string, got Candidate, ok bool, gs func(i int) int) {
				t.Helper()
				searches++
				for i := range levels {
					if want := levels[gs(i)]; len(want) > 0 {
						if !ok || !candsEqual([]Candidate{got}, want[:1]) {
							t.Fatalf("%s, %d records: %s = %+v (found %v), first of the settled level %+v", name, len(v.PD), rule, got, ok, want[0])
						}
						return
					}
				}
				if ok {
					t.Fatalf("%s, %d records: %s = %+v, no settled level has a candidate", name, len(v.PD), rule, got)
				}
			}
			for g := range levels {
				got, ok := se.FindSinkKnownF(v, g)
				check(fmt.Sprintf("FindSinkKnownF(%d)", g), got, ok, func(int) int { return g })
			}
			got, ok := se.FindCore(v)
			check("FindCore", got, ok, func(i int) int { return len(levels) - 1 - i })
			got, ok = se.FindNaive(v)
			check("FindNaive", got, ok, func(i int) int { return i })
			return false
		})

		ks, fs := []int{1, 2, 3}, []int{0, 1, 2}
		if in.f >= 0 {
			ks, fs = []int{in.f + 1}, []int{in.f}
		}
		for _, k := range ks {
			got, want := CheckExtendedKOSR(in.g, k), checkExtendedKOSRByPairs(in.g, k, tk.level)
			if got.OK != want.OK || !got.Core.Equal(want.Core) || got.FG != want.FG || got.Reason != want.Reason || want.Exact && !got.Exact {
				t.Fatalf("%s k=%d: CheckExtendedKOSR %+v, from settled levels %+v", name, k, got, want)
			}
		}
		for _, f := range fs {
			none := model.NewIDSet()
			got, want := CheckBFTCUPFT(in.g, none, f), checkBFTCUPFTByPairs(in.g, none, f, tk.level)
			if got.OK != want.OK || !got.Core.Equal(want.Core) || got.FG != want.FG || got.Reason != want.Reason {
				t.Fatalf("%s f=%d: CheckBFTCUPFT %+v, from settled levels %+v", name, f, got, want)
			}
			if f > 2 {
				continue
			}
			p, graded, err := worstPlacement(NewSearcher(), in.g, f)
			if err != nil {
				t.Fatal(err)
			}
			if want, wantGraded := eagerWorst(in.g, f, tk); p.Margin != want.Margin || !p.Byz.Equal(want.Byz) || graded != wantGraded {
				t.Fatalf("%s f=%d: WorstPlacement %v at margin %d after %d subsets; witnesses settled when filed: %v at %d after %d",
					name, f, p.Byz, p.Margin, graded, want.Byz, want.Margin, wantGraded)
			}
		}
	}
	t.Logf("%d graphs, %d first-candidate searches", len(inputs), searches)
}

// TestKappaFlowsPerCall pins how many κ flows the search runs on graph_check's
// five families at seeds 7001–7020, per call: the searcher behind
// CheckBFTCUPFT and CheckExtendedKOSR (at F+1, no Byzantine process),
// WorstPlacement (f = min(F, 2)) and a discovery replay (FindSinkKnownF on
// kosr, FindCore elsewhere). The counts repeat exactly; degree exit 1 answers
// every κ query of the extended and sf families. Settling every candidate, as
// the search did before P2 went lazy, ran 7,027, 7,027, 253 and 8,658 flows
// on the kosr family, 14 and 4,489 in er's placements and replays, and 3,489
// and 7,783 in geo's. A rise means P2 is settled for a candidate no caller
// reads.
func TestKappaFlowsPerCall(t *testing.T) {
	type counts struct{ bftcupft, extended, worst, replay int }
	want := map[string]counts{
		"kosr:sink=15,nonsink=9,k=3,extra=0.2": {406, 406, 253, 355},
		"extended:core=10,noncore=6,extra=0.2": {0, 0, 0, 0},
		"er:n=20,p=0.3":                        {0, 0, 14, 413},
		"geo:n=16,r=0.5":                       {0, 0, 2349, 2686},
		"sf:n=20,m=4":                          {0, 0, 0, 0},
	}
	const seeds = 20
	for _, s := range graphCheckDefs {
		d, err := graph.ParseDef(s)
		if err != nil {
			t.Fatal(err)
		}
		var got counts
		for seed := int64(7001); seed < 7001+seeds; seed++ {
			b, err := d.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			se := NewSearcher()
			checkBFTCUPFT(se, b.G, model.NewIDSet(), b.F)
			got.bftcupft += se.kappaFlows()
			se = NewSearcher()
			checkExtendedKOSR(se, b.G, b.F+1)
			got.extended += se.kappaFlows()
			se = NewSearcher()
			if _, _, err := worstPlacement(se, b.G, min(b.F, 2)); err != nil {
				t.Fatal(err)
			}
			got.worst += se.kappaFlows()
			NewSearchReplay(b.G).Run(func(se *Searcher, v *View) bool {
				var hit bool
				if d.Kind == graph.DefKOSR {
					_, hit = se.FindSinkKnownF(v, b.F)
				} else {
					_, hit = se.FindCore(v)
				}
				if len(v.PD) == b.G.NumNodes() {
					got.replay += se.kappaFlows()
				}
				return hit
			})
		}
		per := func(n int) float64 { return float64(n) / seeds }
		t.Logf("%s: κ flows per graph: CheckBFTCUPFT %.2f, CheckExtendedKOSR %.2f, WorstPlacement %.2f, replay %.2f",
			s, per(got.bftcupft), per(got.extended), per(got.worst), per(got.replay))
		if got != want[s] {
			t.Errorf("%s at seeds %d–%d: κ flows %+v, want %+v", s, 7001, 7000+seeds, got, want[s])
		}
	}
}
