package kosr

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
)

// bruteDefs builds one view-sized graph per family (planted and
// probabilistic) small enough for the plain 2^n subset walk, so the pruned
// bitset enumeration can be pinned against brute force.
func bruteDefs(t *testing.T) map[string]*graph.Digraph {
	t.Helper()
	out := map[string]*graph.Digraph{
		"fig1b":      graph.Fig1b().G,
		"complete:7": graph.CompleteGraph(1, 2, 3, 4, 5, 6, 7),
	}
	for _, s := range []string{
		"kosr:sink=7,nonsink=4,k=3,extra=0.25",
		"extended:core=5,noncore=3,extra=0.2",
		"er:n=12,p=0.25", "er:n=14,p=0.45",
		"geo:n=12,r=0.45", "sf:n=12,m=2", "sf:n=14,m=3",
	} {
		d, err := graph.ParseDef(s)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 2; seed++ {
			b, err := d.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			out[s+"#"+string(rune('0'+seed))] = b.G
			if !d.UsesSeed() {
				break
			}
		}
	}
	return out
}

// TestSinksAtGMatchesBruteForce is the end-to-end verdict equivalence:
// Searcher.SinksAtGExact (pruned bitset enumeration over peeled SCC pools)
// must return exactly the candidates the definitional brute force finds —
// every subset of the received set checked directly against IsSink — on full
// and partial views of every family, at every threshold. n ≤ 16 keeps the 2^n
// walk honest while covering all prune branches.
func TestSinksAtGMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for name, g := range bruteDefs(t) {
		if g.NumNodes() > 16 {
			t.Fatalf("%s: %d nodes exceeds the brute-force budget", name, g.NumNodes())
		}
		views := []*View{FullView(g)}
		// Two random partial views: prefix of a shuffled insertion order.
		for trial := 0; trial < 2; trial++ {
			owners := g.Nodes()
			rng.Shuffle(len(owners), func(i, j int) { owners[i], owners[j] = owners[j], owners[i] })
			v := NewView()
			for _, owner := range owners[:1+rng.Intn(len(owners))] {
				v.AddKnown(owner)
				v.SetPD(owner, g.OutSet(owner))
				for _, tgt := range g.OutSet(owner).Sorted() {
					v.AddKnown(tgt)
				}
			}
			views = append(views, v)
		}
		for vi, v := range views {
			se := NewSearcher()
			for gt := 0; gt <= v.MaxG()+1; gt++ {
				got, exact := se.SinksAtGExact(v, gt)
				if !exact {
					t.Fatalf("%s view %d: enumeration inexact at n ≤ 16", name, vi)
				}
				if want := bruteSinksAtG(v, gt); !candsEqual(got, want) {
					t.Fatalf("%s view %d g=%d: pruned %v != brute force %v", name, vi, gt, got, want)
				}
			}
		}
	}
}

// TestPoolEnumSupersetAndExactCounts pins poolEnum's contract directly
// against the plain mask walk on the same pool: (1) every subset that passes
// the S1-side sink checks (size, out-targets, κ) is yielded — prunes only
// ever discard failing subsets; (2) every yielded subset meeting the size
// floor satisfies the pruning invariants it claims — in particular, when
// outExact is reported the out count equals the definitional
// OutTargets(S1) count, and otherwise it is a lower bound.
func TestPoolEnumSupersetAndExactCounts(t *testing.T) {
	for name, g := range bruteDefs(t) {
		v := FullView(g)
		rg := v.ReceivedGraph()
		for gt := 0; gt <= 3; gt++ {
			for _, comp := range rg.SCCs() {
				pool := comp
				if gt >= 1 {
					pool = rg.Induced(comp).DirectedCore(gt + 1)
				}
				if pool.Len() < 2*gt+1 || pool.Len() == 0 {
					continue
				}
				sorted := pool.Sorted()
				// The pool's rows, by ID: in-pool targets by rank, external ones
				// numbered in order of appearance.
				adj, ext := make([]uint64, len(sorted)), make([]uint64, len(sorted))
				extNo := map[model.ID]int{}
				for i, u := range sorted {
					for _, tgt := range v.PD[u].Sorted() {
						if j, in := slices.BinarySearch(sorted, tgt); in {
							if tgt != u {
								adj[i] |= 1 << j
							}
							continue
						}
						if _, ok := extNo[tgt]; !ok {
							extNo[tgt] = len(extNo)
						}
						if extNo[tgt] < 64 {
							ext[i] |= 1 << extNo[tgt]
						}
					}
				}
				var pe poolEnum
				pe.init(gt, adj, ext, len(extNo) <= 64)
				yields := map[uint64]struct {
					out   int
					exact bool
				}{}
				pe.run(func(mask uint64, out int, outExact bool) {
					yields[mask] = struct {
						out   int
						exact bool
					}{out, outExact}
				})
				enumerateSubsets(sorted, 2*gt+1, func(s1 model.IDSet) {
					var mask uint64
					for i, id := range sorted {
						if s1.Has(id) {
							mask |= 1 << i
						}
					}
					trueOut := v.OutTargets(s1).Len()
					passes := trueOut <= gt &&
						(s1.Len() <= 1 || rg.Induced(s1).IsKStronglyConnected(gt+1))
					y, yielded := yields[mask]
					if passes && !yielded {
						t.Fatalf("%s g=%d: passing subset %s pruned away", name, gt, s1)
					}
					if yielded {
						if y.exact && y.out != trueOut {
							t.Fatalf("%s g=%d: subset %s yielded out=%d exact, true count %d",
								name, gt, s1, y.out, trueOut)
						}
						if !y.exact && y.out > trueOut {
							t.Fatalf("%s g=%d: subset %s inexact out=%d exceeds true count %d",
								name, gt, s1, y.out, trueOut)
						}
					}
				})
				for mask := range yields {
					if bits.OnesCount64(mask) < 2*gt+1 {
						t.Fatalf("%s g=%d: yield %b below the size floor", name, gt, mask)
					}
				}
			}
		}
	}
}

// TestSearcherMatchesViewOnProbabilisticFamilies extends the searcher ≡
// brute force property to the er/geo/sf families: over randomized insertion
// orders, after every insertion, the memoizing searcher and the all-subsets
// walk over View.IsSink agree on all searches. Unstructured graphs exercise
// SCC shapes (many small components, sparse cores) the planted families never
// produce.
func TestSearcherMatchesViewOnProbabilisticFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, s := range []string{"er:n=13,p=0.3", "geo:n=13,r=0.4", "sf:n=13,m=2"} {
		d, err := graph.ParseDef(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.Build(3)
		if err != nil {
			t.Fatal(err)
		}
		owners := b.G.Nodes()
		rng.Shuffle(len(owners), func(i, j int) { owners[i], owners[j] = owners[j], owners[i] })
		v := NewView()
		se := NewSearcher()
		for _, owner := range owners {
			v.AddKnown(owner)
			v.SetPD(owner, b.G.OutSet(owner))
			for _, tgt := range b.G.OutSet(owner).Sorted() {
				v.AddKnown(tgt)
			}
			assertSearcherMatches(t, se, v, s)
		}
	}
}

// enumerateSubsets is the brute-force oracle the pool enumeration is pinned
// against: it yields every subset of ids with size ≥ minSize. Callers are
// guarded by ExactLimit; sets past the bit-mask capacity are a
// programming error, and a silent empty enumeration would masquerade as "no
// sink found", so the guard is loud.
func enumerateSubsets(ids []model.ID, minSize int, yield func(model.IDSet)) {
	n := len(ids)
	if n > 30 {
		panic(fmt.Sprintf("kosr: enumerateSubsets over %d ids (callers must respect ExactLimit=%d; the mask enumeration caps at 30)", n, ExactLimit))
	}
	for mask := 1; mask < (1 << n); mask++ {
		if bits.OnesCount(uint(mask)) < minSize {
			continue
		}
		s := model.NewIDSet()
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s.Add(ids[i])
			}
		}
		yield(s)
	}
}
