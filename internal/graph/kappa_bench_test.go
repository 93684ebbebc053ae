package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
)

// BenchmarkKappaAtLeast measures the κ(G[S1]) ≥ k test under the sink search
// (FlowScratch.KappaAtLeast on a loaded pool: the degree exits, then Even's
// probe schedule) and reports, next to the time, how many flows a query still
// runs — `flows/op` — so a drop in the exits' hit rate shows as a count, not
// only as nanoseconds.
//
// `dense` is the planted core of an extended-k-OSR graph, a clique: exit 1
// answers and no flow runs. `sparse` is the circulant i → i+1 … i+k, where
// exit 1 declines and only the fan probes whose k neighbours are all earlier
// members are saved. `pass` is a whole m-node planted sink of the GenKOSR
// seed-9 family the search benchmarks use (a circulant plus random extra
// edges, κ ≥ 4). `fail` is the first seeded m-subset of a 2m-node sink whose
// members all keep in- and out-degree ≥ k while κ < k — no degree bound
// answers, the schedule has to find the cut (skipped where 20,000 draws hold
// no such subset).
func BenchmarkKappaAtLeast(b *testing.B) {
	var sc FlowScratch
	run := func(name string, pool *Digraph, mask uint64, k int, want bool) {
		b.Run(name, func(b *testing.B) {
			if mask == 0 {
				b.Skip("no such subset drawn")
			}
			sc.Load(pool)
			set := []uint64{mask}
			b.ReportAllocs()
			before := sc.probes
			for i := 0; i < b.N; i++ {
				if sc.KappaAtLeast(set, k) != want {
					b.Fatalf("κ ≥ %d is %v", k, !want)
				}
			}
			b.ReportMetric(float64(sc.probes-before)/float64(b.N), "flows/op")
		})
	}

	ext, core, fG, err := GenExtendedKOSR(rand.New(rand.NewSource(9)), GenSpec{SinkSize: 10, NonSinkSize: 4})
	if err != nil {
		b.Fatal(err)
	}
	run("dense/extended-core=10", ext.Induced(core), 1<<10-1, fG+1, true)
	ring := New()
	ids := make([]model.ID, 20)
	for i := range ids {
		ids[i] = model.ID(i + 1)
	}
	circulant(ring, ids, 4)
	run("sparse/circulant-m=20-k=4", ring, 1<<20-1, 4, true)

	sinkOf := func(size int) *Digraph {
		g, sink, err := GenKOSR(rand.New(rand.NewSource(9)), GenSpec{SinkSize: size, NonSinkSize: size / 2, K: 4, ExtraEdgeP: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		return g.Induced(sink)
	}
	for _, m := range []int{10, 15, 20} {
		whole, double := sinkOf(m), sinkOf(2*m)
		for _, k := range []int{2, 3, 4} {
			run(fmt.Sprintf("m=%d/k=%d/pass", m, k), whole, 1<<m-1, k, true)
			run(fmt.Sprintf("m=%d/k=%d/fail", m, k), double, failingSubset(&sc, double, m, k), k, false)
		}
	}
}

// failingSubset draws seeded m-subsets of the pool until one has every in-
// and out-degree ≥ k and still κ < k; 0 if 20,000 draws hold none.
func failingSubset(sc *FlowScratch, pool *Digraph, m, k int) uint64 {
	sc.Load(pool)
	rng := rand.New(rand.NewSource(9))
	set := []uint64{0}
draw:
	for try := 0; try < 20000; try++ {
		set[0] = 0
		for _, i := range rng.Perm(pool.NumNodes())[:m] {
			set[0] |= 1 << i
		}
		for i := 0; i < pool.NumNodes(); i++ {
			if set[0]>>i&1 != 0 && (andCount(sc.adj.rows[i:i+1], set) < k || andCount(sc.adj.cols[i:i+1], set) < k) {
				continue draw
			}
		}
		if !sc.KappaAtLeast(set, k) {
			return set[0]
		}
	}
	return 0
}

// BenchmarkCheckKOSR measures CheckKOSR at k = F+1 on the five families of the
// graph_check workload at seed 1 and reports `flows/op`: the κ schedule's
// flows plus one fan flow per outside node that exit 3 does not answer. It is
// a count and repeats exactly; a rise on the planted families means the fan or
// its exit stopped answering. The unplanted families fail the base check at
// F+1 before condition 4.
func BenchmarkCheckKOSR(b *testing.B) {
	for _, s := range []string{
		"kosr:sink=15,nonsink=9,k=3,extra=0.2",
		"extended:core=10,noncore=6,extra=0.2",
		"er:n=20,p=0.3",
		"geo:n=16,r=0.5",
		"sf:n=20,m=4",
	} {
		d, err := ParseDef(s)
		if err != nil {
			b.Fatal(err)
		}
		built, err := d.Build(1)
		if err != nil {
			b.Fatal(err)
		}
		family, _, _ := strings.Cut(s, ":")
		b.Run(family, func(b *testing.B) {
			var sc FlowScratch
			want := sc.CheckKOSR(built.G, built.F+1).OK
			b.ReportAllocs()
			before := sc.probes
			for i := 0; i < b.N; i++ {
				if sc.CheckKOSR(built.G, built.F+1).OK != want {
					b.Fatal("verdict moved between runs")
				}
			}
			b.ReportMetric(float64(sc.probes-before)/float64(b.N), "flows/op")
		})
	}
}
