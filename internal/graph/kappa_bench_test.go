package graph

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
)

// BenchmarkKappaAtLeast measures the κ(G[S1]) ≥ k test under the sink search
// (PoolFlow: the degree exits, then Even's probe schedule) and reports, next
// to the time, how many flows a query still runs — `flows/op` — so a drop in
// the exits' hit rate shows as a count, not only as nanoseconds.
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
	var pf PoolFlow
	run := func(name string, rows []uint64, mask uint64, k int, want bool) {
		b.Run(name, func(b *testing.B) {
			if mask == 0 {
				b.Skip("no such subset drawn")
			}
			pf.Reset(rows)
			b.ReportAllocs()
			before := pf.probes
			for i := 0; i < b.N; i++ {
				if pf.KappaAtLeast(mask, k) != want {
					b.Fatalf("κ ≥ %d is %v", k, !want)
				}
			}
			b.ReportMetric(float64(pf.probes-before)/float64(b.N), "flows/op")
		})
	}

	ext, core, fG, err := GenExtendedKOSR(rand.New(rand.NewSource(9)), GenSpec{SinkSize: 10, NonSinkSize: 4})
	if err != nil {
		b.Fatal(err)
	}
	run("dense/extended-core=10", poolRows(ext, core.Sorted()), 1<<10-1, fG+1, true)
	ring := New()
	ids := make([]model.ID, 20)
	for i := range ids {
		ids[i] = model.ID(i + 1)
	}
	circulant(ring, ids, 4)
	run("sparse/circulant-m=20-k=4", poolRows(ring, ids), 1<<20-1, 4, true)

	sinkRows := func(size int) []uint64 {
		g, sink, err := GenKOSR(rand.New(rand.NewSource(9)), GenSpec{SinkSize: size, NonSinkSize: size / 2, K: 4, ExtraEdgeP: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		return poolRows(g, sink.Sorted())
	}
	for _, m := range []int{10, 15, 20} {
		whole, double := sinkRows(m), sinkRows(2*m)
		for _, k := range []int{2, 3, 4} {
			run(fmt.Sprintf("m=%d/k=%d/pass", m, k), whole, 1<<m-1, k, true)
			run(fmt.Sprintf("m=%d/k=%d/fail", m, k), double, failingSubset(&pf, double, m, k), k, false)
		}
	}
}

// failingSubset draws seeded m-subsets of the pool until one has every in-
// and out-degree ≥ k and still κ < k; 0 if 20,000 draws hold none.
func failingSubset(pf *PoolFlow, rows []uint64, m, k int) uint64 {
	pf.Reset(rows)
	rng := rand.New(rand.NewSource(9))
draw:
	for try := 0; try < 20000; try++ {
		var mask uint64
		for _, i := range rng.Perm(len(rows))[:m] {
			mask |= 1 << i
		}
		for i, row := range rows {
			in := 0
			for j, other := range rows {
				in += int((other >> i) & (mask >> j) & 1)
			}
			if mask>>i&1 != 0 && (bits.OnesCount64(row&mask) < k || in < k) {
				continue draw
			}
		}
		if !pf.KappaAtLeast(mask, k) {
			return mask
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
