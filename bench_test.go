package bftcup

// The benchmark harness regenerates every table and figure of the paper
// (virtual time, message and byte counts on the deterministic simulator) and
// adds the extension measurements DESIGN.md calls out: search and signature
// micro-benchmarks and protocol scaling sweeps.
//
// Absolute wall-clock numbers measure this simulator, not the authors'
// testbed; the reproduced shape is the pattern of ✓/✗ verdicts, the relative
// message/byte costs and where they grow.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/matrix"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

// runScenario executes one scenario b.N times and reports simulator metrics
// alongside wall-clock time.
func runScenario(b *testing.B, p scenario.Params, wantConsensus bool) {
	b.Helper()
	var msgs, bytes int64
	var virtual sim.Time
	for i := 0; i < b.N; i++ {
		res, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		if got := res.Consensus(); got != wantConsensus {
			b.Fatalf("verdict %v, want %v (%s)", got, wantConsensus, res.FailureMode())
		}
		msgs, bytes, virtual = res.Messages, res.Bytes, res.Elapsed
	}
	b.ReportMetric(float64(msgs), "msgs/run")
	b.ReportMetric(float64(bytes), "wirebytes/run")
	b.ReportMetric(float64(virtual)/float64(sim.Millisecond), "virtualms/run")
}

// BenchmarkTable1 regenerates every cell of Table I.
func BenchmarkTable1(b *testing.B) {
	for _, exp := range scenario.Table1() {
		exp := exp
		b.Run(exp.ID[len("table1/"):], func(b *testing.B) {
			runScenario(b, exp.Params, exp.Expect.Consensus)
		})
	}
}

// BenchmarkFig1 regenerates the Fig. 1 pair (invalid vs valid graph).
func BenchmarkFig1(b *testing.B) {
	for _, exp := range scenario.Fig1() {
		exp := exp
		b.Run(exp.ID, func(b *testing.B) { runScenario(b, exp.Params, exp.Expect.Consensus) })
	}
}

// BenchmarkFig2 regenerates the Theorem 7 impossibility construction.
func BenchmarkFig2(b *testing.B) {
	for _, exp := range scenario.Fig2() {
		exp := exp
		b.Run(exp.ID, func(b *testing.B) { runScenario(b, exp.Params, exp.Expect.Consensus) })
	}
}

// BenchmarkFig3 regenerates the false-sink violation.
func BenchmarkFig3(b *testing.B) {
	for _, exp := range scenario.Fig3() {
		exp := exp
		b.Run(exp.ID, func(b *testing.B) { runScenario(b, exp.Params, exp.Expect.Consensus) })
	}
}

// BenchmarkFig4 regenerates the BFT-CUPFT possibility results.
func BenchmarkFig4(b *testing.B) {
	for _, exp := range scenario.Fig4() {
		exp := exp
		b.Run(exp.ID, func(b *testing.B) { runScenario(b, exp.Params, exp.Expect.Consensus) })
	}
}

// BenchmarkMatrix measures scenario-matrix throughput: the 24-cell standard
// sweep (one seed) executed serially vs on the GOMAXPROCS worker pool.
// cells/s is the headline metric; the parallel/serial ratio is the engine's
// wall-clock speedup on this machine.
func BenchmarkMatrix(b *testing.B) {
	cells, err := matrix.StandardSweep(matrix.Seeds(1, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []struct {
		name        string
		parallelism int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		bench := bench
		b.Run(bench.name, func(b *testing.B) {
			var cellsPerSec float64
			for i := 0; i < b.N; i++ {
				rep, err := matrix.Run(cells, matrix.Options{Parallelism: bench.parallelism})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Errors > 0 {
					b.Fatalf("%d cells errored", rep.Errors)
				}
				cellsPerSec = float64(rep.Cells) / (float64(rep.WallNS) / 1e9)
			}
			b.ReportMetric(cellsPerSec, "cells/s")
		})
	}
}

// BenchmarkSweepCells measures seed-sweep throughput (cells/sec) on a
// 1-graph × 1000-seed sweep — the compile-once, run-many regime: every cell
// shares one graph def, mode, network model and Byzantine placement, varying
// only the simulation seed. This is the workload the scenario compilation
// cache and the cryptox fast path exist for. CI smoke-runs it; the numbers
// that are refereed are go run ./bench's — cells_per_s on its sweep workloads
// and the per-layer kernels of bench/kernels.go.
func BenchmarkSweepCells(b *testing.B) {
	d, err := graph.ParseDef("fig1b")
	if err != nil {
		b.Fatal(err)
	}
	base := scenario.Params{
		Graph: d,
		Mode:  core.ModeKnownF,
		F:     -1,
		Net:   scenario.NetParams{Kind: scenario.NetSync},
	}
	src, err := matrix.SeedSweep(base, 1, 1000)
	if err != nil {
		b.Fatal(err)
	}
	var cellsPerSec float64
	for i := 0; i < b.N; i++ {
		rep, err := matrix.Run(src, matrix.Options{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Errors > 0 {
			b.Fatalf("%d cells errored", rep.Errors)
		}
		cellsPerSec = float64(rep.Cells) / (float64(rep.WallNS) / 1e9)
	}
	b.ReportMetric(cellsPerSec, "cells/s")
}

// searchReplay measures kosr.SearchReplay's discovery schedule (one search
// per record insertion; `go run ./bench` measures the same workload through
// the same type).
func searchReplay(b *testing.B, g *graph.Digraph, search func(se *kosr.Searcher, v *kosr.View) bool) {
	b.Helper()
	r := kosr.NewSearchReplay(g)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !r.Run(search) {
			b.Fatal("full view found nothing")
		}
	}
}

// BenchmarkSinkSearch measures the Algorithm 2 decision procedure: the
// single-shot search of a full knowledge view on a fresh Searcher (nothing
// memoized), and the discovery replay (a search per record insertion) on the
// one warm Searcher a node keeps — the schedule the protocol stack runs.
func BenchmarkSinkSearch(b *testing.B) {
	fig := graph.Fig1b()
	v := kosr.FullView(fig.G)
	b.Run("fig1b", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := kosr.NewSearcher().FindSinkKnownF(v, fig.F); !ok {
				b.Fatal("sink not found")
			}
		}
	})
	for _, size := range []int{7, 11, 15} {
		size := size
		g, _, err := graph.GenKOSR(rand.New(rand.NewSource(9)), graph.GenSpec{SinkSize: size, NonSinkSize: size / 2, K: 3, ExtraEdgeP: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		vv := kosr.FullView(g)
		b.Run(fmt.Sprintf("random-sink-%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := kosr.NewSearcher().FindSinkKnownF(vv, 2); !ok {
					b.Fatal("sink not found")
				}
			}
		})
		b.Run(fmt.Sprintf("replay-incremental-%d", size), func(b *testing.B) {
			searchReplay(b, g, func(se *kosr.Searcher, v *kosr.View) bool {
				_, ok := se.FindSinkKnownF(v, 2)
				return ok
			})
		})
	}
}

// BenchmarkCoreSearch measures the Algorithm 4 decision procedure (the
// maximum-connectivity sweep no process could avoid without knowing f).
func BenchmarkCoreSearch(b *testing.B) {
	for _, fig := range []graph.Figure{graph.Fig4a(), graph.Fig4b()} {
		fig := fig
		v := kosr.FullView(fig.G)
		b.Run(fig.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := kosr.NewSearcher().FindCore(v); !ok {
					b.Fatal("core not found")
				}
			}
		})
	}
	for _, size := range []int{5, 8, 11} {
		size := size
		g, _, _, err := graph.GenExtendedKOSR(rand.New(rand.NewSource(9)), graph.GenSpec{SinkSize: size, NonSinkSize: size / 2, ExtraEdgeP: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		v := kosr.FullView(g)
		b.Run(fmt.Sprintf("random-core-%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := kosr.NewSearcher().FindCore(v); !ok {
					b.Fatal("core not found")
				}
			}
		})
		b.Run(fmt.Sprintf("replay-incremental-%d", size), func(b *testing.B) {
			searchReplay(b, g, func(se *kosr.Searcher, v *kosr.View) bool {
				_, ok := se.FindCore(v)
				return ok
			})
		})
	}
}

// offlineSink keeps BenchmarkOfflineChecks' results alive.
var offlineSink int

// BenchmarkOfflineChecks measures the paper's graph conditions offline: the
// five graph families of `go run ./bench`'s graph_check workload, each taken
// through the same six calls (build, CheckBFTCUP, CheckBFTCUPFT,
// CheckExtendedKOSR, WorstPlacement at f ≤ 2, a discovery replay into the
// search). One op is one seed — five graphs. bench/ is the referee; this is
// the same layer where a go-test profile can reach it.
func BenchmarkOfflineChecks(b *testing.B) {
	var defs []graph.Def
	for _, s := range []string{
		"kosr:sink=15,nonsink=9,k=3,extra=0.2",
		"extended:core=10,noncore=6,extra=0.2",
		"er:n=20,p=0.3",
		"geo:n=16,r=0.5",
		"sf:n=20,m=4",
	} {
		d, err := graph.ParseDef(s)
		if err != nil {
			b.Fatal(err)
		}
		defs = append(defs, d)
	}
	none := model.NewIDSet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, def := range defs {
			built, err := def.Build(int64(i + 1))
			if err != nil {
				b.Fatal(err)
			}
			cup := graph.CheckBFTCUP(built.G, none, built.F)
			cupft := kosr.CheckBFTCUPFT(built.G, none, built.F)
			ext := kosr.CheckExtendedKOSR(built.G, built.F+1)
			place, err := kosr.WorstPlacement(built.G, min(built.F, 2))
			if err != nil {
				b.Fatal(err)
			}
			found := kosr.NewSearchReplay(built.G).Run(func(se *kosr.Searcher, v *kosr.View) bool {
				var hit bool
				if def.Kind == graph.DefKOSR {
					_, hit = se.FindSinkKnownF(v, built.F)
				} else {
					_, hit = se.FindCore(v)
				}
				return hit
			})
			switch {
			case def.Kind == graph.DefKOSR && !cup.OK:
				b.Fatalf("%s seed %d fails CheckBFTCUP: %s", def, i+1, cup.Reason)
			case def.Kind == graph.DefExtended && !(cupft.OK && ext.OK):
				b.Fatalf("%s seed %d fails CheckBFTCUPFT/CheckExtendedKOSR: %s%s", def, i+1, cupft.Reason, ext.Reason)
			case !found:
				b.Fatalf("%s seed %d: replay on the full view found no candidate", def, i+1)
			}
			offlineSink += place.Margin + ext.FG
		}
	}
}

// BenchmarkStrongConnectivity measures the κ computation (Menger max-flow).
func BenchmarkStrongConnectivity(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		n := n
		ids := make([]model.ID, n)
		for i := range ids {
			ids[i] = model.ID(i + 1)
		}
		g := graph.CompleteGraph(ids...)
		b.Run(fmt.Sprintf("complete-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if g.StrongConnectivity() != n-1 {
					b.Fatal("κ wrong")
				}
			}
		})
	}
}

// BenchmarkPBFTCommittee measures the committee phase alone (permissioned
// complete graphs, classic 3f+1 sizing).
func BenchmarkPBFTCommittee(b *testing.B) {
	for _, n := range []int{4, 7, 10, 13} {
		n := n
		f := (n - 1) / 3
		p := scenario.Params{
			Name:    fmt.Sprintf("pbft-%d", n),
			Graph:   graph.Def{Kind: graph.DefComplete, N: n},
			Mode:    core.ModePermissioned,
			F:       f,
			Horizon: 30 * sim.Second,
			Seed:    int64(n),
		}
		b.Run(fmt.Sprintf("n=%d_f=%d", n, f), func(b *testing.B) {
			runScenario(b, p, true)
		})
	}
}

// BenchmarkScalingCUPFT sweeps BFT-CUPFT end to end over growing networks.
func BenchmarkScalingCUPFT(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		n := n
		coreSize := n / 2
		p := scenario.Params{
			Name:    fmt.Sprintf("cupft-%d", n),
			Graph:   graph.Def{Kind: graph.DefExtended, Sink: coreSize, NonSink: n - coreSize, ExtraEdgeP: 0.1},
			Mode:    core.ModeUnknownF,
			Horizon: 120 * sim.Second,
			Seed:    int64(n),
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runScenario(b, p, true)
		})
	}
}

// BenchmarkSigners compares Ed25519 against the insecure benchmark suite.
// The repeated-message sub-benchmarks measure the memoized fast path (what
// the simulator's broadcast fan-out sees); the fresh-message variants defeat
// the memo and measure the underlying curve operations.
func BenchmarkSigners(b *testing.B) {
	msg := []byte("knowledge connectivity requirements for solving BFT consensus")
	ed, reg, err := cryptox.GenerateKeys(1, []model.ID{1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ed25519-sign-memohit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ed[1].Sign(msg)
		}
	})
	b.Run("ed25519-sign-fresh", func(b *testing.B) {
		buf := append([]byte(nil), msg...)
		for i := 0; i < b.N; i++ {
			buf = fmt.Appendf(buf[:len(msg)], "%d", i)
			_ = ed[1].Sign(buf)
		}
	})
	sig := ed[1].Sign(msg)
	b.Run("ed25519-verify-memohit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !reg.Verify(1, msg, sig) {
				b.Fatal("verify failed")
			}
		}
	})
	b.Run("ed25519-verify-fresh", func(b *testing.B) {
		buf := append([]byte(nil), msg...)
		for i := 0; i < b.N; i++ {
			buf = fmt.Appendf(buf[:len(msg)], "%d", i)
			// A fresh message never hits the memo; the failed verification
			// costs the same curve operations as a successful one.
			if reg.Verify(1, buf, sig) {
				b.Fatal("forged verify succeeded")
			}
		}
	})
	fast, fv := cryptox.InsecureSuite([]model.ID{1})
	b.Run("insecure-sign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = fast[1].Sign(msg)
		}
	})
	fsig := fast[1].Sign(msg)
	b.Run("insecure-verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !fv.Verify(1, msg, fsig) {
				b.Fatal("verify failed")
			}
		}
	})
}
