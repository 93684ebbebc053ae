package main

import (
	"fmt"
	"os"
	"time"

	"github.com/bftcup/bftcup/internal/discovery"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/model"
)

// graph_check is the offline use of the paper's conditions — what graphgen
// validation and byz=worst compilation do — with no protocol stack around
// it: build a graph from its def, check Theorem 1's and Section V's
// requirements, search the worst Byzantine placement and replay discovery
// into the sink/core search. kosr and graph do all the work; discovery, sim
// and pbft none, which makes it the bypass workload for dissemination
// changes.

// graphDefs are the five families of one graph_check seed. No family takes
// more than 40 % of the time (the traced pass prints the shares): with a
// 12-member core the extended family alone took 58 %, so it has 10.
var graphDefs = []string{
	"kosr:sink=15,nonsink=9,k=3,extra=0.2",
	"extended:core=10,noncore=6,extra=0.2",
	"er:n=20,p=0.3",
	"geo:n=16,r=0.5",
	"sf:n=20,m=4",
}

const (
	graphSeedsPerBlock = 20
	graphMinBlocks     = 3
	// worstF bounds the placement search: the f-subsets of a 24-node graph
	// at the family's natural f would be tens of thousands of searches.
	worstF = 2
)

// graphSink keeps the checks' results alive so the calls cannot be elided.
var graphSink int

// graphTimes accumulates the direct per-call timings of the traced pass.
type graphTimes struct {
	calls     [6]time.Duration // indexed by the call* constants
	graphs    int
	perFamily [5]time.Duration
}

// The timed calls of one graph, in call order.
const (
	callBuild = iota
	callBFTCUP
	callBFTCUPFT
	callExtended
	callWorst
	callReplay
)

// checkGraph takes one def at one seed from definition to verdicts. It
// returns whether the planted condition was confirmed (and the replay found
// a committee) and the graph's size. A non-nil gt adds the per-call clock
// reads of the traced pass.
func checkGraph(def graph.Def, seed int64, gt *graphTimes) (ok bool, size graphSize, why string, err error) {
	lap := func(call int, start time.Time) time.Time {
		if gt == nil {
			return start
		}
		now := time.Now()
		gt.calls[call] += now.Sub(start)
		return now
	}
	var t time.Time
	if gt != nil {
		t = time.Now()
	}
	built, err := def.Build(seed)
	if err != nil {
		return false, graphSize{}, "", err
	}
	t = lap(callBuild, t)
	none := model.NewIDSet()
	cup := graph.CheckBFTCUP(built.G, none, built.F)
	t = lap(callBFTCUP, t)
	cupft := kosr.CheckBFTCUPFT(built.G, none, built.F)
	t = lap(callBFTCUPFT, t)
	ext := kosr.CheckExtendedKOSR(built.G, built.F+1)
	t = lap(callExtended, t)
	f := built.F
	if f > worstF {
		f = worstF
	}
	place, err := kosr.WorstPlacement(built.G, f)
	if err != nil {
		return false, graphSize{}, "", err
	}
	t = lap(callWorst, t)
	replay := kosr.NewSearchReplay(built.G)
	found := replay.Run(func(se *kosr.Searcher, v *kosr.View) bool {
		var hit bool
		if def.Kind == graph.DefKOSR {
			_, hit = se.FindSinkKnownF(v, built.F)
		} else {
			_, hit = se.FindCore(v)
		}
		return hit
	})
	lap(callReplay, t)
	graphSink += place.Margin + ext.FG

	ok = true
	switch def.Kind {
	case graph.DefKOSR:
		if !cup.OK {
			ok, why = false, "generated k-OSR graph fails CheckBFTCUP: "+cup.Reason
		}
	case graph.DefExtended:
		if !cupft.OK {
			ok, why = false, "generated extended graph fails CheckBFTCUPFT: "+cupft.Reason
		} else if !ext.OK {
			ok, why = false, "generated extended graph fails CheckExtendedKOSR: "+ext.Reason
		}
	}
	if ok && !found {
		ok, why = false, "replay on the full view found no candidate"
	}
	for _, u := range built.G.Nodes() {
		size.records++
		size.bytes += len(discovery.Canonical(u, built.G.OutSet(u)))
	}
	return ok, size, why, nil
}

// graphSize is the dissemination payload a graph implies: one participant-
// detector record per process, and the canonical bytes of those records —
// what the replay feeds the search and what Algorithm 1 would have to carry.
type graphSize struct {
	records, bytes int
}

func parseGraphDefs() ([]graph.Def, error) {
	defs := make([]graph.Def, len(graphDefs))
	for i, s := range graphDefs {
		d, err := graph.ParseDef(s)
		if err != nil {
			return nil, err
		}
		defs[i] = d
	}
	return defs, nil
}

// graphBlock checks one block of seeds × defs; perGraph receives, per seed,
// the mean wall ms of its graphs (a seed's five graphs cost 1 : 40 apart, so
// single graphs have no typical time; a seed has).
func graphBlock(defs []graph.Def, seeds []int64, gt *graphTimes, res *runResult, perGraph *[]float64, total *graphSize) error {
	for _, seed := range seeds {
		seedStart := time.Now()
		for fi, def := range defs {
			start := time.Now()
			ok, size, why, err := checkGraph(def, seed, gt)
			if err != nil {
				return fmt.Errorf("graph_check %s seed %d: %w", def, seed, err)
			}
			took := time.Since(start)
			if gt != nil {
				gt.graphs++
				gt.perFamily[fi] += took
			}
			res.attempted++
			total.records += size.records
			total.bytes += size.bytes
			if !ok {
				res.fail(1, fmt.Sprintf("%s seed %d: %s", def, seed, why))
			}
		}
		if perGraph != nil {
			*perGraph = append(*perGraph, float64(time.Since(seedStart).Nanoseconds())/1e6/float64(len(defs)))
		}
	}
	return nil
}

func runGraphCheck(cfg runConfig, trace bool) (*runResult, error) {
	res := newResult()
	var defs []graph.Def
	setup := func(int) error {
		var err error
		if defs, err = parseGraphDefs(); err != nil {
			return err
		}
		for _, d := range defs {
			if err := d.Validate(); err != nil {
				return err
			}
		}
		return nil
	}

	if trace {
		if err := setup(0); err != nil {
			return nil, err
		}
		return graphTraced(cfg, defs, res)
	}

	// One value per block: its throughput, the median and p90 over its seeds
	// of the mean wall ms per graph, and the resident MiB at its end.
	var (
		setups                      = setupTimer{setup: setup}
		throughput, ms50, ms90, rss []float64
		size                        graphSize
	)
	begin := time.Now()
	for k := 1; k <= graphMinBlocks || time.Since(begin) < cfg.duration; k++ {
		if err := setups.measure(); err != nil {
			return nil, err
		}
		start := time.Now()
		before := res.attempted
		var perGraph []float64
		if err := graphBlock(defs, blockSeeds(cfg.seed, k, graphSeedsPerBlock), nil, res, &perGraph, &size); err != nil {
			return nil, err
		}
		throughput = append(throughput, float64(res.attempted-before)/time.Since(start).Seconds())
		ms50 = append(ms50, median(perGraph))
		ms90 = append(ms90, upperDecile(perGraph))
		rss = append(rss, rssMiB())
	}
	graphs := float64(res.attempted)
	blocks := len(throughput)
	if err := setups.record(res); err != nil {
		return nil, err
	}
	res.set("cells_per_s", upperDecile(throughput), blocks)
	res.set("decide_ms_p50", lowerDecile(ms50), blocks)
	res.set("decide_ms_p90", lowerDecile(ms90), blocks)
	// An offline check has no virtual clock, no messages and no committee
	// protocol. So that every workload reports every end-to-end metric, it
	// reads them the only way they can be read here: its time is real time,
	// its traffic is the records the graphs hold, and a graph "reaches
	// consensus" when its planted condition is confirmed and the replay
	// finds a committee (README, "metrics that are not native").
	res.set("virt_decide_ms_p50", lowerDecile(ms50), blocks)
	res.set("virt_decide_ms_p90", lowerDecile(ms90), blocks)
	res.set("msgs_per_cell", float64(size.records)/graphs, res.attempted)
	res.set("kib_per_cell", float64(size.bytes)/1024/graphs, res.attempted)
	res.set("consensus_share", float64(res.attempted-res.failed)/graphs, res.attempted)
	res.set("peak_rss_mib", upperDecile(rss), blocks)
	return res, nil
}

// graphTraced is graph_check's traced pass: block 1 with the per-call clock
// reads, between two passes without them (the first of which also warms the
// process up; the second is the one the overhead is taken against).
func graphTraced(cfg runConfig, defs []graph.Def, res *runResult) (*runResult, error) {
	seeds := blockSeeds(cfg.seed, 1, graphSeedsPerBlock)
	var size graphSize
	var gt graphTimes
	var plain, timed time.Duration
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		var err error
		if pass == 1 {
			err = graphBlock(defs, seeds, &gt, res, nil, &size)
			timed = time.Since(start)
		} else {
			err = graphBlock(defs, seeds, nil, newResult(), nil, &size)
			plain = time.Since(start)
		}
		if err != nil {
			return nil, err
		}
	}

	n := float64(gt.graphs)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	res.set("graph.build_us_mean", us(gt.calls[callBuild]), gt.graphs)
	res.set("graph.check_bftcup_us_mean", us(gt.calls[callBFTCUP]), gt.graphs)
	res.set("kosr.check_bftcupft_ms_mean", us(gt.calls[callBFTCUPFT])/1e3, gt.graphs)
	res.set("kosr.check_extended_ms_mean", us(gt.calls[callExtended])/1e3, gt.graphs)
	res.set("kosr.worst_placement_us_mean", us(gt.calls[callWorst]), gt.graphs)
	res.set("kosr.replay_ms_mean", us(gt.calls[callReplay])/1e3, gt.graphs)
	kosrTime := gt.calls[callBFTCUPFT] + gt.calls[callExtended] + gt.calls[callWorst] + gt.calls[callReplay]
	res.set("kosr.share", float64(kosrTime)/float64(timed), gt.graphs)
	res.set("trace.overhead_pct", 100*(timed.Seconds()-plain.Seconds())/plain.Seconds(), 1)
	for fi, d := range gt.perFamily {
		fmt.Fprintf(os.Stderr, "graph_check family %-40s %5.1f %% of block time\n", graphDefs[fi], 100*float64(d)/float64(timed))
	}
	addKernels(res)
	return res, nil
}
