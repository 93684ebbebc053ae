package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/bftcup/bftcup/internal/byz"
	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/netrt"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

// live_cupft runs the paper's protocol (BFT-CUPFT: the fault threshold is
// not given to the processes) on the deployable runtime: an 8-process
// extended k-OSR graph over loopback TCP, one cluster at a time (closed
// loop), a fresh cluster per round because a cupd user pays boot on every
// run.
//
// Injected delays, all from the scenario at scale 10: the synchronous model's
// Δ = 5 ms virtual is a 0.25–0.5 ms per-message link delay, the discovery
// period 2 ms, the PBFT base timeout 20 ms, the decided-value poll 5 ms, and
// RunLive's one virtual second of grace after the last decision is a 100 ms
// sleep. With instant delivery the latency would be processor time only.
const (
	liveGraph          = "extended:core=5,noncore=3,extra=0.15"
	liveScale          = 10
	liveRoundsPerBlock = 10
	liveMinBlocks      = 3
	liveTracedRounds   = 20
)

// liveGrace is the scaled post-decision sleep inside every round.
var liveGrace = time.Duration(int64(sim.Second) / liveScale)

func liveCompile() (*scenario.Compiled, error) {
	def, err := graph.ParseDef(liveGraph)
	if err != nil {
		return nil, err
	}
	return scenario.Params{
		Name:      "live_cupft",
		Graph:     def,
		GraphSeed: 1,
		Mode:      core.ModeUnknownF,
		F:         -1,
		Net:       scenario.NetParams{Kind: scenario.NetSync},
	}.Compile()
}

// liveRound is the outcome of one cluster round.
type liveRound struct {
	ok       bool
	why      string
	wall     time.Duration // boot + decide + grace + teardown
	decide   time.Duration // cluster start → last correct decision
	messages int64
	bytes    int64
	// Traced rounds only.
	newCluster, stop time.Duration
	nodes            map[model.ID]*tracer
}

// boot is everything in a round that is neither deciding nor the grace
// sleep: key material, listeners, node start, dialing and teardown.
func (r liveRound) boot() time.Duration { return r.wall - r.decide - liveGrace }

// runLiveRound is one untraced round through scenario.RunLive, the path
// cupd -cluster takes.
func runLiveRound(c *scenario.Compiled, seed int64) (liveRound, error) {
	start := time.Now()
	res, err := c.RunLive(seed, scenario.LiveOptions{Transport: "tcp", Scale: liveScale})
	if err != nil {
		return liveRound{}, err
	}
	return liveRound{
		ok:       res.Consensus(),
		why:      res.FailureMode(),
		wall:     time.Since(start),
		decide:   time.Duration(int64(res.Elapsed) / liveScale),
		messages: res.Messages,
		bytes:    res.Bytes,
	}, nil
}

// liveSeed is the simulation seed of round r (0-based) of a run.
func liveSeed(workloadSeed int64, r int) int64 {
	return (workloadSeed-1)*seedStride + int64(r) + 1
}

// liveSetup parses and compiles the scenario and runs one warm-up round, so
// the runtime's lazy start-up (poller, crypto tables) is paid before timing.
func liveSetup(workloadSeed int64, rep int) (*scenario.Compiled, error) {
	c, err := liveCompile()
	if err != nil {
		return nil, err
	}
	r, err := runLiveRound(c, workloadSeed*seedStride-int64(rep))
	if err != nil {
		return nil, err
	}
	if !r.ok {
		return nil, fmt.Errorf("live warm-up round: %s", r.why)
	}
	return c, nil
}

func runLiveUntraced(cfg runConfig) (*runResult, error) {
	res := newResult()
	var (
		c *scenario.Compiled
		// One value per block: the closed loop's rate, the block's median (for
		// decide also p90) over its rounds, the resident MiB at its end.
		throughput, decide50, decide90, boot50, msgs50, kib50, rss []float64
		decided, rounds                                            int
	)
	setups := setupTimer{setup: func(rep int) (err error) {
		c, err = liveSetup(cfg.seed, rep)
		return err
	}}
	begin := time.Now()
	for k := 0; k < liveMinBlocks || time.Since(begin) < cfg.duration; k++ {
		if err := setups.measure(); err != nil {
			return nil, err
		}
		var decideMS, bootMS, msgs, kib []float64
		start := time.Now()
		for i := 0; i < liveRoundsPerBlock; i++ {
			seed := liveSeed(cfg.seed, k*liveRoundsPerBlock+i)
			r, err := runLiveRound(c, seed)
			if err != nil {
				return nil, fmt.Errorf("live round seed %d: %w", seed, err)
			}
			res.attempted++
			if r.ok {
				decided++
			} else {
				// Its latency is the horizon RunLive reports, so a lost
				// round also misses every latency limit.
				res.fail(1, fmt.Sprintf("live round seed %d: %s", seed, r.why))
			}
			decideMS = append(decideMS, float64(r.decide.Nanoseconds())/1e6)
			bootMS = append(bootMS, float64(r.boot().Nanoseconds())/1e6)
			msgs = append(msgs, float64(r.messages))
			kib = append(kib, float64(r.bytes)/1024)
		}
		// The grace sleep is RunLive waiting, not the cluster working: the
		// closed loop's rate is rounds per second of boot, decide and
		// teardown.
		throughput = append(throughput, liveRoundsPerBlock/(time.Since(start)-liveRoundsPerBlock*liveGrace).Seconds())
		decide50 = append(decide50, median(decideMS))
		decide90 = append(decide90, upperDecile(decideMS))
		boot50 = append(boot50, median(bootMS))
		msgs50 = append(msgs50, median(msgs))
		kib50 = append(kib50, median(kib))
		rss = append(rss, rssMiB())
		rounds += liveRoundsPerBlock
	}
	blocks := len(throughput)
	if err := setups.record(res); err != nil {
		return nil, err
	}
	res.set("cells_per_s", upperDecile(throughput), blocks)
	res.set("decide_ms_p50", lowerDecile(decide50), blocks)
	res.set("decide_ms_p90", lowerDecile(decide90), blocks)
	res.set("boot_ms_p50", lowerDecile(boot50), blocks)
	// The decide time in the scenario's virtual units.
	res.set("virt_decide_ms_p50", lowerDecile(decide50)*liveScale, blocks)
	res.set("virt_decide_ms_p90", lowerDecile(decide90)*liveScale, blocks)
	res.set("msgs_per_cell", lowerDecile(msgs50), blocks)
	res.set("kib_per_cell", lowerDecile(kib50), blocks)
	res.set("consensus_share", float64(decided)/float64(rounds), rounds)
	res.set("peak_rss_mib", upperDecile(rss), blocks)
	return res, nil
}

// liveDelay adapts the compiled network model to netrt's per-message delay
// hook the way scenario.RunLive does: virtual now is real elapsed time
// scaled up, the model's virtual delay is scaled down.
type liveDelay struct {
	mu  sync.Mutex
	rng *rand.Rand
	net sim.NetworkModel
}

func (l *liveDelay) delay(from, to model.ID, now rt.Time) rt.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.net.Delay(from, to, now*liveScale, l.rng)
	if d < 0 {
		d = 0
	}
	return d / liveScale
}

// runLiveRoundTraced is the instrumented counterpart of scenario.RunLive for
// the live_cupft scenario: the same key material, durations, cluster
// configuration and grading, with each node's reactor, context, signer,
// verifier and search wrapped by a tracer of its own (a node's callbacks are
// serialized; different nodes run concurrently).
func runLiveRoundTraced(c *scenario.Compiled, seed int64) (liveRound, error) {
	for _, b := range c.Byz {
		if b.Kind != scenario.ByzSilent && b.Kind != scenario.ByzAsCorrect {
			return liveRound{}, errNotMirrored
		}
	}
	roundStart := time.Now()
	ids := c.Graph.Nodes()
	cluster0 := newTracer() // key generation: no node owns it
	keyStart := cluster0.now()
	signers, reg, err := cryptox.Keyring(seed+1, ids)
	if err != nil {
		return liveRound{}, err
	}
	cluster0.span(layerCryptox, keyStart)
	disc, pbftTimeout, pollPeriod := c.LiveDurations(liveScale)

	var (
		mu             sync.Mutex
		start          time.Time
		correct        = model.NewIDSet()
		decisions      = make(map[model.ID]model.Value)
		decidedAt      = make(map[model.ID]time.Duration)
		conflicting    = false
		decidedCorrect = 0
		done           = make(chan struct{})
		doneOnce       sync.Once
	)
	proposals := make(map[model.ID]model.Value, len(ids))
	reactors := make(map[model.ID]rt.Reactor, len(ids))
	tracers := map[model.ID]*tracer{0: cluster0}
	for _, id := range ids {
		id := id
		t := newTracer()
		tracers[id] = t
		value := model.Value(fmt.Sprintf("v%d", id))
		if v, ok := c.Values[id]; ok {
			value = v
		}
		proposals[id] = value
		bspec, isByz := c.Byz[id]
		if isByz && bspec.Kind == scenario.ByzSilent {
			reactors[id] = newTracedReactor(byz.Silent{}, t)
			continue
		}
		cfg := core.Config{
			Mode:        c.Mode,
			F:           c.F,
			PD:          c.Graph.OutSet(id).Clone(),
			Proposal:    value,
			Discovery:   disc,
			PBFTTimeout: pbftTimeout,
			PollPeriod:  pollPeriod,
			Hardened:    c.Hardened,
		}
		if c.Mode != core.ModePermissioned {
			cfg.Searcher = &tracedSearch{inner: kosr.NewSearcher(), t: t}
		}
		n := core.NewNode(&tracedSigner{inner: signers[id], t: t}, &tracedVerifier{inner: reg, t: t}, cfg, func(v model.Value) {
			mu.Lock()
			defer mu.Unlock()
			if prev, dup := decisions[id]; dup {
				if !prev.Equal(v) && correct.Has(id) {
					conflicting = true
				}
				return
			}
			decisions[id] = v
			decidedAt[id] = time.Since(start)
			if correct.Has(id) {
				decidedCorrect++
				if decidedCorrect == correct.Len() {
					doneOnce.Do(func() { close(done) })
				}
			}
		})
		reactors[id] = newTracedReactor(n, t)
		if !isByz {
			correct.Add(id)
		}
	}

	ld := &liveDelay{rng: rand.New(rand.NewSource(seed)), net: c.Net}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mu.Lock() // hold off decisions racing cluster start, as RunLive does
	bootStart := time.Now()
	cluster, err := netrt.NewCluster(ctx, ids, func(id model.ID) rt.Reactor { return reactors[id] }, netrt.ClusterConfig{
		Transport: "tcp",
		Seed:      seed,
		Delay:     ld.delay,
	})
	if err != nil {
		mu.Unlock()
		return liveRound{}, err
	}
	start = time.Now()
	mu.Unlock()
	r := liveRound{newCluster: start.Sub(bootStart), nodes: tracers}

	terminated := false
	select {
	case <-done:
		terminated = true
		time.Sleep(liveGrace)
	case <-time.After(time.Duration(int64(c.Horizon) / liveScale)):
	}
	stopStart := time.Now()
	cluster.Stop()
	r.stop = time.Since(stopStart)
	r.messages, r.bytes = cluster.Messages(), cluster.Bytes()
	r.wall = time.Since(roundStart)

	mu.Lock()
	defer mu.Unlock()
	r.ok, r.decide = true, time.Duration(int64(c.Horizon)/liveScale)
	switch {
	case !terminated:
		r.ok, r.why = false, "no termination"
	case conflicting:
		r.ok, r.why = false, "integrity violated"
	default:
		var last time.Duration
		var agreed model.Value
		for _, id := range correct.Sorted() {
			v := decisions[id]
			if decidedAt[id] > last {
				last = decidedAt[id]
			}
			if agreed == nil {
				agreed = v
			} else if !agreed.Equal(v) {
				r.ok, r.why = false, "agreement violated"
			}
			proposed := false
			for _, p := range proposals {
				if p.Equal(v) {
					proposed = true
				}
			}
			if !proposed {
				r.ok, r.why = false, "validity violated"
			}
		}
		r.decide = last
	}
	return r, nil
}

// runLiveTraced is live_cupft's traced pass: liveTracedRounds rounds through
// RunLive and as many through the instrumented runner, on the same seeds.
func runLiveTraced(cfg runConfig) (*runResult, error) {
	res := newResult()
	c, err := liveSetup(cfg.seed, 0)
	if err != nil {
		return nil, err
	}
	res.set("trace.clock_ns", calibrateClock(), 1)

	var plainWall, tracedWall, newCluster, stop, boot, msgs, kib []float64
	total := newTracer()
	var spans []spanRecord
	for i := 0; i < liveTracedRounds; i++ {
		seed := liveSeed(cfg.seed, i)
		plain, err := runLiveRound(c, seed)
		if err != nil {
			return nil, err
		}
		r, err := runLiveRoundTraced(c, seed)
		if err != nil {
			return nil, err
		}
		res.attempted++
		if !r.ok || !plain.ok {
			res.fail(1, fmt.Sprintf("live round seed %d: traced %q, untraced %q", seed, r.why, plain.why))
		}
		plainWall = append(plainWall, plain.wall.Seconds())
		boot = append(boot, float64(plain.boot().Nanoseconds())/1e6)
		tracedWall = append(tracedWall, r.wall.Seconds())
		newCluster = append(newCluster, float64(r.newCluster.Nanoseconds())/1e6)
		stop = append(stop, float64(r.stop.Nanoseconds())/1e6)
		msgs = append(msgs, float64(r.messages))
		kib = append(kib, float64(r.bytes)/1024)
		for id, t := range r.nodes {
			total.add(t)
			if cfg.traceOut != "" {
				spans = append(spans, spanRecords("live_cupft", fmt.Sprintf("live_cupft/seed=%d", seed), uint64(id), r.wall.Nanoseconds(), t)...)
			}
		}
	}
	rounds := float64(liveTracedRounds)
	busyMS := func(l layer) float64 { return float64(total.self[l]) / 1e6 / rounds }
	res.set("netrt.msgs_per_round", median(msgs), liveTracedRounds)
	res.set("netrt.kib_per_round", median(kib), liveTracedRounds)
	res.set("netrt.newcluster_ms_p50", median(newCluster), liveTracedRounds)
	res.set("netrt.stop_ms_p50", median(stop), liveTracedRounds)
	res.set("netrt.boot_ms_p50", median(boot), liveTracedRounds)
	res.set("netrt.send_ns_per_msg", ratio(float64(total.self[layerSend]), float64(total.count[layerSend])), int(total.count[layerSend]))
	res.set("discovery.busy_ms_per_round", busyMS(layerDiscovery), liveTracedRounds)
	res.set("pbft.busy_ms_per_round", busyMS(layerPBFT), liveTracedRounds)
	res.set("cryptox.busy_ms_per_round", busyMS(layerCryptox), liveTracedRounds)
	res.set("kosr.busy_ms_per_round", busyMS(layerKOSR), liveTracedRounds)
	res.set("discovery.fresh_ratio", ratio(float64(total.freshRecords), float64(total.setpdsRecords)), int(total.setpdsRecords))
	res.set("trace.overhead_pct", 100*(median(tracedWall)-median(plainWall))/median(plainWall), liveTracedRounds)
	addKernels(res)
	return res, writeSpans(cfg.traceOut, spans)
}
