package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/discovery"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/netrt"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/sim"
)

// RunLive executes a Compiled scenario over the real-runtime stack instead of
// the simulator: the same reactors (correct nodes and the Byzantine zoo),
// built from the same compiled graph, keys and placement, run as goroutines
// over netrt streams — localhost TCP or net.Pipe — and are graded by the same
// agreement/validity/integrity/termination rules as Runner.Run. The simulator
// and this path are twins: on the same compiled cell they must reach the same
// verdicts, and the twin tests pin exactly that.
//
// Live runs are wall-clock bound, so virtual durations are mapped to real
// time divided by LiveOptions.Scale: protocol periods, timeouts, the horizon
// and every network-model delay shrink together, preserving their ratios —
// which is what the verdicts depend on. Results come back in virtual units
// (DecidedAt and Elapsed are scaled back up) so they read on the same axis as
// simulator results.
//
// Chaos fault injection (link faults, churn) is a simulator-only feature;
// compiled cells with an active fault axis are rejected.

// LiveOptions tunes RunLive.
type LiveOptions struct {
	// Transport selects the link type: "pipe" (net.Pipe, the unit-test
	// harness, default) or "tcp" (localhost sockets, the cupd-shaped path).
	Transport string
	// Scale divides every virtual duration to get real time; 0 means 10
	// (a compiled 60s horizon runs for at most 6 wall seconds).
	Scale int64
}

// liveTimerFloor keeps scaled-down periods from degenerating into busy
// loops on slow machines.
const liveTimerFloor = 200 * rt.Microsecond

// scaleDur maps one virtual protocol duration to real time: explicit values
// win, zero falls back to the module default the simulator would have used —
// scaling must not diverge from what Runner.Run runs.
func scaleDur(v, def sim.Time, scale int64) rt.Time {
	if v <= 0 {
		v = def
	}
	d := rt.Time(int64(v) / scale)
	if d < liveTimerFloor {
		d = liveTimerFloor
	}
	return d
}

// LiveDurations returns the protocol stack's durations mapped for a live run
// at the given scale (0 means 10): the discovery config, the PBFT base
// timeout and the decided-poll period. RunLive and LiveNode build their
// nodes on exactly these, and the benchmark's traced live round does too.
func (c *Compiled) LiveDurations(scale int64) (disc discovery.Config, pbftTimeout, pollPeriod rt.Time) {
	if scale <= 0 {
		scale = 10
	}
	disc = c.Discovery
	disc.Period = scaleDur(disc.Period, discovery.DefaultConfig().Period, scale)
	pbftTimeout = scaleDur(c.PBFTTimeout, core.DefaultPBFTTimeout, scale)
	pollPeriod = scaleDur(c.PollPeriod, core.DefaultPollPeriod, scale)
	return disc, pbftTimeout, pollPeriod
}

// liveStack is the stack of a live run at the given scale: LiveDurations'
// timers, the seed's keyring from keys, and a searcher of its own for every
// node (nodes run concurrently; there is no Runner pool to share).
func (c *Compiled) liveStack(keys *cryptox.Keys, seed, scale int64) (stack, error) {
	disc, pbftTimeout, pollPeriod := c.LiveDurations(scale)
	st, err := c.newStack(keys, seed, disc, pbftTimeout, pollPeriod)
	st.searcher = func() kosr.Search { return kosr.NewSearcher() }
	return st, err
}

// liveNet adapts the compiled sim.NetworkModel into the netrt per-message
// delay hook: virtual "now" is real elapsed time multiplied back up, the
// model's virtual delay is divided back down. The RNG is shared across nodes
// (models draw jitter from it), so it is locked — live delay draws are
// wall-clock ordered and deliberately not deterministic.
type liveNet struct {
	mu    sync.Mutex
	rng   *rand.Rand
	net   sim.NetworkModel
	scale int64
}

func (l *liveNet) delay(from, to model.ID, now rt.Time) rt.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.net.Delay(from, to, now*rt.Time(l.scale), l.rng)
	if d < 0 {
		d = 0
	}
	return d / rt.Time(l.scale)
}

// RunLive executes the compiled scenario under one seed on the live runtime.
// The seed drives key material and reactor RNGs exactly as in Runner.Run;
// scheduling, however, is the operating system's, so traces are not
// reproducible — only verdicts are the contract. Each call is a run of its
// own: its nodes share one key store, which goes with the call.
func (c *Compiled) RunLive(seed int64, opts LiveOptions) (*Result, error) {
	name := c.runName(seed)
	if c.Faults.Enabled() {
		return nil, fmt.Errorf("scenario %q: live runtime does not support fault injection", name)
	}
	scale := opts.Scale
	if scale <= 0 {
		scale = 10
	}
	transport := opts.Transport
	if transport == "" {
		transport = "pipe"
	}

	st, err := c.liveStack(cryptox.NewKeys(), seed, scale)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", name, err)
	}
	// Decide callbacks arrive on node event-loop goroutines, so unlike
	// Runner.Run the log is mutex-guarded.
	var (
		mu       sync.Mutex
		log      runLog
		start    time.Time
		done     = make(chan struct{})
		doneOnce sync.Once
	)
	log.reset()
	st.decide = func(id model.ID, _ uint64, v model.Value) {
		mu.Lock()
		defer mu.Unlock()
		// Reported in virtual units, like every simulator result.
		if log.record(id, v, rt.Time(time.Since(start))*rt.Time(scale)) && log.allCorrectDecided() {
			doneOnce.Do(func() { close(done) })
		}
	}
	reactors := make(map[model.ID]rt.Reactor, len(c.ids))
	err = st.assemble(&log, func(id model.ID, r rt.Reactor) error {
		reactors[id] = r
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", name, err)
	}
	if log.allCorrectDecided() {
		// No correct process: vacuous termination, as in Runner.Run's
		// immediate cond check.
		doneOnce.Do(func() { close(done) })
	}

	ln := &liveNet{rng: rand.New(rand.NewSource(seed)), net: c.Net, scale: scale}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mu.Lock() // hold off decisions racing cluster start
	cluster, err := netrt.NewCluster(ctx, c.ids, func(id model.ID) rt.Reactor { return reactors[id] }, netrt.ClusterConfig{
		Transport: transport,
		Seed:      seed,
		Delay:     ln.delay,
	})
	if err != nil {
		mu.Unlock()
		return nil, fmt.Errorf("scenario %q: %w", name, err)
	}
	start = time.Now()
	mu.Unlock()

	select {
	case <-done:
		// Let in-flight decisions propagate a little further for reporting —
		// the Runner's one extra virtual second, scaled.
		time.Sleep(time.Duration(int64(sim.Second) / scale))
	case <-time.After(time.Duration(int64(c.Horizon) / scale)):
	}
	cluster.Stop()

	res := &Result{Name: name, PerProcess: make(map[model.ID]ProcessResult)}
	mu.Lock()
	defer mu.Unlock()
	log.grade(c, res, log.allCorrectDecided())
	res.Messages, res.Bytes = cluster.Messages(), cluster.Bytes()
	res.Dropped, res.Rejected = cluster.Dropped(), cluster.Rejected()
	return res, nil
}

// LiveNode assembles one correct live node — a cupd daemon, or a process of
// the root package's System: process id of the compiled cell, with the key
// material and scaled durations a RunLive cluster of the same seed and scale
// would give it. Its signer and registry come from keys, so nodes built on
// one store share a registry (a System), and a node on a store of its own
// verifies its peers' signatures itself (a cupd process). It runs slots
// chained slots (0 or 1: one-shot), proposing proposalFor(slot) when that is
// non-nil and the cell's proposal otherwise; decided receives every slot's
// decision on the node's event-loop goroutine.
func (c *Compiled) LiveNode(keys *cryptox.Keys, seed int64, id model.ID, scale int64, slots uint64, proposalFor func(slot uint64) model.Value, decided func(slot uint64, v model.Value)) (*core.Node, error) {
	name := c.runName(seed)
	if !c.Graph.HasNode(id) {
		return nil, fmt.Errorf("scenario %q: process %v is not in the graph", name, id)
	}
	if _, isByz := c.Byz[id]; isByz {
		return nil, fmt.Errorf("scenario %q: process %v is Byzantine; a daemon only runs correct nodes", name, id)
	}
	st, err := c.liveStack(keys, seed, scale)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", name, err)
	}
	st.slots, st.proposalFor = slots, proposalFor
	st.decide = func(_ model.ID, slot uint64, v model.Value) { decided(slot, v) }
	return st.node(id, st.proposal(id)), nil
}
