package bftcup

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/netrt"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/scenario"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// SystemConfig assembles a live run of the protocol stack: one goroutine-driven
// node per process over an in-process netrt cluster of net.Pipe links.
type SystemConfig struct {
	// Topology is the knowledge connectivity graph; each started process
	// uses its out-list as its participant detector.
	Topology Topology
	// Protocol selects the committee-identification rule.
	Protocol Protocol
	// F is the fault threshold handed to processes (ProtocolBFTCUP and
	// ProtocolPermissioned only).
	F int
	// Exclude lists processes of the topology that are never started (the
	// standard way to model silent Byzantine ones); another ID is an error.
	Exclude []ID
	// Proposals maps processes of the topology to their proposed values;
	// missing entries default to "v<id>", another ID is an error.
	Proposals map[ID]Value
	// Blocks is the number of chained decisions over the bootstrapped
	// committee (default 1: classic one-shot consensus).
	Blocks int
	// ProposalFor overrides per-block proposals in chained mode.
	ProposalFor func(id ID, block int) Value
	// Latency optionally injects artificial per-link delay.
	Latency func(from, to ID) time.Duration
	// DiscoveryPeriod, ConsensusTimeout and PollPeriod tune the protocol
	// timers (sane defaults when zero).
	DiscoveryPeriod time.Duration
	// ConsensusTimeout is the committee protocol's base view timeout.
	ConsensusTimeout time.Duration
	// PollPeriod is the non-member decided-value polling interval.
	PollPeriod time.Duration
	// KeySeed seeds deterministic key generation.
	KeySeed int64
}

// Decision is one decided block at one process.
type Decision struct {
	// Process decided Value for chained block number Block.
	Process ID
	Block   int
	Value   Value
}

// System is a running live network of BFT-CUP/BFT-CUPFT processes.
type System struct {
	started  []ID
	reactors map[ID]rt.Reactor
	latency  func(from, to ID) time.Duration

	mu         sync.Mutex
	cluster    *netrt.Cluster // nil until Start
	decisions  map[ID]map[int]Value
	committees map[ID][]ID
	remaining  int
	done       chan struct{}
	events     chan Decision
}

// NewSystem builds a live system. Call Start to run it and Stop to shut it
// down; Stop must always be called, typically via defer.
func NewSystem(cfg SystemConfig) (*System, error) {
	if len(cfg.Topology) == 0 {
		return nil, fmt.Errorf("bftcup: empty topology")
	}
	if cfg.Blocks <= 0 {
		cfg.Blocks = 1
	}
	if cfg.DiscoveryPeriod <= 0 {
		cfg.DiscoveryPeriod = 10 * time.Millisecond
	}
	if cfg.ConsensusTimeout <= 0 {
		cfg.ConsensusTimeout = 250 * time.Millisecond
	}
	if cfg.PollPeriod <= 0 {
		cfg.PollPeriod = 20 * time.Millisecond
	}
	p, err := cfg.Protocol.params("system", cfg.F, cfg.Proposals)
	if err != nil {
		return nil, err
	}
	// An excluded process is a silent Byzantine one that is never started:
	// compiling it as such refuses an ID the topology does not have.
	p.Byz = make(map[model.ID]scenario.ByzSpec, len(cfg.Exclude))
	for _, id := range cfg.Exclude {
		p.Byz[id] = scenario.ByzSpec{Kind: scenario.ByzSilent}
	}
	c, err := p.CompileGraph(graph.BuiltGraph{G: cfg.Topology.graph()})
	if err != nil {
		return nil, err
	}
	// Live nodes at scale 1 run these durations as they are.
	c.Discovery.Period = rt.Time(cfg.DiscoveryPeriod)
	c.PBFTTimeout = rt.Time(cfg.ConsensusTimeout)
	c.PollPeriod = rt.Time(cfg.PollPeriod)

	s := &System{
		reactors:   make(map[ID]rt.Reactor),
		latency:    cfg.Latency,
		decisions:  make(map[ID]map[int]Value),
		committees: make(map[ID][]ID),
		done:       make(chan struct{}),
		events:     make(chan Decision, 1024),
	}
	// One key store for every node: the processes of a System share one
	// registry, so a signature one of them made is a seeded memo hit for the
	// others.
	keys := cryptox.NewKeys()
	for _, id := range c.Graph.Nodes() {
		if _, excluded := c.Byz[id]; excluded {
			continue
		}
		id := id
		var proposalFor func(slot uint64) Value
		if cfg.ProposalFor != nil {
			proposalFor = func(slot uint64) Value { return cfg.ProposalFor(id, int(slot)) }
		}
		var node *core.Node
		node, err = c.LiveNode(keys, cfg.KeySeed, id, 1, uint64(cfg.Blocks), proposalFor, func(slot uint64, v Value) {
			s.recordDecision(node, id, int(slot), v)
		})
		if err != nil {
			return nil, err
		}
		s.reactors[id] = node
		s.started = append(s.started, id)
		s.decisions[id] = make(map[int]Value)
	}
	if len(s.started) == 0 {
		return nil, fmt.Errorf("bftcup: every process excluded")
	}
	s.remaining = len(s.started) * cfg.Blocks
	return s, nil
}

// recordDecision runs on the deciding node's goroutine.
func (s *System) recordDecision(node *core.Node, id ID, block int, v Value) {
	s.mu.Lock()
	if _, dup := s.decisions[id][block]; dup {
		s.mu.Unlock()
		return
	}
	s.decisions[id][block] = v
	if cand, ok := node.Committee(); ok {
		s.committees[id] = cand.Members().Sorted()
	}
	s.remaining--
	finished := s.remaining == 0
	s.mu.Unlock()
	select {
	case s.events <- Decision{Process: id, Block: block, Value: v}:
	default: // observers that do not drain must not block consensus
	}
	if finished {
		close(s.done)
	}
}

// Start launches the network: every started process becomes a node of a
// netrt pipe cluster (excluded processes are simply not in it, so sends to
// them drop). Calling Start again is a no-op.
func (s *System) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cluster != nil {
		return
	}
	cc := netrt.ClusterConfig{Transport: "pipe"}
	if s.latency != nil {
		cc.Delay = func(from, to model.ID, _ rt.Time) rt.Time { return rt.Time(s.latency(from, to)) }
	}
	cluster, err := netrt.NewCluster(context.Background(), s.started, func(id model.ID) rt.Reactor { return s.reactors[id] }, cc)
	if err != nil {
		// Only the TCP transport can fail (it opens listeners).
		panic(fmt.Sprintf("bftcup: pipe cluster: %v", err))
	}
	s.cluster = cluster
}

// running returns the cluster, nil before Start.
func (s *System) running() *netrt.Cluster {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cluster
}

// Stop shuts the network down and joins every goroutine. Idempotent, and a
// no-op before Start.
func (s *System) Stop() {
	if c := s.running(); c != nil {
		c.Stop()
	}
}

// Events returns a stream of decisions (best-effort: if the consumer lags,
// events are dropped from the stream but still recorded in Decisions).
func (s *System) Events() <-chan Decision { return s.events }

// WaitAll blocks until every started process has decided every block, or the
// context expires.
func (s *System) WaitAll(ctx context.Context) error {
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		defer s.mu.Unlock()
		return fmt.Errorf("bftcup: %d decisions outstanding: %w", s.remaining, ctx.Err())
	}
}

// DecisionOf returns the value process id decided for a block.
func (s *System) DecisionOf(id ID, block int) (Value, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.decisions[id][block]
	return v, ok
}

// Decisions returns a snapshot of all decisions (process → block → value).
func (s *System) Decisions() map[ID]map[int]Value {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[ID]map[int]Value, len(s.decisions))
	for id, blocks := range s.decisions {
		m := make(map[int]Value, len(blocks))
		for b, v := range blocks {
			m[b] = v
		}
		out[id] = m
	}
	return out
}

// CommitteeOf returns the committee process id identified, once it decided.
func (s *System) CommitteeOf(id ID) ([]ID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.committees[id]
	return append([]ID(nil), c...), ok
}

// Started returns the processes actually running (topology minus Exclude).
func (s *System) Started() []ID { return append([]ID(nil), s.started...) }

// Messages returns the total messages sent so far.
func (s *System) Messages() int64 {
	if c := s.running(); c != nil {
		return c.Messages()
	}
	return 0
}

// Bytes returns the total payload bytes sent so far.
func (s *System) Bytes() int64 {
	if c := s.running(); c != nil {
		return c.Bytes()
	}
	return 0
}
