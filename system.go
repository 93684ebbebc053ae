package bftcup

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/netrt"
	"github.com/bftcup/bftcup/internal/rt"
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
	// Exclude lists processes that exist in the topology but are never
	// started — the standard way to model silent Byzantine processes.
	Exclude []ID
	// Proposals maps processes to their proposed values; missing entries
	// default to "v<id>".
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
	blocks   int
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
	g := cfg.Topology.graph()
	all := g.Nodes()
	signers, registry, err := cryptox.GenerateKeys(cfg.KeySeed+1, all)
	if err != nil {
		return nil, fmt.Errorf("bftcup: %w", err)
	}
	excluded := model.NewIDSet(cfg.Exclude...)

	mode, err := cfg.Protocol.mode()
	if err != nil {
		return nil, err
	}

	s := &System{
		blocks:     cfg.Blocks,
		reactors:   make(map[ID]rt.Reactor),
		latency:    cfg.Latency,
		decisions:  make(map[ID]map[int]Value),
		committees: make(map[ID][]ID),
		done:       make(chan struct{}),
		events:     make(chan Decision, 1024),
	}
	for _, id := range all {
		if excluded.Has(id) {
			continue
		}
		id := id
		proposal := Value(fmt.Sprintf("v%d", id))
		if v, ok := cfg.Proposals[id]; ok {
			proposal = v
		}
		nodeCfg := core.Config{
			Mode:        mode,
			F:           cfg.F,
			PD:          g.OutSet(id).Clone(),
			Proposal:    proposal,
			PBFTTimeout: rt.Time(cfg.ConsensusTimeout),
			PollPeriod:  rt.Time(cfg.PollPeriod),
			Slots:       uint64(cfg.Blocks),
		}
		nodeCfg.Discovery.Period = rt.Time(cfg.DiscoveryPeriod)
		if cfg.ProposalFor != nil {
			nodeCfg.ProposalFor = func(slot uint64) Value { return cfg.ProposalFor(id, int(slot)) }
		}
		var node *core.Node
		nodeCfg.OnSlotDecided = func(slot uint64, v Value) {
			s.recordDecision(node, id, int(slot), v)
		}
		node = core.NewNode(signers[id], registry, nodeCfg, nil)
		s.reactors[id] = node
		s.started = append(s.started, id)
		s.decisions[id] = make(map[int]Value)
	}
	if len(s.started) == 0 {
		return nil, fmt.Errorf("bftcup: every process excluded")
	}
	sortIDs(s.started)
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
