package bftcup

import (
	"fmt"
	"time"

	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

// Behavior selects a Byzantine strategy in simulations.
type Behavior int

// Byzantine behaviors.
const (
	// BehaviorSilent never sends a message.
	BehaviorSilent Behavior = iota
	// BehaviorFakePD gossips a chosen false participant detector.
	BehaviorFakePD
	// BehaviorEquivocatePD claims different PDs to different peers.
	BehaviorEquivocatePD
	// BehaviorAsCorrect runs the correct protocol while counting against f.
	BehaviorAsCorrect
)

// Byzantine configures one Byzantine process in a simulation.
type Byzantine struct {
	// Behavior selects what the process does.
	Behavior Behavior
	// ClaimedPD is the advertised PD for BehaviorFakePD/BehaviorEquivocatePD
	// (empty: a forged claim of the three lowest-ID other processes).
	ClaimedPD []ID
	// AltPD is the second PD for BehaviorEquivocatePD.
	AltPD []ID
}

// NetworkKind selects the communication model of Table I.
type NetworkKind int

// Network kinds.
const (
	// NetworkSynchronous bounds every delay by Delta from time zero.
	NetworkSynchronous NetworkKind = iota
	// NetworkPartiallySynchronous delays SlowGroups-crossing (or, with no
	// groups, all) links until GST, synchronous afterwards.
	NetworkPartiallySynchronous
	// NetworkAsynchronousAdversarial grows delays faster than any timeout
	// schedule: deterministic consensus never terminates.
	NetworkAsynchronousAdversarial
)

// Network describes the simulated communication model.
type Network struct {
	// Kind selects the communication model.
	Kind  NetworkKind
	Delta time.Duration // default 5ms
	GST   time.Duration // partial synchrony only
	// SlowGroups: before GST, only intra-group links are fast. Empty means
	// every link is slow pre-GST.
	SlowGroups [][]ID
}

// params is the network as scenario data; zero Delta and GST keep the
// scenario defaults (5ms, 2s).
func (n Network) params() scenario.NetParams {
	np := scenario.NetParams{Delta: sim.Time(n.Delta), GST: sim.Time(n.GST)}
	switch n.Kind {
	case NetworkPartiallySynchronous:
		np.Kind = scenario.NetPartial
	case NetworkAsynchronousAdversarial:
		np.Kind = scenario.NetAsync
	}
	for _, g := range n.SlowGroups {
		np.FastGroups = append(np.FastGroups, model.NewIDSet(g...))
	}
	return np
}

// SimOptions describes one deterministic simulation.
type SimOptions struct {
	// Topology is the knowledge connectivity graph; each process uses its
	// out-list as its participant detector.
	Topology Topology
	// Protocol selects the committee-identification rule.
	Protocol Protocol
	F        int // ProtocolBFTCUP / ProtocolPermissioned
	// Byzantine assigns faulty behaviors by process.
	Byzantine map[ID]Byzantine
	// Proposals maps processes to values (default "v<id>").
	Proposals map[ID]Value
	// Network is the simulated communication model.
	Network Network
	Horizon time.Duration // default 60s of virtual time
	// Seed makes the whole run deterministic.
	Seed int64
}

// SimReport grades a simulated run.
type SimReport struct {
	// ConsensusSolved is true when Termination, Agreement, Validity and
	// Integrity all hold among correct processes.
	ConsensusSolved bool
	Termination     bool
	Agreement       bool
	Validity        bool
	Integrity       bool
	// FailureMode names the violated property (empty on success).
	FailureMode string
	// Decisions and Committees record each process's decided value and
	// adopted committee; Messages and Bytes total the network traffic.
	Decisions  map[ID]Value
	Committees map[ID][]ID
	Messages   int64
	Bytes      int64
	// Elapsed is the virtual time of the last correct decision.
	Elapsed time.Duration
}

// behaviorKinds maps the public behaviors onto the scenario layer's.
var behaviorKinds = map[Behavior]scenario.ByzKind{
	BehaviorSilent:       scenario.ByzSilent,
	BehaviorFakePD:       scenario.ByzFakePD,
	BehaviorEquivocatePD: scenario.ByzEquivPD,
	BehaviorAsCorrect:    scenario.ByzAsCorrect,
}

// params is the options as scenario data — everything but the topology,
// which no graph.Def describes and Simulate hands over already built.
func (opt SimOptions) params() (scenario.Params, error) {
	mode, err := opt.Protocol.mode()
	if err != nil {
		return scenario.Params{}, err
	}
	p := scenario.Params{
		Name:    "simulate",
		Mode:    mode,
		F:       opt.F,
		Values:  opt.Proposals,
		Net:     opt.Network.params(),
		Horizon: sim.Time(opt.Horizon),
		Seed:    opt.Seed,
		Byz:     make(map[model.ID]scenario.ByzParams, len(opt.Byzantine)),
	}
	for id, b := range opt.Byzantine {
		kind, ok := behaviorKinds[b.Behavior]
		if !ok {
			return scenario.Params{}, fmt.Errorf("bftcup: unknown behavior %v", b.Behavior)
		}
		p.Byz[id] = scenario.ByzParams{Kind: kind, ClaimedPD: b.ClaimedPD, AltPD: b.AltPD}
	}
	return p, nil
}

// Simulate runs the protocol stack on the deterministic discrete-event
// simulator and checks the consensus properties. Identical options produce
// identical reports.
func Simulate(opt SimOptions) (*SimReport, error) {
	if len(opt.Topology) == 0 {
		return nil, fmt.Errorf("bftcup: empty topology")
	}
	p, err := opt.params()
	if err != nil {
		return nil, err
	}
	c, err := p.CompileGraph(graph.BuiltGraph{G: opt.Topology.graph()})
	if err != nil {
		return nil, err
	}
	res, err := c.Run(p.Seed, false)
	if err != nil {
		return nil, err
	}
	report := &SimReport{
		ConsensusSolved: res.Consensus(),
		Termination:     res.Termination,
		Agreement:       res.Agreement,
		Validity:        res.Validity,
		Integrity:       res.Integrity,
		FailureMode:     res.FailureMode(),
		Decisions:       make(map[ID]Value),
		Committees:      make(map[ID][]ID),
		Messages:        res.Messages,
		Bytes:           res.Bytes,
		Elapsed:         time.Duration(res.Elapsed),
	}
	for id, pr := range res.PerProcess {
		if pr.Decided {
			report.Decisions[id] = pr.Value
		}
		if pr.Committee != nil {
			report.Committees[id] = pr.Committee.Sorted()
		}
	}
	return report, nil
}
