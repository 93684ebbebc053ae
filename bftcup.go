// Package bftcup is a from-scratch implementation of Byzantine fault-tolerant
// consensus with unknown participants (BFT-CUP) and its extension to an
// unknown fault threshold (BFT-CUPFT), reproducing Heydari, Vassantlal and
// Bessani, "Knowledge Connectivity Requirements for Solving BFT Consensus
// with Unknown Participants and Fault Threshold" (ICDCS 2024).
//
// Each process joins the system knowing only a subset of participants (its
// participant detector); the union of that knowledge forms a directed
// knowledge connectivity graph. The library provides:
//
//   - model checkers for the paper's graph requirements: k-OSR PD (BFT-CUP,
//     Theorem 1) and extended k-OSR PD (BFT-CUPFT, Definition 2);
//   - the full protocol stack — signed Discovery, the Sink algorithm (known
//     fault threshold), the Core algorithm (unknown fault threshold) and a
//     PBFT committee phase with the generalized quorum ⌈(|S|+f+1)/2⌉ —
//     runnable live over in-process netrt pipes (System) or on a
//     deterministic discrete-event simulator (Simulate);
//   - the paper's figure topologies and random topology generators;
//   - chained (multi-block) consensus over a bootstrapped committee.
//
// Quick start:
//
//	topo := bftcup.Figure1b()
//	sys, err := bftcup.NewSystem(bftcup.SystemConfig{
//		Topology: topo,
//		Protocol: bftcup.ProtocolBFTCUPFT,
//		Exclude:  []bftcup.ID{4}, // the Byzantine process stays silent
//	})
//	...
//	sys.Start()
//	err = sys.WaitAll(ctx)
//	fmt.Println(sys.DecisionOf(1, 0))
package bftcup

import (
	"fmt"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/scenario"
)

// ID identifies a process; IDs are Sybil-proof by assumption.
type ID = model.ID

// Value is an opaque consensus proposal.
type Value = model.Value

// Protocol selects how processes identify the consensus committee.
type Protocol int

// Protocols.
const (
	// ProtocolBFTCUP is the authenticated BFT-CUP model: every process knows
	// the fault threshold f (Section III of the paper).
	ProtocolBFTCUP Protocol = iota
	// ProtocolBFTCUPFT is the paper's contribution: no process knows f
	// (Sections V-VI).
	ProtocolBFTCUPFT
	// ProtocolPermissioned is the classic setting: full membership and f
	// known; the committee phase runs directly.
	ProtocolPermissioned
)

// protocolModes names the protocols as the internal layers do.
var protocolModes = map[Protocol]core.Mode{
	ProtocolBFTCUP:       core.ModeKnownF,
	ProtocolBFTCUPFT:     core.ModeUnknownF,
	ProtocolPermissioned: core.ModePermissioned,
}

// String implements fmt.Stringer: a protocol is spelled as its mode.
func (p Protocol) String() string {
	if mode, ok := protocolModes[p]; ok {
		return mode.String()
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// params is the scenario a facade run (Simulate, NewSystem) starts from:
// the protocol's mode, the fault threshold and the proposals.
func (p Protocol) params(name string, f int, proposals map[ID]Value) (scenario.Params, error) {
	mode, ok := protocolModes[p]
	if !ok {
		return scenario.Params{}, fmt.Errorf("bftcup: unknown protocol %v", p)
	}
	return scenario.Params{Name: name, Mode: mode, F: f, Values: proposals}, nil
}

// Topology is a knowledge connectivity graph in adjacency form: Topology[i]
// lists the processes i initially knows (its participant detector).
type Topology map[ID][]ID

// Graph converts the topology to the internal digraph.
func (t Topology) graph() *graph.Digraph {
	g := graph.New()
	for u, outs := range t {
		g.AddNode(u)
		for _, v := range outs {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Processes returns every process mentioned by the topology, ascending.
func (t Topology) Processes() []ID {
	set := model.NewIDSet()
	for u, outs := range t {
		set.Add(u)
		for _, v := range outs {
			set.Add(v)
		}
	}
	return set.Sorted()
}

// Clone returns an independent copy.
func (t Topology) Clone() Topology {
	c := make(Topology, len(t))
	for u, outs := range t {
		c[u] = append([]ID(nil), outs...)
	}
	return c
}

// CheckResult reports whether a topology satisfies a model's requirements.
type CheckResult struct {
	// OK reports whether the requirements hold.
	OK bool
	// Reason explains a failure (empty when OK).
	Reason string
	// Committee is the sink (BFT-CUP) or core (BFT-CUPFT) of the safe
	// subgraph when OK.
	Committee []ID
	// CommitteeThreshold is f_G(committee) for BFT-CUPFT checks.
	CommitteeThreshold int
}

// CheckBFTCUP verifies Theorem 1: the safe subgraph (topology minus the
// Byzantine processes) must be (f+1)-OSR with a sink of ≥ 2f+1 processes.
func CheckBFTCUP(t Topology, byzantine []ID, f int) CheckResult {
	r := graph.CheckBFTCUP(t.graph(), model.NewIDSet(byzantine...), f)
	out := CheckResult{OK: r.OK, Reason: r.Reason}
	if r.OK {
		out.Committee = r.Sink.Sorted()
		out.CommitteeThreshold = f
	}
	return out
}

// CheckBFTCUPFT verifies the BFT-CUPFT requirements (Section V): the safe
// subgraph must be extended (f+1)-OSR with a core of ≥ 2f+1 processes.
func CheckBFTCUPFT(t Topology, byzantine []ID, f int) CheckResult {
	r := kosr.CheckBFTCUPFT(t.graph(), model.NewIDSet(byzantine...), f)
	out := CheckResult{OK: r.OK, Reason: r.Reason}
	if r.OK {
		out.Committee = r.Core.Sorted()
		out.CommitteeThreshold = r.FG
	}
	return out
}

// topologyOf converts an internal digraph to the public form.
func topologyOf(g *graph.Digraph) Topology {
	t := make(Topology, g.NumNodes())
	for _, u := range g.Nodes() {
		t[u] = g.Out(u)
	}
	return t
}

// Figure1a returns the paper's Fig. 1a reconstruction: a graph that violates
// the BFT-CUP requirements (Byzantine 4 is the only knowledge bridge).
func Figure1a() Topology { return topologyOf(graph.Fig1a().G) }

// Figure1b returns Fig. 1b: a BFT-CUP-valid graph with f = 1 and Byzantine
// process 4; the committee is {1,2,3,4}.
func Figure1b() Topology { return topologyOf(graph.Fig1b().G) }

// Figure2c returns Fig. 2c (system AB of the Theorem 7 impossibility proof).
func Figure2c() Topology { return topologyOf(graph.Fig2c().G) }

// Figure3a returns Fig. 3a: a BFT-CUP-valid graph whose non-sink members can
// falsely declare themselves a sink when f is unknown.
func Figure3a() Topology { return topologyOf(graph.Fig3a().G) }

// Figure4a returns Fig. 4a: an extended k-OSR graph (BFT-CUPFT-valid) whose
// core {1,2,3,4} differs from the full graph's sink component.
func Figure4a() Topology { return topologyOf(graph.Fig4a().G) }

// Figure4b returns Fig. 4b: an extended k-OSR graph whose core equals the
// sink ({8..15}), tolerating f = 2 without any process knowing it.
func Figure4b() Topology { return topologyOf(graph.Fig4b().G) }

// RandomKOSR generates a topology whose safe subgraph is (f+1)-OSR with a
// planted sink of sinkSize processes (IDs 1..sinkSize), suitable for
// ProtocolBFTCUP with the given f.
func RandomKOSR(seed int64, sinkSize, nonSinkSize, f int) (Topology, []ID, error) {
	g, sink, err := graph.GenKOSR(newRand(seed), graph.GenSpec{
		SinkSize:    sinkSize,
		NonSinkSize: nonSinkSize,
		K:           f + 1,
		ExtraEdgeP:  0.15,
	})
	if err != nil {
		return nil, nil, err
	}
	return topologyOf(g), sink.Sorted(), nil
}

// RandomExtendedKOSR generates a BFT-CUPFT-valid topology with a planted core
// of coreSize processes (IDs 1..coreSize).
func RandomExtendedKOSR(seed int64, coreSize, nonCoreSize int) (Topology, []ID, error) {
	g, core, _, err := graph.GenExtendedKOSR(newRand(seed), graph.GenSpec{
		SinkSize:    coreSize,
		NonSinkSize: nonCoreSize,
		ExtraEdgeP:  0.15,
	})
	if err != nil {
		return nil, nil, err
	}
	return topologyOf(g), core.Sorted(), nil
}
