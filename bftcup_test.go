package bftcup

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

func TestCheckers(t *testing.T) {
	if r := CheckBFTCUP(Figure1b(), []ID{4}, 1); !r.OK {
		t.Fatalf("Fig1b should satisfy BFT-CUP: %s", r.Reason)
	}
	if r := CheckBFTCUP(Figure1a(), []ID{4}, 1); r.OK {
		t.Fatal("Fig1a should fail BFT-CUP")
	}
	r := CheckBFTCUPFT(Figure4a(), []ID{4}, 1)
	if !r.OK {
		t.Fatalf("Fig4a should satisfy BFT-CUPFT: %s", r.Reason)
	}
	if len(r.Committee) != 3 { // safe core {1,2,3}
		t.Fatalf("Fig4a safe core = %v", r.Committee)
	}
	if r := CheckBFTCUPFT(Figure2c(), nil, 0); r.OK {
		t.Fatal("Fig2c should fail BFT-CUPFT")
	}
}

func TestTopologyHelpers(t *testing.T) {
	topo := Topology{1: {2}, 2: {3}}
	if got := topo.Processes(); len(got) != 3 {
		t.Fatalf("Processes = %v", got)
	}
	c := topo.Clone()
	c[1][0] = 9
	if topo[1][0] != 2 {
		t.Fatal("Clone shares slices")
	}
}

func TestRandomGenerators(t *testing.T) {
	topo, sink, err := RandomKOSR(1, 5, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := CheckBFTCUP(topo, nil, 1); !r.OK {
		t.Fatalf("RandomKOSR output invalid: %s", r.Reason)
	}
	if len(sink) != 5 {
		t.Fatalf("sink = %v", sink)
	}
	topo2, core2, err := RandomExtendedKOSR(2, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r := CheckBFTCUPFT(topo2, nil, 1); !r.OK {
		t.Fatalf("RandomExtendedKOSR output invalid: %s", r.Reason)
	}
	if len(core2) != 5 {
		t.Fatalf("core = %v", core2)
	}
}

func TestLiveSystemQuickstart(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Topology: Figure1b(),
		Protocol: ProtocolBFTCUP,
		F:        1,
		Exclude:  []ID{4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	sys.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	ref, ok := sys.DecisionOf(1, 0)
	if !ok {
		t.Fatal("process 1 did not decide")
	}
	for _, id := range sys.Started() {
		v, ok := sys.DecisionOf(id, 0)
		if !ok || !v.Equal(ref) {
			t.Fatalf("%v decided %q, want %q", id, v, ref)
		}
		c, ok := sys.CommitteeOf(id)
		if !ok || len(c) != 4 {
			t.Fatalf("%v committee = %v", id, c)
		}
	}
	if sys.Messages() == 0 || sys.Bytes() == 0 {
		t.Fatal("metrics empty")
	}
}

func TestLiveSystemChained(t *testing.T) {
	const blocks = 3
	sys, err := NewSystem(SystemConfig{
		Topology: Figure4a(),
		Protocol: ProtocolBFTCUPFT,
		Exclude:  []ID{4},
		Blocks:   blocks,
		ProposalFor: func(id ID, block int) Value {
			return Value(fmt.Sprintf("block%d-by-%d", block, id))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	sys.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	all := sys.Decisions()
	for b := 0; b < blocks; b++ {
		ref := all[1][b]
		for _, id := range sys.Started() {
			if !all[id][b].Equal(ref) {
				t.Fatalf("block %d differs at %v: %q vs %q", b, id, all[id][b], ref)
			}
		}
	}
}

// TestSystemChainedProposals pins what the System hands each node for
// chained mode: every process decides every block, and block b decides a
// value some process proposed for block b through ProposalFor.
func TestSystemChainedProposals(t *testing.T) {
	const blocks = 2
	sys, err := NewSystem(SystemConfig{
		Topology: Figure1b(),
		Protocol: ProtocolBFTCUP,
		F:        1,
		Exclude:  []ID{4},
		Blocks:   blocks,
		ProposalFor: func(id ID, block int) Value {
			return Value(fmt.Sprintf("block%d-by-%d", block, id))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	sys.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	for id, byBlock := range sys.Decisions() {
		for b := 0; b < blocks; b++ {
			if v := string(byBlock[b]); !strings.HasPrefix(v, fmt.Sprintf("block%d-by-", b)) {
				t.Fatalf("%v decided %q for block %d", id, v, b)
			}
		}
	}
}

// TestSystemStopAnyTime pins the Stop contract: a no-op before Start (which
// still works afterwards), idempotent after. The run injects link latency so
// the netrt delay adapter is exercised too.
func TestSystemStopAnyTime(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Topology: Figure1b(),
		Protocol: ProtocolBFTCUP,
		F:        1,
		Exclude:  []ID{4},
		Latency:  func(from, to ID) time.Duration { return time.Millisecond },
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Stop()
	if sys.Messages() != 0 || sys.Bytes() != 0 {
		t.Fatal("traffic counted before Start")
	}
	sys.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	sys.Stop()
	sys.Stop()
	if sys.Messages() == 0 {
		t.Fatal("metrics lost after Stop")
	}
}

func TestSimulatePossibility(t *testing.T) {
	rep, err := Simulate(SimOptions{
		Topology:  Figure4a(),
		Protocol:  ProtocolBFTCUPFT,
		Byzantine: map[ID]Byzantine{4: {Behavior: BehaviorSilent}},
		Network:   Network{Kind: NetworkPartiallySynchronous, GST: time.Second},
		Horizon:   60 * time.Second,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ConsensusSolved {
		t.Fatalf("expected consensus: %s", rep.FailureMode)
	}
	if len(rep.Committees[1]) != 4 {
		t.Fatalf("committee = %v", rep.Committees[1])
	}
}

func TestSimulateImpossibility(t *testing.T) {
	rep, err := Simulate(fig2cSplit(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Agreement {
		t.Fatal("expected the Theorem 7 agreement violation")
	}
	if rep.FailureMode != "agreement violated" {
		t.Fatalf("failure mode = %q", rep.FailureMode)
	}
	if !rep.Decisions[1].Equal(Value("v")) || !rep.Decisions[8].Equal(Value("u")) {
		t.Fatalf("split decisions wrong: %v", rep.Decisions)
	}
}

func TestSimulateAsyncNonTermination(t *testing.T) {
	rep, err := Simulate(SimOptions{
		Topology: Topology{1: {2, 3, 4}, 2: {1, 3, 4}, 3: {1, 2, 4}, 4: {1, 2, 3}},
		Protocol: ProtocolPermissioned,
		F:        1,
		Network:  Network{Kind: NetworkAsynchronousAdversarial},
		Horizon:  30 * time.Second,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Termination {
		t.Fatal("adversarial asynchrony should prevent termination")
	}
}

// fig2cProposals is the Theorem 7 assignment: system A proposes v, B proposes u.
var fig2cProposals = map[ID]Value{
	1: Value("v"), 2: Value("v"), 3: Value("v"), 4: Value("v"),
	5: Value("u"), 6: Value("u"), 7: Value("u"), 8: Value("u"),
}

// fig2cSplit is the examples/impossibility run: BFT-CUPFT on Fig. 2c under the
// Theorem 7 schedule — before GST only the two islands talk internally.
func fig2cSplit(seed int64) SimOptions {
	return SimOptions{
		Topology: Figure2c(), Protocol: ProtocolBFTCUPFT, Proposals: fig2cProposals,
		Network: Network{
			Kind:       NetworkPartiallySynchronous,
			GST:        30 * time.Second,
			SlowGroups: [][]ID{{1, 2, 3}, {6, 7, 8}},
		},
		Horizon: 90 * time.Second,
		Seed:    seed,
	}
}

// decided maps every listed process to v.
func decided(v string, ids ...ID) map[ID]Value {
	out := make(map[ID]Value, len(ids))
	for _, id := range ids {
		out[id] = Value(v)
	}
	return out
}

// TestSimulateFacadePin holds Simulate to the reports it returned before it
// became a veneer over scenario.Params (recorded at the parent of that PR,
// where it built its network model and Byzantine assignment by hand): same
// traffic, same virtual time, same decisions.
func TestSimulateFacadePin(t *testing.T) {
	fig1bCorrect := []ID{1, 2, 3, 5, 6, 7, 8}
	for _, tc := range []struct {
		name      string
		opts      SimOptions
		messages  int64
		bytes     int64
		elapsed   time.Duration
		solved    bool
		decisions map[ID]Value
	}{
		{
			name: "fig1b/fake-pd/sync",
			opts: SimOptions{
				Topology: Figure1b(), Protocol: ProtocolBFTCUP, F: 1,
				Byzantine: map[ID]Byzantine{4: {Behavior: BehaviorFakePD, ClaimedPD: []ID{1, 2, 3}}},
				Network:   Network{Kind: NetworkSynchronous},
				Seed:      22,
			},
			messages: 3776, bytes: 595025, elapsed: 36775341, solved: true,
			decisions: decided("v1", fig1bCorrect...),
		},
		{
			name:     "fig2c/slow-groups/partial",
			opts:     fig2cSplit(1),
			messages: 77679, bytes: 7526178, elapsed: 30005084732, solved: false,
			decisions: fig2cProposals,
		},
		{
			name: "k4/async",
			opts: SimOptions{
				Topology: Topology{1: {2, 3, 4}, 2: {1, 3, 4}, 3: {1, 2, 4}, 4: {1, 2, 3}},
				Protocol: ProtocolPermissioned, F: 1,
				Network: Network{Kind: NetworkAsynchronousAdversarial},
				Horizon: 30 * time.Second,
				Seed:    3,
			},
			messages: 90, bytes: 6312, elapsed: 30 * time.Second, solved: false,
			decisions: map[ID]Value{},
		},
		{
			// No recipient set: the equivocator's even-ID default split.
			name: "fig1b/equiv-pd/defaults",
			opts: SimOptions{
				Topology: Figure1b(), Protocol: ProtocolBFTCUP, F: 1,
				Byzantine: map[ID]Byzantine{4: {Behavior: BehaviorEquivocatePD, ClaimedPD: []ID{1, 2, 3}, AltPD: []ID{5}}},
				Seed:      5,
			},
			messages: 4563, bytes: 952701, elapsed: 36608701, solved: true,
			decisions: decided("v1", fig1bCorrect...),
		},
		{
			// No ClaimedPD: the forged default claim; a non-default Delta.
			name: "fig1b/fake-pd/forged-default",
			opts: SimOptions{
				Topology: Figure1b(), Protocol: ProtocolBFTCUP, F: 1,
				Byzantine: map[ID]Byzantine{4: {Behavior: BehaviorFakePD}},
				Network:   Network{Kind: NetworkSynchronous, Delta: 3 * time.Millisecond},
				Seed:      6,
			},
			messages: 3776, bytes: 596855, elapsed: 29110325, solved: true,
			decisions: decided("v1", fig1bCorrect...),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Simulate(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Messages != tc.messages || rep.Bytes != tc.bytes || rep.Elapsed != tc.elapsed {
				t.Errorf("msgs/bytes/elapsed = %d/%d/%d, pinned %d/%d/%d",
					rep.Messages, rep.Bytes, rep.Elapsed, tc.messages, tc.bytes, tc.elapsed)
			}
			if !reflect.DeepEqual(rep.Decisions, tc.decisions) {
				t.Errorf("decisions = %v, pinned %v", rep.Decisions, tc.decisions)
			}
			if rep.ConsensusSolved != tc.solved || !rep.Integrity {
				t.Errorf("solved = %v (integrity %v), pinned %v", rep.ConsensusSolved, rep.Integrity, tc.solved)
			}
		})
	}
}

// TestSimulateIsParamsRun pins the facade as a veneer: Simulate on the Fig. 2c
// topology is event for event Params.Run on the fig2c graph def — the same
// trace digest (taken through Params.Trace on both sides) and the same report.
func TestSimulateIsParamsRun(t *testing.T) {
	opts := fig2cSplit(34)
	want, err := scenario.Params{
		Graph:  graph.Def{Kind: graph.DefFigure, Figure: "fig2c"},
		Mode:   core.ModeUnknownF,
		Values: fig2cProposals,
		Net: scenario.NetParams{
			Kind:       scenario.NetPartial,
			GST:        30 * sim.Second,
			FastGroups: []model.IDSet{model.NewIDSet(1, 2, 3), model.NewIDSet(6, 7, 8)},
		},
		Horizon: 90 * sim.Second,
		Seed:    34,
		Trace:   true,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}

	p, err := opts.params()
	if err != nil {
		t.Fatal(err)
	}
	p.Trace = true
	c, err := p.CompileGraph(graph.BuiltGraph{G: opts.Topology.graph()})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := c.Run(p.Seed, p.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if traced.TraceDigest == "" || traced.TraceDigest != want.TraceDigest || traced.TraceEvents != want.TraceEvents {
		t.Fatalf("facade trace %s (%d events), Params.Run trace %s (%d events)",
			traced.TraceDigest, traced.TraceEvents, want.TraceDigest, want.TraceEvents)
	}

	rep, err := Simulate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages != want.Messages || rep.Bytes != want.Bytes || rep.Elapsed != time.Duration(want.Elapsed) ||
		rep.ConsensusSolved != want.Consensus() || rep.FailureMode != want.FailureMode() {
		t.Fatalf("Simulate report %+v differs from Params.Run result %+v", rep, want)
	}
	for id, pr := range want.PerProcess {
		if !rep.Decisions[id].Equal(pr.Value) {
			t.Fatalf("p%d decided %q under Simulate, %q under Params.Run", id, rep.Decisions[id], pr.Value)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := NewSystem(SystemConfig{}); err == nil {
		t.Fatal("empty topology accepted")
	}
	if _, err := NewSystem(SystemConfig{Topology: Figure1b(), Protocol: Protocol(99)}); err == nil {
		t.Fatal("bad protocol accepted")
	}
	if _, err := NewSystem(SystemConfig{Topology: Topology{1: {2}}, Exclude: []ID{1, 2}}); err == nil {
		t.Fatal("fully excluded system accepted")
	}
	// A mistyped ID must not start a run that silently ignores it: a
	// proposal nobody makes, or an exclusion that excludes nothing.
	if _, err := NewSystem(SystemConfig{Topology: Figure1b(), Protocol: ProtocolBFTCUP, F: 1, Proposals: map[ID]Value{99: Value("x")}}); err == nil {
		t.Fatal("system proposal of a process outside the topology accepted")
	}
	if _, err := NewSystem(SystemConfig{Topology: Figure1b(), Protocol: ProtocolBFTCUP, F: 1, Exclude: []ID{99}}); err == nil {
		t.Fatal("system exclusion of a process outside the topology accepted")
	}
	if _, err := Simulate(SimOptions{}); err == nil {
		t.Fatal("empty simulate accepted")
	}
	if _, err := Simulate(SimOptions{Topology: Figure1b(), Protocol: Protocol(99)}); err == nil {
		t.Fatal("bad simulate protocol accepted")
	}
}

func TestProtocolString(t *testing.T) {
	for p, want := range map[Protocol]string{
		ProtocolBFTCUP:       "bft-cup",
		ProtocolBFTCUPFT:     "bft-cupft",
		ProtocolPermissioned: "permissioned",
		Protocol(9):          "protocol(9)",
	} {
		if p.String() != want {
			t.Fatalf("%d → %q, want %q", int(p), p.String(), want)
		}
	}
}
