package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/pbft"
	"github.com/bftcup/bftcup/internal/sim"
	"github.com/bftcup/bftcup/internal/wire"
)

type net struct {
	engine    *sim.Engine
	nodes     map[model.ID]*Node
	decisions map[model.ID]model.Value
	correct   model.IDSet
}

func buildNet(t *testing.T, g *graph.Digraph, mode Mode, f int, byzSilent model.IDSet, netmod sim.NetworkModel, seed int64) *net {
	t.Helper()
	ids := g.Nodes()
	signers, reg, err := cryptox.GenerateKeys(seed, ids)
	if err != nil {
		t.Fatal(err)
	}
	nw := &net{
		engine:    sim.NewEngine(netmod, seed),
		nodes:     make(map[model.ID]*Node),
		decisions: make(map[model.ID]model.Value),
		correct:   g.NodeSet().Diff(byzSilent),
	}
	for _, id := range ids {
		id := id
		cfg := Config{
			Mode:     mode,
			F:        f,
			PD:       g.OutSet(id).Clone(),
			Proposal: model.Value(fmt.Sprintf("v%d", id)),
		}
		n := NewNode(signers[id], reg, cfg, func(v model.Value) { nw.decisions[id] = v })
		nw.nodes[id] = n
		if err := nw.engine.AddProcess(id, n); err != nil {
			t.Fatal(err)
		}
		if byzSilent.Has(id) {
			nw.engine.Crash(id)
		}
	}
	return nw
}

func (nw *net) allCorrectDecided() bool {
	for id := range nw.correct {
		if _, ok := nw.decisions[id]; !ok {
			return false
		}
	}
	return true
}

func (nw *net) assertAgreement(t *testing.T) model.Value {
	t.Helper()
	var val model.Value
	first := true
	for id := range nw.correct {
		v, ok := nw.decisions[id]
		if !ok {
			continue
		}
		if first {
			val, first = v, false
		} else if !val.Equal(v) {
			t.Fatalf("agreement violated: %q vs %q (%v)", val, v, nw.decisions)
		}
	}
	return val
}

func TestPermissionedMode(t *testing.T) {
	g := graph.CompleteGraph(1, 2, 3, 4, 5, 6, 7)
	nw := buildNet(t, g, ModePermissioned, 2, model.NewIDSet(3, 6), sim.Synchronous{Delta: 5 * sim.Millisecond}, 1)
	if !nw.engine.RunUntil(nw.allCorrectDecided, 10*sim.Second) {
		t.Fatalf("permissioned consensus did not terminate: %v", nw.decisions)
	}
	nw.assertAgreement(t)
}

// The headline BFT-CUP run: Fig 1b with silent Byzantine 4. All correct
// processes must decide the same value and identify committee {1,2,3,4}.
func TestBFTCUPOnFig1b(t *testing.T) {
	fig := graph.Fig1b()
	nw := buildNet(t, fig.G, ModeKnownF, fig.F, fig.Byz, sim.Synchronous{Delta: 5 * sim.Millisecond}, 2)
	if !nw.engine.RunUntil(nw.allCorrectDecided, 30*sim.Second) {
		t.Fatalf("BFT-CUP did not terminate on Fig1b: %d/%d decided", len(nw.decisions), nw.correct.Len())
	}
	nw.assertAgreement(t)
	for id := range nw.correct {
		cand, ok := nw.nodes[id].Committee()
		if !ok {
			t.Fatalf("%v never identified the sink", id)
		}
		if !cand.Members().Equal(fig.ExpectedCommittee) {
			t.Fatalf("%v committee = %v, want %v", id, cand.Members(), fig.ExpectedCommittee)
		}
	}
}

// The headline BFT-CUPFT run: Fig 4a, no process knows f.
func TestBFTCUPFTOnFig4a(t *testing.T) {
	fig := graph.Fig4a()
	nw := buildNet(t, fig.G, ModeUnknownF, 0, fig.Byz, sim.Synchronous{Delta: 5 * sim.Millisecond}, 3)
	if !nw.engine.RunUntil(nw.allCorrectDecided, 30*sim.Second) {
		t.Fatalf("BFT-CUPFT did not terminate on Fig4a: %d/%d decided", len(nw.decisions), nw.correct.Len())
	}
	nw.assertAgreement(t)
	for id := range nw.correct {
		cand, ok := nw.nodes[id].Committee()
		if !ok || !cand.Members().Equal(fig.ExpectedCommittee) {
			t.Fatalf("%v committee = %v, want %v", id, cand.Members(), fig.ExpectedCommittee)
		}
		if cand.G != 1 {
			t.Fatalf("%v found g = %d, want 1", id, cand.G)
		}
	}
}

// Fig 4b at scale: 15 processes, f = 2, Byzantine {4,9} silent.
func TestBFTCUPFTOnFig4b(t *testing.T) {
	fig := graph.Fig4b()
	nw := buildNet(t, fig.G, ModeUnknownF, 0, fig.Byz, sim.Synchronous{Delta: 5 * sim.Millisecond}, 4)
	if !nw.engine.RunUntil(nw.allCorrectDecided, 60*sim.Second) {
		t.Fatalf("BFT-CUPFT did not terminate on Fig4b: %d/%d decided", len(nw.decisions), nw.correct.Len())
	}
	nw.assertAgreement(t)
	for id := range nw.correct {
		cand, ok := nw.nodes[id].Committee()
		if !ok || !cand.Members().Equal(fig.ExpectedCommittee) {
			t.Fatalf("%v committee = %v, want %v", id, cand.Members(), fig.ExpectedCommittee)
		}
	}
}

// The Theorem 7 impossibility, end to end: on Fig 2c (all correct, 1-OSR,
// cross links slow) both the naive rule and the Core algorithm split the
// system into two committees that decide different values.
func TestAgreementViolationOnFig2c(t *testing.T) {
	for _, mode := range []Mode{ModeNaive, ModeUnknownF} {
		fig := graph.Fig2c()
		netmod := sim.PartialSync{
			GST:   20 * sim.Second,
			Delta: 5 * sim.Millisecond,
			Slow:  sim.SlowBetweenGroups(model.NewIDSet(1, 2, 3), model.NewIDSet(6, 7, 8)),
		}
		nw := buildNet(t, fig.G, mode, 0, model.NewIDSet(), netmod, 5)
		bothSidesDecided := func() bool {
			_, a := nw.decisions[1]
			_, b := nw.decisions[8]
			return a && b
		}
		if !nw.engine.RunUntil(bothSidesDecided, 15*sim.Second) {
			t.Fatalf("mode %v: the two islands did not decide before GST: %v", mode, nw.decisions)
		}
		vA, vB := nw.decisions[1], nw.decisions[8]
		if vA.Equal(vB) {
			t.Fatalf("mode %v: expected an Agreement violation, both sides decided %q", mode, vA)
		}
		// The committees are the disjoint sets of Theorem 7's proof.
		cA, _ := nw.nodes[1].Committee()
		cB, _ := nw.nodes[8].Committee()
		if cA.Members().Intersect(cB.Members()).Len() != 0 {
			t.Fatalf("mode %v: committees overlap: %v vs %v", mode, cA.Members(), cB.Members())
		}
	}
}

// ModeKnownF with the WRONG f on Fig 2c also violates agreement: knowing a
// number is not enough, it must be the system's real threshold.
func TestWrongFOnFig2c(t *testing.T) {
	fig := graph.Fig2c()
	netmod := sim.PartialSync{
		GST:   20 * sim.Second,
		Delta: 5 * sim.Millisecond,
		Slow:  sim.SlowBetweenGroups(model.NewIDSet(1, 2, 3), model.NewIDSet(6, 7, 8)),
	}
	nw := buildNet(t, fig.G, ModeKnownF, 1 /* real f is 0 */, model.NewIDSet(), netmod, 6)
	bothSidesDecided := func() bool {
		_, a := nw.decisions[1]
		_, b := nw.decisions[8]
		return a && b
	}
	if !nw.engine.RunUntil(bothSidesDecided, 15*sim.Second) {
		t.Fatalf("islands did not decide: %v", nw.decisions)
	}
	if nw.decisions[1].Equal(nw.decisions[8]) {
		t.Fatal("expected an Agreement violation with the wrong f")
	}
}

// Fig 1a: BFT-CUP requirements fail. The introduction's narrative is
// reproduced literally: with Byzantine 4 silent, each knowledge island
// satisfies isSink on its own and decides independently — "multiple values
// being decided within the system", an Agreement violation.
func TestSplitBrainOnFig1a(t *testing.T) {
	fig := graph.Fig1a()
	nw := buildNet(t, fig.G, ModeKnownF, fig.F, fig.Byz, sim.Synchronous{Delta: 5 * sim.Millisecond}, 7)
	if !nw.engine.RunUntil(nw.allCorrectDecided, 30*sim.Second) {
		t.Fatalf("islands did not decide: %v", nw.decisions)
	}
	if nw.decisions[1].Equal(nw.decisions[5]) {
		t.Fatalf("expected the two islands to decide differently, both got %q", nw.decisions[1])
	}
	// The islands never learned of each other.
	cL, _ := nw.nodes[1].Committee()
	cR, _ := nw.nodes[5].Committee()
	if cL.Members().Intersect(cR.Members()).Len() != 0 {
		t.Fatalf("island committees overlap: %v vs %v", cL.Members(), cR.Members())
	}
}

// Determinism: identical seeds produce identical decisions and metrics.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() (map[model.ID]model.Value, int64) {
		fig := graph.Fig1b()
		nw := buildNetNoT(fig.G, ModeKnownF, fig.F, fig.Byz, sim.Synchronous{Delta: 5 * sim.Millisecond}, 42)
		nw.engine.RunUntil(nw.allCorrectDecided, 30*sim.Second)
		return nw.decisions, nw.engine.Metrics().Messages
	}
	d1, m1 := run()
	d2, m2 := run()
	if m1 != m2 {
		t.Fatalf("message counts differ: %d vs %d", m1, m2)
	}
	for id, v := range d1 {
		if !v.Equal(d2[id]) {
			t.Fatalf("decisions differ for %v: %q vs %q", id, v, d2[id])
		}
	}
}

// buildNetNoT is buildNet without *testing.T for determinism runs.
func buildNetNoT(g *graph.Digraph, mode Mode, f int, byzSilent model.IDSet, netmod sim.NetworkModel, seed int64) *net {
	ids := g.Nodes()
	signers, reg, _ := cryptox.GenerateKeys(seed, ids)
	nw := &net{
		engine:    sim.NewEngine(netmod, seed),
		nodes:     make(map[model.ID]*Node),
		decisions: make(map[model.ID]model.Value),
		correct:   g.NodeSet().Diff(byzSilent),
	}
	for _, id := range ids {
		id := id
		cfg := Config{Mode: mode, F: f, PD: g.OutSet(id).Clone(), Proposal: model.Value(fmt.Sprintf("v%d", id))}
		n := NewNode(signers[id], reg, cfg, func(v model.Value) { nw.decisions[id] = v })
		nw.nodes[id] = n
		_ = nw.engine.AddProcess(id, n)
		if byzSilent.Has(id) {
			nw.engine.Crash(id)
		}
	}
	return nw
}

// Randomized end-to-end property: on random extended k-OSR graphs with a
// random silent Byzantine subset, BFT-CUPFT always satisfies Agreement,
// Validity, Integrity and Termination.
func TestRandomizedBFTCUPFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 10; trial++ {
		spec := graph.GenSpec{
			SinkSize:    5 + rng.Intn(3),
			NonSinkSize: rng.Intn(4),
			ExtraEdgeP:  rng.Float64() * 0.2,
		}
		g, core, fG, err := graph.GenExtendedKOSR(rng, spec)
		if err != nil {
			t.Fatal(err)
		}
		// The model requirements need |byz| ≤ f with ≥ 2f+1 correct core
		// members; byz ≤ ⌊(m-1)/3⌋ satisfies both with f = |byz|.
		_ = fG
		maxByz := (core.Len() - 1) / 3
		byz := model.NewIDSet()
		coreIDs := core.Sorted()
		for len(byz) < rng.Intn(maxByz+1) {
			byz.Add(coreIDs[rng.Intn(len(coreIDs))])
		}
		nw := buildNet(t, g, ModeUnknownF, 0, byz, sim.Synchronous{Delta: 5 * sim.Millisecond}, int64(trial))
		if !nw.engine.RunUntil(nw.allCorrectDecided, 60*sim.Second) {
			t.Fatalf("trial %d: no termination (core %v, byz %v)\n%s", trial, core, byz, g)
		}
		v := nw.assertAgreement(t)
		// Validity: some process proposed v.
		okVal := false
		for _, id := range g.Nodes() {
			if v.Equal(model.Value(fmt.Sprintf("v%d", id))) {
				okVal = true
			}
		}
		if !okVal {
			t.Fatalf("trial %d: decided %q was never proposed", trial, v)
		}
	}
}

// fakeCtx collects sends for unit tests.
type fakeCtx struct {
	id    model.ID
	sends map[model.ID][][]byte
}

func newFakeCtx(id model.ID) *fakeCtx {
	return &fakeCtx{id: id, sends: make(map[model.ID][][]byte)}
}
func (f *fakeCtx) ID() model.ID     { return f.id }
func (f *fakeCtx) Now() sim.Time    { return 0 }
func (f *fakeCtx) Rand() *rand.Rand { return rand.New(rand.NewSource(0)) }
func (f *fakeCtx) Send(to model.ID, payload []byte) {
	f.sends[to] = append(f.sends[to], append([]byte(nil), payload...))
}
func (f *fakeCtx) SetTimer(sim.Time, uint64) {}

// answeringNonMember is process 9 outside the committee S = {1,2,3,4}
// (g=1, answer threshold ⌈5/2⌉ = 3), with a function that delivers a slot-0
// ⟨DECIDEDVAL, val⟩ from a process.
func answeringNonMember(t *testing.T) (*Node, func(from model.ID, val string)) {
	t.Helper()
	ids := []model.ID{1, 2, 3, 4, 9}
	signers, reg, err := cryptox.GenerateKeys(1, ids)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModeUnknownF, PD: model.NewIDSet(1), Proposal: model.Value("mine")}
	n := NewNode(signers[9], reg, cfg, nil)
	ctx := newFakeCtx(9)
	n.ctx = ctx
	// Hand the node a committee it is not a member of: S = {1,2,3,4}, g=1.
	n.adoptCommittee(ctx, mkCand(1, model.NewIDSet(1, 2, 3), model.NewIDSet(4)))

	answer := func(from model.ID, val string) {
		w := wire.NewWriter()
		w.Byte(wire.KindDecided)
		w.Uvarint(0)
		w.BytesField([]byte(val))
		n.Receive(ctx, from, w.Bytes())
	}
	return n, answer
}

// A non-member must not decide on fewer than ⌈(|S|+1)/2⌉ matching answers,
// and Byzantine members answering garbage cannot reach the threshold.
func TestAnswerThreshold(t *testing.T) {
	n, answer := answeringNonMember(t)
	answer(1, "X")
	answer(4, "garbage") // Byzantine member lies
	if _, ok := n.decidedSlots[0]; ok {
		t.Fatal("decided below threshold")
	}
	answer(1, "X") // duplicate sender must not double-count
	if _, ok := n.decidedSlots[0]; ok {
		t.Fatal("duplicate answer double-counted")
	}
	answer(7, "X") // non-member answers must be ignored
	if _, ok := n.decidedSlots[0]; ok {
		t.Fatal("non-member answer counted")
	}
	answer(2, "X")
	answer(3, "X") // third distinct member: threshold ⌈5/2⌉ = 3 reached
	v, ok := n.decidedSlots[0]
	if !ok || !v.Equal(model.Value("X")) {
		t.Fatalf("decided = %q, %v", v, ok)
	}
}

// A Byzantine member answering many distinct values holds one tally entry
// (its first answer is its only vote), and the slot's tally is freed once
// the slot decides.
func TestAnswerTallyBounded(t *testing.T) {
	n, answer := answeringNonMember(t)
	for i := 0; i < 1000; i++ {
		answer(4, fmt.Sprintf("lie%d", i))
	}
	if got := len(n.answers[0]); got > 4 {
		t.Fatalf("one member's distinct answers grew the slot tally to %d entries, want at most |S| = 4", got)
	}
	answer(1, "X")
	answer(2, "X")
	answer(4, "X") // a second answer from member 4 is not a vote
	if _, ok := n.decidedSlots[0]; ok {
		t.Fatal("a member's second answer counted")
	}
	answer(3, "X")
	if v, ok := n.decidedSlots[0]; !ok || !v.Equal(model.Value("X")) {
		t.Fatalf("decided = %q, %v", v, ok)
	}
	if len(n.answers) != 0 {
		t.Fatalf("decided slot still holds a tally: %d slots", len(n.answers))
	}
}

func mkCand(g int, s1, s2 model.IDSet) kosr.Candidate {
	return kosr.Candidate{G: g, S1: s1, S2: s2}
}

// Committee messages that reach a process before it knows the committee are
// buffered, up to maxPending, and handled in arrival order once it adopts
// one. Process 4 of S = {1,2,3,4} (view-0 leader 1) hears two conflicting
// proposals from the leader before it adopts S: the first one wins, so it
// prepares that one. Behind a flood of maxPending messages the proposal is
// dropped, and the node prepares nothing.
func TestEarlyCommitteeMessagesBuffered(t *testing.T) {
	ids := []model.ID{1, 2, 3, 4}
	signers, reg, err := cryptox.GenerateKeys(1, ids)
	if err != nil {
		t.Fatal(err)
	}
	cand := mkCand(1, model.NewIDSet(1, 2, 3), model.NewIDSet(4))
	cfg := pbft.Config{Committee: cand.Members(), Quorum: cand.QuorumSize(), F: cand.G, BaseTimeout: DefaultPBFTTimeout}
	// sends starts a slot-0 instance of process id, feeds it the payloads
	// from the leader, and returns what it sent to process to.
	sends := func(id model.ID, proposal string, fromLeader [][]byte, to model.ID) [][]byte {
		inst, err := pbft.New(signers[id], reg, cfg, model.Value(proposal), nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx := newFakeCtx(id)
		inst.Start(ctx)
		for _, p := range fromLeader {
			inst.Handle(ctx, 1, p)
		}
		return ctx.sends[to]
	}
	// The leader's proposal and its own prepare, as process 4 receives them.
	proposeA, proposeB := sends(1, "A", nil, 4), sends(1, "B", nil, 4)
	prepareA := sends(4, "", proposeA[:1], 1)[0]
	prepareB := sends(4, "", proposeB[:1], 1)[0]

	run := func(flood int, early ...[]byte) (a, b bool) {
		n := NewNode(signers[4], reg, Config{Mode: ModeUnknownF, PD: model.NewIDSet(1)}, nil)
		ctx := newFakeCtx(4)
		n.ctx = ctx
		for i := 0; i < flood; i++ {
			n.Receive(ctx, 1, proposeA[1])
		}
		for _, p := range early {
			n.Receive(ctx, 1, p)
		}
		n.adoptCommittee(ctx, cand)
		for _, p := range ctx.sends[1] {
			a = a || bytes.Equal(p, prepareA)
			b = b || bytes.Equal(p, prepareB)
		}
		return a, b
	}
	if a, b := run(0, proposeA[0], proposeB[0]); !a || b {
		t.Errorf("A then B: prepared A %v, B %v; want A only", a, b)
	}
	if a, b := run(0, proposeB[0], proposeA[0]); a || !b {
		t.Errorf("B then A: prepared A %v, B %v; want B only", a, b)
	}
	if a, _ := run(maxPending-1, proposeA[0]); !a {
		t.Errorf("the proposal behind %d buffered messages was dropped", maxPending-1)
	}
	if a, _ := run(maxPending, proposeA[0]); a {
		t.Errorf("the proposal behind %d buffered messages was kept: the buffer outgrew its cap", maxPending)
	}
}

// GETDECIDEDVAL before the decision is queued and answered on decide
// (Algorithm 3 lines 9-10).
func TestDecidedValQueue(t *testing.T) {
	ids := []model.ID{1, 2, 3}
	signers, reg, err := cryptox.GenerateKeys(1, ids)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModePermissioned, F: 0, PD: model.NewIDSet(2, 3), Proposal: model.Value("val")}
	n := NewNode(signers[1], reg, cfg, nil)
	ctx := newFakeCtx(1)
	n.Init(ctx)
	// An asker polls before any decision exists.
	n.Receive(ctx, 42, []byte{wire.KindGetDecided, 0})
	if len(ctx.sends[42]) != 0 {
		t.Fatal("answered before deciding")
	}
	n.decideLocal(ctx, 0, model.Value("done"))
	found := false
	for _, msg := range ctx.sends[42] {
		if msg[0] == wire.KindDecided {
			found = true
		}
	}
	if !found {
		t.Fatal("queued asker was not answered on decide")
	}
	// Late askers get an immediate answer.
	n.Receive(ctx, 43, []byte{wire.KindGetDecided, 0})
	if len(ctx.sends[43]) == 0 || ctx.sends[43][0][0] != wire.KindDecided {
		t.Fatal("late asker not answered immediately")
	}
	// Integrity: second decide is a no-op.
	n.decideLocal(ctx, 0, model.Value("other"))
	if v := n.decidedSlots[0]; !v.Equal(model.Value("done")) {
		t.Fatal("decision overwritten")
	}
}

// Chained mode: five consecutive slots over the Fig 4a core; every correct
// process (member or polling non-member) gets the same chain.
func TestChainedSlotsOnFig4a(t *testing.T) {
	fig := graph.Fig4a()
	ids := fig.G.Nodes()
	signers, reg, err := cryptox.GenerateKeys(8, ids)
	if err != nil {
		t.Fatal(err)
	}
	const slots = 5
	engine := sim.NewEngine(sim.Synchronous{Delta: 5 * sim.Millisecond}, 8)
	chains := make(map[model.ID]map[uint64]model.Value)
	correct := fig.G.NodeSet().Diff(fig.Byz)
	for _, id := range ids {
		id := id
		chains[id] = make(map[uint64]model.Value, slots)
		cfg := Config{
			Mode:  ModeUnknownF,
			PD:    fig.G.OutSet(id).Clone(),
			Slots: slots,
			ProposalFor: func(slot uint64) model.Value {
				return model.Value(fmt.Sprintf("block-%d-from-%d", slot, id))
			},
			OnSlotDecided: func(slot uint64, v model.Value) {
				chains[id][slot] = v
			},
		}
		if err := engine.AddProcess(id, NewNode(signers[id], reg, cfg, nil)); err != nil {
			t.Fatal(err)
		}
		if fig.Byz.Has(id) {
			engine.Crash(id)
		}
	}
	ok := engine.RunUntil(func() bool {
		for id := range correct {
			if len(chains[id]) != slots {
				return false
			}
		}
		return true
	}, 60*sim.Second)
	if !ok {
		t.Fatal("chained consensus did not complete all slots")
	}
	ref := chains[1]
	for id := range correct {
		for s := uint64(0); s < slots; s++ {
			if !chains[id][s].Equal(ref[s]) {
				t.Fatalf("chain divergence at %v slot %d: %q vs %q", id, s, chains[id][s], ref[s])
			}
			if len(chains[id][s]) == 0 {
				t.Fatalf("empty block at %v slot %d", id, s)
			}
		}
	}
}

// TestSettled pins what a settled node is: one with no committee and no
// buffered committee message, or one that has decided every slot. A member
// still running consensus is not settled, nor is a node without a committee
// holding an early committee message.
func TestSettled(t *testing.T) {
	fig := graph.Fig1b()
	nw := buildNet(t, fig.G, ModeKnownF, fig.F, fig.Byz, sim.Synchronous{Delta: 5 * sim.Millisecond}, 2)
	running := 0
	nw.engine.RunUntil(func() bool {
		for id := range nw.correct {
			_, adopted := nw.nodes[id].Committee()
			if _, decided := nw.decisions[id]; adopted && !decided {
				running++
				if nw.nodes[id].Settled() {
					t.Fatalf("%v runs consensus on its committee, yet reads settled", id)
				}
			}
		}
		return nw.allCorrectDecided()
	}, 30*sim.Second)
	if running == 0 {
		t.Fatal("no node was seen running consensus")
	}
	for id := range nw.correct {
		if !nw.nodes[id].Settled() {
			t.Fatalf("%v has decided, yet reads unsettled", id)
		}
	}

	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	cand := mkCand(1, model.NewIDSet(1, 2, 3), model.NewIDSet(4))
	leader, err := pbft.New(signers[1], reg, pbft.Config{Committee: cand.Members(), Quorum: cand.QuorumSize(), F: cand.G, BaseTimeout: DefaultPBFTTimeout}, model.Value("A"), nil)
	if err != nil {
		t.Fatal(err)
	}
	sent := newFakeCtx(1)
	leader.Start(sent)
	n := NewNode(signers[4], reg, Config{Mode: ModeUnknownF, PD: model.NewIDSet(1)}, nil)
	if !n.Settled() {
		t.Fatal("a node without a committee or a buffered message reads unsettled")
	}
	n.Receive(newFakeCtx(4), 1, sent.sends[4][0])
	if n.Settled() {
		t.Fatal("a node buffering an early committee message reads settled")
	}
}
