package pbft

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/sim"
	"github.com/bftcup/bftcup/internal/wire"
)

// memberReactor drives one PBFT instance.
type memberReactor struct {
	inst *Instance
}

func (m *memberReactor) Init(ctx rt.Context) { m.inst.Start(ctx) }
func (m *memberReactor) Receive(ctx rt.Context, from model.ID, payload []byte) {
	m.inst.Handle(ctx, from, payload)
}
func (m *memberReactor) Timer(ctx rt.Context, tag uint64) { m.inst.HandleTimer(ctx, tag) }

type cluster struct {
	engine    *sim.Engine
	instances map[model.ID]*Instance
	decisions map[model.ID]model.Value
	correct   model.IDSet
}

// newCluster builds a committee of n members with the classic threshold
// g = ⌊(n-1)/3⌋ unless overridden, silent Byzantine members crashed.
func newCluster(t *testing.T, n, g, quorum int, silent model.IDSet, netmod sim.NetworkModel, seed int64) *cluster {
	t.Helper()
	ids := make([]model.ID, n)
	committee := model.NewIDSet()
	for i := range ids {
		ids[i] = model.ID(i + 1)
		committee.Add(ids[i])
	}
	signers, reg, err := cryptox.GenerateKeys(seed, ids)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{
		engine:    sim.NewEngine(netmod, seed),
		instances: make(map[model.ID]*Instance),
		decisions: make(map[model.ID]model.Value),
		correct:   committee.Diff(silent),
	}
	cfg := Config{Committee: committee, Quorum: quorum, F: g, BaseTimeout: 100 * sim.Millisecond}
	for _, id := range ids {
		id := id
		inst, err := New(signers[id], reg, cfg, model.Value(fmt.Sprintf("v%d", id)), func(v model.Value) {
			c.decisions[id] = v
		})
		if err != nil {
			t.Fatal(err)
		}
		c.instances[id] = inst
		if err := c.engine.AddProcess(id, &memberReactor{inst: inst}); err != nil {
			t.Fatal(err)
		}
		if silent.Has(id) {
			c.engine.Crash(id)
		}
	}
	return c
}

func (c *cluster) runToDecision(t *testing.T, horizon sim.Time) {
	t.Helper()
	ok := c.engine.RunUntil(func() bool {
		for id := range c.correct {
			if _, decided := c.decisions[id]; !decided {
				return false
			}
		}
		return true
	}, horizon)
	if !ok {
		t.Fatalf("not all correct members decided by %v: %d/%d decided",
			horizon, len(c.decisions), c.correct.Len())
	}
}

func (c *cluster) assertAgreement(t *testing.T) model.Value {
	t.Helper()
	var val model.Value
	first := true
	for id := range c.correct {
		v, ok := c.decisions[id]
		if !ok {
			continue
		}
		if first {
			val, first = v, false
		} else if !val.Equal(v) {
			t.Fatalf("agreement violated: %q vs %q", val, v)
		}
	}
	return val
}

func TestHappyPath(t *testing.T) {
	c := newCluster(t, 4, 1, 3, model.NewIDSet(), sim.Synchronous{Delta: 5 * sim.Millisecond}, 1)
	c.runToDecision(t, sim.Second)
	v := c.assertAgreement(t)
	// View-0 leader is p1 and proposes v1.
	if !v.Equal(model.Value("v1")) {
		t.Fatalf("decided %q, want the view-0 leader's proposal", v)
	}
	for _, inst := range c.instances {
		if inst.view != 0 {
			t.Fatalf("happy path should decide in view 0, got view %d", inst.view)
		}
	}
}

func TestSilentLeaderTriggersViewChange(t *testing.T) {
	// p1 (view-0 leader) is silent: the committee must rotate to p2.
	c := newCluster(t, 4, 1, 3, model.NewIDSet(1), sim.Synchronous{Delta: 5 * sim.Millisecond}, 2)
	c.runToDecision(t, 5*sim.Second)
	v := c.assertAgreement(t)
	if !v.Equal(model.Value("v2")) {
		t.Fatalf("decided %q, want the view-1 leader's proposal v2", v)
	}
}

func TestTwoSilentOfSeven(t *testing.T) {
	// n = 7, f = 2, quorum 5: classic 3f+1 sizing.
	c := newCluster(t, 7, 2, 5, model.NewIDSet(3, 6), sim.Synchronous{Delta: 5 * sim.Millisecond}, 3)
	c.runToDecision(t, 5*sim.Second)
	c.assertAgreement(t)
}

func TestGeneralizedQuorumSmallCommittee(t *testing.T) {
	// The paper's sink committees can have |S| = 2f+1 correct + f Byzantine;
	// here |S| = 4, g = 1, quorum ⌈(4+1+1)/2⌉ = 3 with the Byzantine member
	// silent — exactly the Fig 1b committee shape.
	c := newCluster(t, 4, 1, 3, model.NewIDSet(4), sim.Synchronous{Delta: 5 * sim.Millisecond}, 4)
	c.runToDecision(t, 5*sim.Second)
	c.assertAgreement(t)
}

func TestPartialSynchronyChaoticStart(t *testing.T) {
	// Every link is slow before GST: timers fire, view changes pile up, and
	// the committee must still converge after GST.
	netmod := sim.PartialSync{
		GST:   2 * sim.Second,
		Delta: 5 * sim.Millisecond,
		Slow:  func(a, b model.ID) bool { return true },
	}
	c := newCluster(t, 4, 1, 3, model.NewIDSet(), netmod, 5)
	c.runToDecision(t, 20*sim.Second)
	c.assertAgreement(t)
}

func TestAsyncAdversarialNeverDecides(t *testing.T) {
	c := newCluster(t, 4, 1, 3, model.NewIDSet(), sim.AsyncAdversarial{Delta: sim.Second, Factor: 3}, 6)
	done := c.engine.RunUntil(func() bool { return len(c.decisions) > 0 }, 30*sim.Second)
	if done {
		t.Fatal("adversarial asynchrony should prevent any decision within the horizon")
	}
}

// equivocatingLeader is a Byzantine view-0 leader that proposes value A to
// half the committee and value B to the other half, then stays silent.
type equivocatingLeader struct {
	signer    cryptox.Signer
	committee []model.ID
	slot      uint64
}

func (b *equivocatingLeader) Init(ctx rt.Context) {
	a, bb := model.Value("evil-A"), model.Value("evil-B")
	for idx, id := range b.committee {
		if id == b.signer.ID() {
			continue
		}
		val := a
		if idx%2 == 1 {
			val = bb
		}
		d := DigestOf(val)
		m := &prePrepareMsg{Slot: b.slot, View: 0, Value: val,
			Sig: b.signer.Sign(canon(domPrePrepare, b.slot, 0, d))}
		ctx.Send(id, m.encode())
	}
}
func (b *equivocatingLeader) Receive(rt.Context, model.ID, []byte) {}
func (b *equivocatingLeader) Timer(rt.Context, uint64)             {}

func TestEquivocatingLeaderCannotSplitAgreement(t *testing.T) {
	ids := []model.ID{1, 2, 3, 4}
	committee := model.NewIDSet(ids...)
	signers, reg, err := cryptox.GenerateKeys(9, ids)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(sim.Synchronous{Delta: 5 * sim.Millisecond}, 9)
	decisions := make(map[model.ID]model.Value)
	cfg := Config{Committee: committee, Quorum: 3, F: 1, BaseTimeout: 100 * sim.Millisecond}
	for _, id := range ids[1:] {
		id := id
		inst, err := New(signers[id], reg, cfg, model.Value(fmt.Sprintf("v%d", id)), func(v model.Value) {
			decisions[id] = v
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.AddProcess(id, &memberReactor{inst: inst}); err != nil {
			t.Fatal(err)
		}
	}
	if err := engine.AddProcess(1, &equivocatingLeader{signer: signers[1], committee: ids}); err != nil {
		t.Fatal(err)
	}
	ok := engine.RunUntil(func() bool { return len(decisions) == 3 }, 30*sim.Second)
	if !ok {
		t.Fatalf("correct members did not all decide: %v", decisions)
	}
	var val model.Value
	first := true
	for _, v := range decisions {
		if first {
			val, first = v, false
		} else if !val.Equal(v) {
			t.Fatalf("equivocation split agreement: %v", decisions)
		}
	}
	// Whatever is decided must be one of the proposals in play (Validity):
	// either an evil value endorsed by a quorum or a correct member's value.
	allowed := map[string]bool{"evil-A": true, "evil-B": true, "v2": true, "v3": true, "v4": true}
	if !allowed[string(val)] {
		t.Fatalf("decided value %q was never proposed", val)
	}
}

// Randomized schedules: any ≤ f silent subset, chaotic pre-GST delays,
// several seeds — Agreement, Validity and Termination must always hold.
func TestRandomizedSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(4) // 4..7
		g := (n - 1) / 3
		quorum := (n + g + 2) / 2
		silent := model.NewIDSet()
		for silent.Len() < rng.Intn(g+1) {
			silent.Add(model.ID(1 + rng.Intn(n)))
		}
		netmod := sim.PartialSync{
			GST:   sim.Time(rng.Int63n(int64(sim.Second))),
			Delta: 5 * sim.Millisecond,
			Slow: func(a, b model.ID) bool {
				return (uint64(a)+uint64(b))%2 == 0
			},
		}
		c := newCluster(t, n, g, quorum, silent, netmod, int64(trial))
		c.runToDecision(t, 60*sim.Second)
		v := c.assertAgreement(t)
		// Validity: the decided value is some member's proposal.
		okVal := false
		for i := 1; i <= n; i++ {
			if v.Equal(model.Value(fmt.Sprintf("v%d", i))) {
				okVal = true
			}
		}
		if !okVal {
			t.Fatalf("trial %d: decided %q was never proposed", trial, v)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	committee := model.NewIDSet(1, 2, 3, 4)
	cases := []Config{
		{Committee: model.NewIDSet(), Quorum: 1, BaseTimeout: 1},
		{Committee: committee, Quorum: 2, BaseTimeout: 1},        // ≤ n/2
		{Committee: committee, Quorum: 5, BaseTimeout: 1},        // > n
		{Committee: committee, Quorum: 3, F: -1, BaseTimeout: 1}, // bad F
		{Committee: committee, Quorum: 3, F: 4, BaseTimeout: 1},  // bad F
		{Committee: committee, Quorum: 3, F: 1, BaseTimeout: 0},  // bad timeout
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	good := Config{Committee: committee, Quorum: 3, F: 1, BaseTimeout: sim.Millisecond}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// Non-member signer.
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(signers[9], reg, good, model.Value("x"), nil); err == nil {
		t.Error("non-member accepted")
	}
}

func TestPeekSlot(t *testing.T) {
	m := &voteMsg{Kind: wire.KindPrepare, Slot: 77, View: 1}
	slot, ok := PeekSlot(m.encode())
	if !ok || slot != 77 {
		t.Fatalf("PeekSlot = %d, %v", slot, ok)
	}
	if _, ok := PeekSlot([]byte{wire.KindGetPDs, 0}); ok {
		t.Fatal("PeekSlot accepted a non-PBFT payload")
	}
	if _, ok := PeekSlot(nil); ok {
		t.Fatal("PeekSlot accepted nil")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	signers, _, err := cryptox.GenerateKeys(1, []model.ID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	pp := &prePrepareMsg{Slot: 1, View: 2, Value: model.Value("val"), Sig: signers[1].Sign([]byte("x"))}
	if got, ok := decodePrePrepare(pp.encode()); !ok || got.View != 2 || !got.Value.Equal(pp.Value) {
		t.Fatalf("preprepare round-trip: %+v %v", got, ok)
	}
	cert := &Cert{View: 3, Value: model.Value("v"), Sigs: []sigEntry{{ID: 1, Sig: []byte("s")}}}
	vc := &viewChangeMsg{Slot: 1, NewView: 4, Prepared: cert, Sig: []byte("sig")}
	got, ok := decodeViewChange(vc.encode())
	if !ok || got.NewView != 4 || got.Prepared == nil || got.Prepared.View != 3 {
		t.Fatalf("viewchange round-trip: %+v %v", got, ok)
	}
	vcNil := &viewChangeMsg{Slot: 1, NewView: 4, Sig: []byte("sig")}
	if got, ok := decodeViewChange(vcNil.encode()); !ok || got.Prepared != nil {
		t.Fatalf("nil-cert viewchange round-trip: %+v %v", got, ok)
	}
	nv := &newViewMsg{Slot: 1, View: 4, VCs: []viewChangeMsg{*vc}, VCFrom: []model.ID{2}, Value: model.Value("v"), Sig: []byte("s")}
	if got, ok := decodeNewView(nv.encode()); !ok || len(got.VCs) != 1 || got.VCFrom[0] != 2 {
		t.Fatalf("newview round-trip: %+v %v", got, ok)
	}
	note := &decideNoteMsg{Slot: 1, Cert: Cert{View: 5, Value: model.Value("v"), Sigs: []sigEntry{{ID: 3, Sig: []byte("c")}}}}
	if got, ok := decodeDecideNote(note.encode()); !ok || got.Cert.View != 5 {
		t.Fatalf("decidenote round-trip: %+v %v", got, ok)
	}
	// Garbage rejected.
	if _, ok := decodePrePrepare([]byte{wire.KindPrePrepare, 0xFF}); ok {
		t.Fatal("garbage preprepare accepted")
	}
	if _, ok := decodeVote([]byte{wire.KindPrepare, 1, 2}); ok {
		t.Fatal("garbage vote accepted")
	}
}

func TestCertValidation(t *testing.T) {
	ids := []model.ID{1, 2, 3, 4}
	committee := model.NewIDSet(ids...)
	signers, reg, err := cryptox.GenerateKeys(2, ids)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{Committee: committee, Quorum: 3}
	val := model.Value("v")
	d := DigestOf(val)
	mk := func(members ...model.ID) *Cert {
		c := &Cert{View: 1, Value: val}
		for _, id := range members {
			c.Sigs = append(c.Sigs, sigEntry{ID: id, Sig: signers[id].Sign(canon(domPrepare, 0, 1, d))})
		}
		return c
	}
	if !mk(1, 2, 3).valid(domPrepare, cfg, reg) {
		t.Fatal("valid cert rejected")
	}
	if mk(1, 2, 3).valid(domCommit, cfg, reg) {
		t.Fatal("prepare signatures accepted as a commit cert")
	}
	if mk(1, 2).valid(domPrepare, cfg, reg) {
		t.Fatal("sub-quorum cert accepted")
	}
	if mk(1, 2, 2).valid(domPrepare, cfg, reg) {
		t.Fatal("duplicate-signer cert accepted")
	}
	bad := mk(1, 2, 3)
	bad.Sigs[0].Sig = []byte("junk")
	if bad.valid(domPrepare, cfg, reg) {
		t.Fatal("bad-signature cert accepted")
	}
	outsider := mk(1, 2, 3)
	outsider.Sigs[0].ID = 9
	if outsider.valid(domPrepare, cfg, reg) {
		t.Fatal("non-member cert accepted")
	}
	var nilCert *Cert
	if nilCert.valid(domPrepare, cfg, reg) {
		t.Fatal("nil cert accepted")
	}
}
