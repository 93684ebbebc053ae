package byz

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/discovery"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/sim"
	"github.com/bftcup/bftcup/internal/wire"
)

// TestDelayerHoldsReplies: with a hold of three 20ms periods, the observer
// must not have the delayer's record shortly after its first request, but
// must have it once the held reply fires — content honest, timing Byzantine.
func TestDelayerHoldsReplies(t *testing.T) {
	engine := sim.NewEngine(sim.Synchronous{Delta: sim.Millisecond}, 1)
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	obs := &collector{mod: discovery.New(discovery.NewSignedPD(signers[1], model.NewIDSet(2)), reg, discovery.DefaultConfig(), nil)}
	delayer := NewDelayer(signers[2], reg, model.NewIDSet(1), discovery.DefaultConfig(), 3)
	if err := engine.AddProcess(1, obs); err != nil {
		t.Fatal(err)
	}
	if err := engine.AddProcess(2, delayer); err != nil {
		t.Fatal(err)
	}
	// First GETPDS arrives at ~1ms; the reply is held 60ms. At 30ms the
	// observer must still be blind.
	engine.Run(30 * sim.Millisecond)
	if _, leaked := obs.mod.View().PD[2]; leaked {
		t.Fatal("delayer answered before the hold elapsed")
	}
	engine.Run(sim.Second)
	got, ok := obs.mod.View().PD[2]
	if !ok || !got.Equal(model.NewIDSet(1)) {
		t.Fatalf("observer sees PD(2) = %v (ok=%v), want {1} after the hold", got, ok)
	}
}

// TestSelectiveSilentAnswersSubset: the behavior communicates with its allow
// set and is silent toward everyone else, even when the excluded peer
// requests records directly.
func TestSelectiveSilentAnswersSubset(t *testing.T) {
	engine := sim.NewEngine(sim.Synchronous{Delta: sim.Millisecond}, 1)
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	obs1 := &collector{mod: discovery.New(discovery.NewSignedPD(signers[1], model.NewIDSet(2)), reg, discovery.DefaultConfig(), nil)}
	obs3 := &collector{mod: discovery.New(discovery.NewSignedPD(signers[3], model.NewIDSet(2)), reg, discovery.DefaultConfig(), nil)}
	sel := NewSelectiveSilent(signers[2], reg, model.NewIDSet(1, 3), model.NewIDSet(1), discovery.DefaultConfig())
	for id, r := range map[model.ID]rt.Reactor{1: obs1, 2: sel, 3: obs3} {
		if err := engine.AddProcess(id, r); err != nil {
			t.Fatal(err)
		}
	}
	engine.Run(sim.Second)
	if got, ok := obs1.mod.View().PD[2]; !ok || !got.Equal(model.NewIDSet(1, 3)) {
		t.Fatalf("allowed peer sees PD(2) = %v (ok=%v), want {1,3}", got, ok)
	}
	if _, leaked := obs3.mod.View().PD[2]; leaked {
		t.Fatal("selective-silent process answered an excluded peer")
	}
}

// decodeSetPDs unpacks a SETPDS payload into its owner sequence.
func decodeSetPDs(t *testing.T, payload []byte) []model.ID {
	t.Helper()
	if len(payload) == 0 || payload[0] != wire.KindSetPDs {
		t.Fatalf("not a SETPDS payload: % x", payload)
	}
	rd := wire.NewReader(payload[1:])
	n := rd.Uvarint()
	owners := make([]model.ID, 0, n)
	for i := uint64(0); i < n; i++ {
		owners = append(owners, rd.ID())
		rd.IDSet()
		rd.BytesField()
		if rd.Err() != nil {
			t.Fatalf("truncated SETPDS after %d records: %v", i, rd.Err())
		}
	}
	return owners
}

// TestCollusionPoolsAndCensors drives the shared group state directly: pooled
// third-party records appear in every member's identical reply, withheld
// owners are censored, records claiming a member's identity are ignored
// (the group's forged self-records win), and a record whose signature fails
// is never relayed.
func TestCollusionPoolsAndCensors(t *testing.T) {
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	group := NewCollusion(reg, discovery.DefaultConfig())
	// Member 4 joins first: the group record list must still come out in
	// ascending owner order.
	c4 := group.AddMember(signers[4], model.NewIDSet(1), nil)
	c2 := group.AddMember(signers[2], model.NewIDSet(1), model.NewIDSet(3))

	// The outside world: records from 1 and 3, a genuine record from member
	// 2 that must NOT displace the group's forged one, and a record of 5
	// whose signature covers another PD than the one it carries.
	genuine2 := discovery.NewSignedPD(signers[2], model.NewIDSet(3, 4))
	forged5 := discovery.NewSignedPD(signers[5], model.NewIDSet(1))
	forged5.PD = model.NewIDSet(1, 3)
	incoming := discovery.EncodeSetPDs([]discovery.SignedPD{
		discovery.NewSignedPD(signers[1], model.NewIDSet(3)),
		discovery.NewSignedPD(signers[3], model.NewIDSet(1)),
		genuine2,
		forged5,
	})
	// Either member's collection feeds the one pool.
	c4.Receive(captureCtx{}, 1, incoming)
	c2.Receive(captureCtx{}, 3, incoming)

	reply := group.payload()
	owners := decodeSetPDs(t, reply)
	want := []model.ID{2, 4, 1} // group ascending, then pool minus withheld
	if len(owners) != len(want) {
		t.Fatalf("reply owners %v, want %v", owners, want)
	}
	for i := range want {
		if owners[i] != want[i] {
			t.Fatalf("reply owners %v, want %v", owners, want)
		}
	}

	// Both members answer a GETPDS with the identical shared payload.
	var sent2, sent4 []byte
	ctx2 := captureCtx{onSend: func(to model.ID, p []byte) { sent2 = append([]byte(nil), p...) }}
	ctx4 := captureCtx{onSend: func(to model.ID, p []byte) { sent4 = append([]byte(nil), p...) }}
	c2.Receive(ctx2, 9, []byte{wire.KindGetPDs})
	c4.Receive(ctx4, 9, []byte{wire.KindGetPDs})
	if string(sent2) != string(sent4) {
		t.Fatal("colluding members sent different replies")
	}
	if string(sent2) != string(reply) {
		t.Fatal("reactor reply differs from the shared payload")
	}

	// The forged record for member 2 survived the genuine one.
	rd := wire.NewReader(sent2[1:])
	rd.Uvarint()
	if owner, pd := rd.ID(), rd.IDSet(); owner != 2 || !pd.Equal(model.NewIDSet(1)) {
		t.Fatalf("member record is %v:%v, want the forged 2:{1}", owner, pd)
	}
}

// TestCollusionGossipsToGroupKnowledge: a member's GETPDS round reaches, in
// ascending order, everyone the pool knows of plus every fellow member and
// every PD the group claims, but not the member itself.
func TestCollusionGossipsToGroupKnowledge(t *testing.T) {
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	group := NewCollusion(reg, discovery.DefaultConfig())
	c4 := group.AddMember(signers[4], model.NewIDSet(1), nil)
	group.AddMember(signers[2], model.NewIDSet(3), nil)
	var got []model.ID
	c4.Init(captureCtx{onSend: func(to model.ID, p []byte) {
		if len(p) != 1 || p[0] != wire.KindGetPDs {
			t.Fatalf("round sent % x to %v, want GETPDS", p, to)
		}
		got = append(got, to)
	}})
	if want := []model.ID{1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("round requested from %v, want %v", got, want)
	}
}

// captureCtx is a rt.Context stub recording Sends.
type captureCtx struct {
	onSend func(to model.ID, payload []byte)
}

func (c captureCtx) ID() model.ID  { return 0 }
func (c captureCtx) Now() sim.Time { return 0 }
func (c captureCtx) Send(to model.ID, payload []byte) {
	if c.onSend != nil {
		c.onSend(to, payload)
	}
}
func (c captureCtx) SetTimer(d sim.Time, tag uint64) {}
func (c captureCtx) Rand() *rand.Rand                { return nil }
