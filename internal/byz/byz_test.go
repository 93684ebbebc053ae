package byz

import (
	"bytes"
	"testing"

	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/discovery"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/sim"
	"github.com/bftcup/bftcup/internal/wire"
)

// collector is a correct discovery participant used to observe what the
// Byzantine behaviors advertise.
type collector struct {
	mod *discovery.Module
}

func (c *collector) Init(ctx rt.Context) { c.mod.Start(ctx) }
func (c *collector) Receive(ctx rt.Context, from model.ID, payload []byte) {
	c.mod.Handle(ctx, from, payload)
}
func (c *collector) Timer(ctx rt.Context, tag uint64) { c.mod.HandleTimer(ctx, tag) }

func TestSilentSendsNothing(t *testing.T) {
	engine := sim.NewEngine(sim.Synchronous{Delta: sim.Millisecond}, 1)
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	obs := &collector{mod: discovery.New(discovery.NewSignedPD(signers[1], model.NewIDSet(2)), reg, discovery.DefaultConfig(), nil)}
	if err := engine.AddProcess(1, obs); err != nil {
		t.Fatal(err)
	}
	if err := engine.AddProcess(2, Silent{}); err != nil {
		t.Fatal(err)
	}
	engine.Run(sim.Second)
	if _, got := obs.mod.View().PD[2]; got {
		t.Fatal("silent process leaked a PD")
	}
	// Only the observer's GETPDS traffic exists.
	if engine.Metrics().ByKind()[2] != 0 { // KindSetPDs
		t.Fatal("silent process sent SETPDS")
	}
}

func TestFakePDAdvertisesClaim(t *testing.T) {
	engine := sim.NewEngine(sim.Synchronous{Delta: sim.Millisecond}, 1)
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	obs := &collector{mod: discovery.New(discovery.NewSignedPD(signers[1], model.NewIDSet(2)), reg, discovery.DefaultConfig(), nil)}
	claimed := model.NewIDSet(1, 3) // a lie: 2's real PD is irrelevant
	fake := NewFakePD(signers[2], reg, claimed, discovery.DefaultConfig())
	if err := engine.AddProcess(1, obs); err != nil {
		t.Fatal(err)
	}
	if err := engine.AddProcess(2, fake); err != nil {
		t.Fatal(err)
	}
	engine.Run(sim.Second)
	got, ok := obs.mod.View().PD[2]
	if !ok || !got.Equal(claimed) {
		t.Fatalf("observer sees PD(2) = %v, want %v", got, claimed)
	}
}

// The FakePD behavior also relays third-party records like a correct process.
func TestFakePDRelays(t *testing.T) {
	engine := sim.NewEngine(sim.Synchronous{Delta: sim.Millisecond}, 1)
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// 3 only knows the Byzantine 2; 1's record must still reach 3 through 2.
	obs3 := &collector{mod: discovery.New(discovery.NewSignedPD(signers[3], model.NewIDSet(2)), reg, discovery.DefaultConfig(), nil)}
	obs1 := &collector{mod: discovery.New(discovery.NewSignedPD(signers[1], model.NewIDSet(2)), reg, discovery.DefaultConfig(), nil)}
	fake := NewFakePD(signers[2], reg, model.NewIDSet(1, 3), discovery.DefaultConfig())
	for id, r := range map[model.ID]rt.Reactor{1: obs1, 2: fake, 3: obs3} {
		if err := engine.AddProcess(id, r); err != nil {
			t.Fatal(err)
		}
	}
	engine.Run(2 * sim.Second)
	if _, ok := obs3.mod.View().PD[1]; !ok {
		t.Fatal("fake-PD process did not relay 1's record to 3")
	}
}

func TestPDEquivocatorSplitsViews(t *testing.T) {
	engine := sim.NewEngine(sim.Synchronous{Delta: sim.Millisecond}, 1)
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	pdA := model.NewIDSet(1)
	pdB := model.NewIDSet(1, 3)
	// Odd observers get A, even ones B: both observers here are odd.
	equiv := NewPDEquivocator(signers[2], reg, pdA, pdB, discovery.DefaultConfig())
	obs1 := &collector{mod: discovery.New(discovery.NewSignedPD(signers[1], model.NewIDSet(2)), reg, discovery.DefaultConfig(), nil)}
	obs3 := &collector{mod: discovery.New(discovery.NewSignedPD(signers[3], model.NewIDSet(2)), reg, discovery.DefaultConfig(), nil)}
	for id, r := range map[model.ID]rt.Reactor{1: obs1, 2: equiv, 3: obs3} {
		if err := engine.AddProcess(id, r); err != nil {
			t.Fatal(err)
		}
	}
	engine.Run(sim.Second)
	got1, ok1 := obs1.mod.View().PD[2]
	got3, ok3 := obs3.mod.View().PD[2]
	if !ok1 || !ok3 {
		t.Fatalf("observers missing PD(2): %v %v", ok1, ok3)
	}
	if !got1.Equal(pdA) {
		t.Fatalf("p1 sees %v, want record A %v", got1, pdA)
	}
	if !got3.Equal(pdA) {
		t.Fatalf("p3 sees %v, want record A %v", got3, pdA)
	}
	// Both records verify — equivocation is signature-legal.
}

// TestPDEquivocatorDefaultChooser pins the equivocator's one rule: a GETPDS
// from an even ID is answered with record B, one from an odd ID with A.
func TestPDEquivocatorDefaultChooser(t *testing.T) {
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{2})
	if err != nil {
		t.Fatal(err)
	}
	pdA, pdB := model.NewIDSet(), model.NewIDSet(1)
	e := NewPDEquivocator(signers[2], reg, pdA, pdB, discovery.DefaultConfig())
	for to, pd := range map[model.ID]model.IDSet{2: pdB, 3: pdA, 4: pdB} {
		var got []byte
		e.Receive(captureCtx{onSend: func(_ model.ID, p []byte) { got = p }}, to, []byte{wire.KindGetPDs})
		want := discovery.EncodeSetPDs([]discovery.SignedPD{discovery.NewSignedPD(signers[2], pd)})
		if !bytes.Equal(got, want) {
			t.Fatalf("reply to p%d is not the record naming %v: even IDs get record B, odd ones A", to, pd)
		}
	}
}
