package byz

import (
	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/discovery"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/wire"
)

// Silent is a process that never sends anything. Externally indistinguishable
// from a crashed process.
type Silent struct{}

// Init implements rt.Reactor.
func (Silent) Init(rt.Context) {}

// Receive implements rt.Reactor.
func (Silent) Receive(rt.Context, model.ID, []byte) {}

// Timer implements rt.Reactor.
func (Silent) Timer(rt.Context, uint64) {}

// FakePD participates fully (and honestly) in Discovery, except that the PD
// it claims for itself is arbitrary — the worked example of Section III has
// Byzantine process 4 claiming PD {1,2,3}. It never joins the committee
// protocol (silent there).
type FakePD struct {
	mod *discovery.Module
}

// NewFakePD creates the behavior. claimed is the PD the process advertises;
// it need not relate to the knowledge graph's real edges.
func NewFakePD(signer cryptox.Signer, verifier cryptox.Verifier, claimed model.IDSet, cfg discovery.Config) *FakePD {
	rec := discovery.NewSignedPD(signer, claimed)
	return &FakePD{mod: discovery.New(rec, verifier, cfg, nil)}
}

// Init implements rt.Reactor.
func (b *FakePD) Init(ctx rt.Context) { b.mod.Start(ctx) }

// Receive implements rt.Reactor.
func (b *FakePD) Receive(ctx rt.Context, from model.ID, payload []byte) {
	b.mod.Handle(ctx, from, payload)
}

// Timer implements rt.Reactor.
func (b *FakePD) Timer(ctx rt.Context, tag uint64) { b.mod.HandleTimer(ctx, tag) }

// PDEquivocator claims PD A to odd-numbered peers and PD B to even-numbered
// ones. Both records verify (the process signs both); the Sink/Core
// algorithms must tolerate the resulting inconsistent views. It relays every
// verified record it has collected, like a correct process would.
type PDEquivocator struct {
	recA      discovery.SignedPD
	recB      discovery.SignedPD
	collector *discovery.Module // collects and verifies third-party records
	recBuf    []discovery.SignedPD
}

// NewPDEquivocator creates the behavior.
func NewPDEquivocator(signer cryptox.Signer, verifier cryptox.Verifier, pdA, pdB model.IDSet, cfg discovery.Config) *PDEquivocator {
	recA := discovery.NewSignedPD(signer, pdA)
	return &PDEquivocator{
		recA:      recA,
		recB:      discovery.NewSignedPD(signer, pdB),
		collector: discovery.New(recA, verifier, cfg, nil),
	}
}

// Init implements rt.Reactor.
func (b *PDEquivocator) Init(ctx rt.Context) { b.collector.Start(ctx) }

// Receive implements rt.Reactor.
func (b *PDEquivocator) Receive(ctx rt.Context, from model.ID, payload []byte) {
	if len(payload) == 0 {
		return
	}
	if payload[0] == wire.KindGetPDs {
		b.reply(ctx, from)
		return
	}
	b.collector.Handle(ctx, from, payload)
}

// Timer implements rt.Reactor.
func (b *PDEquivocator) Timer(ctx rt.Context, tag uint64) { b.collector.HandleTimer(ctx, tag) }

// reply sends the peer-dependent own record plus every relayed record. The
// third-party records come from the collector's sorted-owner iterator — the
// module already maintains that order incrementally, so the reply does not
// rebuild and re-sort the ID list per request (and cannot alias the module's
// internal record map).
func (b *PDEquivocator) reply(ctx rt.Context, to model.ID) {
	own := b.recA
	if uint64(to)%2 == 0 {
		own = b.recB
	}
	recs := append(b.recBuf[:0], own)
	recs = b.collector.AppendOtherRecords(recs)
	b.recBuf = recs
	ctx.Send(to, discovery.EncodeSetPDs(recs))
}
