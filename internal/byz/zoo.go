package byz

import (
	"sort"

	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/discovery"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/wire"
)

// This file is the adversary zoo beyond the three original behaviors: timing
// attacks (Delayer), selective silence (SelectiveSilent) and discovery
// collusion (Collusion/Colluder — forging and withholding third-party PD
// records). Every behavior is a rt.Reactor whose configuration is plain
// data (sets and integers, no callbacks), so scenario.ByzSpec can carry a
// canonical serialized identity for each through CompileKey.

// delayTagBase marks a Delayer's pending-reply timers; the low bits carry the
// requester's ID. Disjoint from discovery.TimerTag (1<<40) by construction.
const delayTagBase uint64 = 1 << 41

// Delayer participates in discovery with honest content but Byzantine
// timing: it collects and relays records like a correct process, yet holds
// every GETPDS reply for a fixed number of discovery periods before sending
// it. The reply it eventually sends is its S_PD at fire time, so held
// replies are stale only in their timing, not fabricated. It never joins the
// committee protocol.
type Delayer struct {
	mod   *discovery.Module
	delay rt.Time
}

// NewDelayer creates the behavior. pd is the PD the process advertises
// (usually its real one — the attack is the delay); holdRounds is how many
// discovery periods each reply is held (floored at 1).
func NewDelayer(signer cryptox.Signer, verifier cryptox.Verifier, pd model.IDSet, cfg discovery.Config, holdRounds int) *Delayer {
	if cfg.Period <= 0 {
		cfg.Period = discovery.DefaultConfig().Period
	}
	if holdRounds < 1 {
		holdRounds = 1
	}
	rec := discovery.NewSignedPD(signer, pd)
	return &Delayer{
		mod:   discovery.New(rec, verifier, cfg, nil),
		delay: rt.Time(holdRounds) * cfg.Period,
	}
}

// Init implements rt.Reactor.
func (b *Delayer) Init(ctx rt.Context) { b.mod.Start(ctx) }

// Receive implements rt.Reactor.
func (b *Delayer) Receive(ctx rt.Context, from model.ID, payload []byte) {
	if len(payload) > 0 && payload[0] == wire.KindGetPDs {
		ctx.SetTimer(b.delay, delayTagBase|uint64(from))
		return
	}
	b.mod.Handle(ctx, from, payload)
}

// Timer implements rt.Reactor: a delay tag releases the held reply (the
// module's current S_PD), everything else is the module's own gossip timer.
func (b *Delayer) Timer(ctx rt.Context, tag uint64) {
	if tag&delayTagBase != 0 {
		b.mod.SendRecords(ctx, model.ID(tag&^delayTagBase))
		return
	}
	b.mod.HandleTimer(ctx, tag)
}

// filteredCtx wraps a rt.Context, dropping every Send whose recipient is
// outside the allow set. Running an honest module through it turns the module
// selectively silent without touching its state machine.
type filteredCtx struct {
	rt.Context
	allow model.IDSet
}

func (f filteredCtx) Send(to model.ID, payload []byte) {
	if f.allow.Has(to) {
		f.Context.Send(to, payload)
	}
}

// SelectiveSilent runs honest discovery toward a chosen peer subset and is
// completely silent toward everyone else — it still receives and verifies
// records from all peers (listening is unobservable), but neither requests
// from nor answers the excluded ones. It never joins the committee protocol.
type SelectiveSilent struct {
	mod    *discovery.Module
	answer model.IDSet
}

// NewSelectiveSilent creates the behavior. pd is the advertised PD; answerTo
// is the peer subset the process communicates with (nil behaves like Silent).
func NewSelectiveSilent(signer cryptox.Signer, verifier cryptox.Verifier, pd model.IDSet, answerTo model.IDSet, cfg discovery.Config) *SelectiveSilent {
	if answerTo == nil {
		answerTo = model.NewIDSet()
	}
	rec := discovery.NewSignedPD(signer, pd)
	return &SelectiveSilent{
		mod:    discovery.New(rec, verifier, cfg, nil),
		answer: answerTo,
	}
}

// Init implements rt.Reactor.
func (b *SelectiveSilent) Init(ctx rt.Context) {
	b.mod.Start(filteredCtx{Context: ctx, allow: b.answer})
}

// Receive implements rt.Reactor.
func (b *SelectiveSilent) Receive(ctx rt.Context, from model.ID, payload []byte) {
	b.mod.Handle(filteredCtx{Context: ctx, allow: b.answer}, from, payload)
}

// Timer implements rt.Reactor.
func (b *SelectiveSilent) Timer(ctx rt.Context, tag uint64) {
	b.mod.HandleTimer(filteredCtx{Context: ctx, allow: b.answer}, tag)
}

// Collusion is the shared state of a colluding group: every member's forged
// own record (any member advertises records for all fellow members — the
// group shares key material), the pool of third-party records every member's
// collection feeds, and the record owners the group censors from its replies.
// The pool is a discovery.Module seated at the first member to join, so the
// group decodes and verifies SETPDS exactly as correct processes do. One
// Collusion is built per simulation run (it is mutable run state; a compiled
// scenario must not hold one) and is for one goroutine — the simulator
// delivers events sequentially.
//
// Determinism: the pool hands its records out in ascending owner order, and
// the reply payload is cached and rebuilt only when the pool grows, so
// replies are byte-deterministic regardless of map iteration order.
type Collusion struct {
	verifier   cryptox.Verifier
	cfg        discovery.Config
	group      []discovery.SignedPD // one forged record per member, ascending owner
	omit       model.IDSet          // members and withheld owners: never relayed from the pool
	pool       *discovery.Module    // nil until the first member joins
	encoded    []byte               // cached SETPDS reply
	recipients []model.ID           // cached sorted gossip targets
}

// NewCollusion creates an empty colluding group.
func NewCollusion(verifier cryptox.Verifier, cfg discovery.Config) *Collusion {
	if cfg.Period <= 0 {
		cfg.Period = discovery.DefaultConfig().Period
	}
	return &Collusion{verifier: verifier, cfg: cfg, omit: model.NewIDSet()}
}

// AddMember registers one colluder and returns its reactor. claimed is the
// (forged) PD the group advertises for this member; withhold lists
// third-party record owners this member wants censored (the group pools the
// union). All members must be added before the simulation starts — the group
// record list is part of every member's replies.
func (c *Collusion) AddMember(signer cryptox.Signer, claimed model.IDSet, withhold model.IDSet) *Colluder {
	rec := discovery.NewSignedPD(signer, claimed)
	c.group = append(c.group, rec)
	sort.Slice(c.group, func(i, j int) bool { return c.group[i].Owner < c.group[j].Owner })
	c.omit.Add(rec.Owner)
	c.omit.AddAll(withhold)
	if c.pool == nil {
		c.pool = discovery.New(rec, c.verifier, c.cfg, c.dropCaches)
	}
	c.dropCaches()
	return &Colluder{shared: c, self: rec.Owner}
}

// dropCaches forgets the reply and the gossip targets; the pool calls it
// whenever it grows.
func (c *Collusion) dropCaches() {
	c.encoded = nil
	c.recipients = nil
}

// payload renders the group's reply: every member's forged record first, then
// the pooled records in ascending owner order, minus the members' (the
// group's forged ones win) and the withheld owners'. All members send the
// identical payload — sharing collected records is the point of the group.
func (c *Collusion) payload() []byte {
	if c.encoded == nil {
		recs := c.pool.AppendOtherRecords(append([]discovery.SignedPD(nil), c.group...))
		kept := recs[:len(c.group)]
		for _, rec := range recs[len(c.group):] {
			if !c.omit.Has(rec.Owner) {
				kept = append(kept, rec)
			}
		}
		c.encoded = discovery.EncodeSetPDs(kept)
	}
	return c.encoded
}

// targets returns the sorted gossip recipients: everyone the pool knows of,
// plus the members and the PDs the group claims for them.
func (c *Collusion) targets() []model.ID {
	if c.recipients == nil {
		known := c.pool.View().Known.Clone()
		for _, rec := range c.group {
			known.Add(rec.Owner)
			known.AddAll(rec.PD)
		}
		c.recipients = known.Sorted()
	}
	return c.recipients
}

// Colluder is one member of a Collusion: it gossips GETPDS rounds like a
// correct process, feeds everything it collects into the shared pool, and
// answers requests with the group's forged-plus-censored record set. It never
// joins the committee protocol.
type Colluder struct {
	shared *Collusion
	self   model.ID
}

// Init implements rt.Reactor.
func (b *Colluder) Init(ctx rt.Context) { b.round(ctx) }

// Receive implements rt.Reactor: a GETPDS gets the group's reply, a SETPDS
// goes into the pool.
func (b *Colluder) Receive(ctx rt.Context, from model.ID, payload []byte) {
	if len(payload) > 0 && payload[0] == wire.KindGetPDs {
		ctx.Send(from, b.shared.payload())
		return
	}
	b.shared.pool.Handle(ctx, from, payload)
}

// Timer implements rt.Reactor.
func (b *Colluder) Timer(ctx rt.Context, tag uint64) {
	if tag == discovery.TimerTag {
		b.round(ctx)
	}
}

// round requests records from every known process, like Algorithm 1's
// periodic task — colluders pull knowledge as eagerly as correct processes.
func (b *Colluder) round(ctx rt.Context) {
	for _, id := range b.shared.targets() {
		if id != b.self {
			ctx.Send(id, getPDsRequest)
		}
	}
	ctx.SetTimer(b.shared.cfg.Period, discovery.TimerTag)
}

// getPDsRequest is the constant one-byte GETPDS request, never written to.
var getPDsRequest = []byte{wire.KindGetPDs}
