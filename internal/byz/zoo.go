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
// group shares key material), the pooled third-party records every member's
// collection feeds, and the set of record owners the group censors from its
// replies. One Collusion is built per simulation run (it is mutable run
// state; a compiled scenario must not hold one) and is for one goroutine —
// the simulator delivers events sequentially.
//
// Determinism: the pool is keyed by owner but always iterated through the
// sorted owner list, and the reply payload is cached and rebuilt only when
// the pool changes, so replies are byte-deterministic regardless of map
// iteration order.
type Collusion struct {
	verifier   cryptox.Verifier
	period     rt.Time
	members    model.IDSet
	group      []discovery.SignedPD // one forged record per member, ascending owner
	withhold   model.IDSet
	pool       map[model.ID]discovery.SignedPD // verified third-party records
	owners     []model.ID                      // sorted pool keys
	known      model.IDSet
	encoded    []byte     // cached SETPDS reply; nil after pool growth
	recipients []model.ID // cached sorted gossip targets; nil after known growth
}

// NewCollusion creates an empty colluding group.
func NewCollusion(verifier cryptox.Verifier, cfg discovery.Config) *Collusion {
	if cfg.Period <= 0 {
		cfg.Period = discovery.DefaultConfig().Period
	}
	return &Collusion{
		verifier: verifier,
		period:   cfg.Period,
		members:  model.NewIDSet(),
		withhold: model.NewIDSet(),
		pool:     make(map[model.ID]discovery.SignedPD),
		known:    model.NewIDSet(),
	}
}

// AddMember registers one colluder and returns its reactor. claimed is the
// (forged) PD the group advertises for this member; withhold lists
// third-party record owners this member wants censored (the group pools the
// union). All members must be added before the simulation starts — the group
// record list is part of every member's replies.
func (c *Collusion) AddMember(signer cryptox.Signer, claimed model.IDSet, withhold model.IDSet) *Colluder {
	rec := discovery.NewSignedPD(signer, claimed)
	i := sort.Search(len(c.group), func(i int) bool { return c.group[i].Owner >= rec.Owner })
	c.group = append(c.group, discovery.SignedPD{})
	copy(c.group[i+1:], c.group[i:])
	c.group[i] = rec
	c.members.Add(rec.Owner)
	c.addKnown(rec.Owner)
	for id := range claimed {
		c.addKnown(id)
	}
	for id := range withhold {
		c.withhold.Add(id)
	}
	c.encoded = nil
	return &Colluder{shared: c, self: rec.Owner}
}

func (c *Collusion) addKnown(id model.ID) {
	if c.known.Add(id) {
		c.recipients = nil
	}
}

// payload renders the group's reply: every member's forged record first, then
// the pooled third-party records in ascending owner order, minus the withheld
// owners. All members send the identical payload — sharing collected records
// is the point of the group.
func (c *Collusion) payload() []byte {
	if c.encoded == nil {
		recs := make([]discovery.SignedPD, 0, len(c.group)+len(c.owners))
		recs = append(recs, c.group...)
		for _, owner := range c.owners {
			if !c.withhold.Has(owner) {
				recs = append(recs, c.pool[owner])
			}
		}
		c.encoded = discovery.EncodeSetPDs(recs)
	}
	return c.encoded
}

// merge folds a received SETPDS payload into the shared pool, mirroring the
// discovery module's verification rules (first verified record per owner
// wins; member-owned records are ignored — the group controls those).
func (c *Collusion) merge(payload []byte) {
	rd := wire.NewReader(payload[1:])
	n := rd.Uvarint()
	if rd.Err() != nil || n > 4096 {
		return
	}
	for i := uint64(0); i < n; i++ {
		owner := rd.ID()
		if rd.Err() != nil {
			return
		}
		_, have := c.pool[owner]
		if have || c.members.Has(owner) {
			rd.SkipIDSet()
			rd.SkipBytesField()
			if rd.Err() != nil {
				return
			}
			continue
		}
		rec := discovery.SignedPD{Owner: owner, PD: rd.IDSet(), Sig: rd.BytesField()}
		if rd.Err() != nil {
			return
		}
		if !rec.Verify(c.verifier) {
			continue
		}
		j := sort.Search(len(c.owners), func(i int) bool { return c.owners[i] >= owner })
		c.owners = append(c.owners, 0)
		copy(c.owners[j+1:], c.owners[j:])
		c.owners[j] = owner
		c.pool[owner] = rec
		c.encoded = nil
		c.addKnown(owner)
		for id := range rec.PD {
			c.addKnown(id)
		}
	}
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

// Receive implements rt.Reactor.
func (b *Colluder) Receive(ctx rt.Context, from model.ID, payload []byte) {
	if len(payload) == 0 {
		return
	}
	switch payload[0] {
	case wire.KindGetPDs:
		ctx.Send(from, b.shared.payload())
	case wire.KindSetPDs:
		b.shared.merge(payload)
	}
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
	c := b.shared
	if c.recipients == nil {
		c.recipients = c.known.Sorted()
	}
	for _, id := range c.recipients {
		if id != b.self {
			ctx.Send(id, getPDsRequest)
		}
	}
	ctx.SetTimer(c.period, discovery.TimerTag)
}

// getPDsRequest is the constant one-byte GETPDS request, never written to.
var getPDsRequest = []byte{wire.KindGetPDs}
