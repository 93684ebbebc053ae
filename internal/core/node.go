package core

import (
	"fmt"

	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/discovery"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/pbft"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/wire"
)

// Mode selects the committee-identification rule.
type Mode int

// Modes. See the package comment.
const (
	ModeKnownF Mode = iota
	ModeUnknownF
	ModeNaive
	ModePermissioned
)

// Modes spells every mode, in the order the CLI help lists them.
var Modes = model.Names[Mode]{
	{"bft-cup", ModeKnownF}, {"bft-cupft", ModeUnknownF}, {"naive", ModeNaive}, {"permissioned", ModePermissioned},
}

// String implements fmt.Stringer.
func (m Mode) String() string { return model.NameOf(Modes, m, "mode") }

// pollTag drives the non-member GETDECIDEDVAL loop.
const pollTag uint64 = 2 << 40

// maxPending bounds the buffer of committee-consensus messages that arrive
// before the committee is identified.
const maxPending = 8192

// Config parameterizes a node.
type Config struct {
	// Mode selects the committee-identification rule.
	Mode Mode
	// F is the fault threshold given to the process (ModeKnownF and
	// ModePermissioned only; the whole point of BFT-CUPFT is not having it).
	F int
	// PD is the process's participant detector output.
	PD model.IDSet
	// Proposal is the value this process proposes.
	Proposal model.Value
	// Discovery tunes Algorithm 1.
	Discovery discovery.Config
	// Searcher, when non-nil, is the sink/core search engine the node runs
	// its committee-identification rule on. Sweep workers inject a per-node
	// kosr.Searcher from their reusable scratch; nil makes the node own a
	// fresh one. A warm searcher only changes how much work each search
	// does — results, and therefore the per-event search schedule visible in
	// traces, are those of a fresh searcher (tests inject one per call here
	// to prove it).
	Searcher kosr.Search
	// PBFTTimeout is the committee protocol's base view timeout.
	PBFTTimeout rt.Time
	// PollPeriod is the non-member decided-value polling interval.
	PollPeriod rt.Time
	// Slots is the number of chained consensus instances to run over the
	// same committee (0 or 1 = classic single-shot consensus). Slot k+1
	// starts once slot k decides.
	Slots uint64
	// ProposalFor supplies per-slot proposals for chained mode; nil falls
	// back to Proposal for every slot.
	ProposalFor func(slot uint64) model.Value
	// OnSlotDecided fires once per decided slot (chained mode observers).
	OnSlotDecided func(slot uint64, v model.Value)
	// Hardened arms the loss-tolerant protocol profile end to end: GETPDS
	// backoff, PBFT decide-note replies and the capped view-timer shift (see
	// discovery.Config.Hardened and pbft.Config.Hardened). Scenario
	// compilation sets it whenever fault injection is active; off, the node
	// is byte-identical to the seed protocol.
	Hardened bool
}

// DefaultPBFTTimeout and DefaultPollPeriod replace a zero PBFTTimeout / PollPeriod.
const DefaultPBFTTimeout, DefaultPollPeriod = 200 * rt.Millisecond, 50 * rt.Millisecond

func (c *Config) setDefaults() {
	if c.PBFTTimeout <= 0 {
		c.PBFTTimeout = DefaultPBFTTimeout
	}
	if c.PollPeriod <= 0 {
		c.PollPeriod = DefaultPollPeriod
	}
	if c.Slots == 0 {
		c.Slots = 1
	}
}

// Node is one process of the BFT-CUP / BFT-CUPFT stack. It implements
// rt.Reactor; the engine (simulated or live) serializes all callbacks.
type Node struct {
	self     model.ID
	signer   cryptox.Signer
	verifier cryptox.Verifier
	cfg      Config

	disc      *discovery.Module
	searcher  kosr.Search
	committee *kosr.Candidate
	// members is committee.Members(), computed once at adoption; member says
	// whether this node is one of them.
	members model.IDSet
	member  bool
	insts   map[uint64]*pbft.Instance

	pending []pendingMsg // committee messages that arrived before the committee was known
	// slotPending buffers committee messages for chained slots this member
	// has not started yet (fast members race ahead; their DecideNotes must
	// not be lost).
	slotPending map[uint64][]pendingMsg
	pendingN    int

	decidedSlots map[uint64]model.Value
	askers       map[uint64]model.IDSet              // per slot: processes awaiting DECIDEDVAL
	answers      map[uint64]map[model.ID]model.Value // per undecided slot: each member's first DECIDEDVAL answer

	onDecide func(model.Value)
	ctx      rt.Context // current callback context (single-threaded reactor)
}

// NewNode creates a node. onDecide fires exactly once, when the node decides;
// it may be nil.
func NewNode(signer cryptox.Signer, verifier cryptox.Verifier, cfg Config, onDecide func(model.Value)) *Node {
	cfg.setDefaults()
	n := &Node{
		self:         signer.ID(),
		signer:       signer,
		verifier:     verifier,
		cfg:          cfg,
		insts:        make(map[uint64]*pbft.Instance),
		decidedSlots: make(map[uint64]model.Value),
		slotPending:  make(map[uint64][]pendingMsg),
		askers:       make(map[uint64]model.IDSet),
		answers:      make(map[uint64]map[model.ID]model.Value),
		onDecide:     onDecide,
	}
	if cfg.Mode != ModePermissioned {
		rec := discovery.NewSignedPD(signer, cfg.PD)
		dcfg := cfg.Discovery
		dcfg.Hardened = dcfg.Hardened || cfg.Hardened
		n.disc = discovery.New(rec, verifier, dcfg, n.onKnowledge)
		n.searcher = cfg.Searcher
		if n.searcher == nil {
			n.searcher = kosr.NewSearcher()
		}
	}
	return n
}

// Decided returns the slot-0 decision, if reached.
func (n *Node) Decided() (model.Value, bool) { return n.DecidedSlot(0) }

// DecidedSlot returns the decision of one chained slot, if reached.
func (n *Node) DecidedSlot(slot uint64) (model.Value, bool) {
	v, ok := n.decidedSlots[slot]
	return v, ok
}

// DecidedAll reports whether every configured slot has decided.
func (n *Node) DecidedAll() bool {
	return uint64(len(n.decidedSlots)) >= n.cfg.Slots
}

// proposalFor returns this node's proposal for a slot.
func (n *Node) proposalFor(slot uint64) model.Value {
	if n.cfg.ProposalFor != nil {
		return n.cfg.ProposalFor(slot)
	}
	return n.cfg.Proposal
}

// Committee returns the identified committee candidate, if any.
func (n *Node) Committee() (kosr.Candidate, bool) {
	if n.committee == nil {
		return kosr.Candidate{}, false
	}
	return *n.committee, true
}

// View exposes the node's current knowledge (tests and tools only).
func (n *Node) View() *kosr.View {
	if n.disc == nil {
		return nil
	}
	return n.disc.View()
}

// Init implements rt.Reactor.
func (n *Node) Init(ctx rt.Context) {
	n.ctx = ctx
	if n.cfg.Mode == ModePermissioned {
		members := n.cfg.PD.Clone()
		members.Add(n.self)
		cand := kosr.Candidate{G: n.cfg.F, S1: members, S2: model.NewIDSet()}
		n.adoptCommittee(ctx, cand)
		return
	}
	n.disc.Start(ctx)
	n.search(ctx)
}

// Restart implements rt.Restartable: a crash-restart with persisted state.
// Every map and record the node holds survived the crash; what died with the
// previous incarnation is its pending timers, so each protocol layer re-arms
// its own — discovery resumes its gossip round, undecided PBFT instances
// re-arm their current view timer, a non-member re-enters the decided-value
// poll. A node that had not yet identified a committee simply re-runs its
// search (discovery's resumed rounds will grow the view again).
func (n *Node) Restart(ctx rt.Context) {
	n.ctx = ctx
	if n.disc != nil {
		n.disc.Resume(ctx)
	}
	if n.committee == nil {
		if n.cfg.Mode != ModePermissioned {
			n.search(ctx)
		}
		return
	}
	if n.member {
		// Ascending slot order: Resume sets timers, and deterministic traces
		// need a deterministic scheduling order (insts is a map).
		for slot := uint64(0); slot < n.cfg.Slots; slot++ {
			if inst := n.insts[slot]; inst != nil {
				inst.Resume(ctx)
			}
		}
	} else {
		n.poll(ctx)
	}
}

// Receive implements rt.Reactor.
func (n *Node) Receive(ctx rt.Context, from model.ID, payload []byte) {
	n.ctx = ctx
	if len(payload) == 0 {
		return
	}
	if n.disc != nil && n.disc.Handle(ctx, from, payload) {
		return
	}
	if slot, ok := pbft.PeekSlot(payload); ok {
		if n.committee == nil {
			if len(n.pending) < maxPending {
				// The committee is not identified yet; buffer so that a late
				// process can still join the committee protocol. A delivered
				// payload may be kept as it is (the rt payload contract).
				n.pending = append(n.pending, pendingMsg{from: from, payload: payload})
			}
		} else if inst := n.insts[slot]; inst != nil {
			inst.Handle(ctx, from, payload)
		} else if n.member && slot < n.cfg.Slots && n.pendingN < maxPending {
			// A member that is still on an earlier slot must not lose
			// traffic (especially DecideNotes) for slots it will start.
			n.slotPending[slot] = append(n.slotPending[slot], pendingMsg{from: from, payload: payload})
			n.pendingN++
		}
		return
	}
	switch payload[0] {
	case wire.KindGetDecided:
		n.onGetDecided(ctx, from, payload)
	case wire.KindDecided:
		n.onDecidedAnswer(from, payload)
	}
}

// Timer implements rt.Reactor.
func (n *Node) Timer(ctx rt.Context, tag uint64) {
	n.ctx = ctx
	if n.disc != nil && n.disc.HandleTimer(ctx, tag) {
		return
	}
	if tag == pollTag {
		n.poll(ctx)
		return
	}
	if slot, ok := pbft.SlotOfTag(tag); ok {
		if inst := n.insts[slot]; inst != nil {
			inst.HandleTimer(ctx, tag)
		}
	}
}

// onKnowledge fires whenever Discovery grows S_PD or S_known.
func (n *Node) onKnowledge() {
	if n.ctx == nil || n.committee != nil {
		return
	}
	n.search(n.ctx)
}

// search runs the mode's committee-identification rule on the current view
// (the wait-until conditions of Algorithms 2 and 4).
func (n *Node) search(ctx rt.Context) {
	if n.committee != nil {
		return
	}
	view := n.disc.View()
	var cand kosr.Candidate
	var ok bool
	switch n.cfg.Mode {
	case ModeKnownF:
		cand, ok = n.searcher.FindSinkKnownF(view, n.cfg.F)
	case ModeUnknownF:
		cand, ok = n.searcher.FindCore(view)
	case ModeNaive:
		cand, ok = n.searcher.FindNaive(view)
	default:
		return
	}
	if !ok {
		return
	}
	n.adoptCommittee(ctx, cand)
}

// adoptCommittee fixes the committee and starts the member or non-member
// role of Algorithm 3.
func (n *Node) adoptCommittee(ctx rt.Context, cand kosr.Candidate) {
	n.committee = &cand
	n.members = cand.Members()
	n.member = n.members.Has(n.self)
	if n.member {
		n.startSlot(ctx, 0)
		for _, m := range n.pending {
			n.Receive(ctx, m.from, m.payload)
		}
	} else {
		n.poll(ctx)
	}
	n.pending = nil
}

// startSlot launches the committee instance for one chained slot.
func (n *Node) startSlot(ctx rt.Context, slot uint64) {
	if slot >= n.cfg.Slots || n.insts[slot] != nil {
		return
	}
	cfg := pbft.Config{
		Slot:        slot,
		Committee:   n.members,
		Quorum:      n.committee.QuorumSize(),
		F:           n.committee.G,
		BaseTimeout: n.cfg.PBFTTimeout,
		Hardened:    n.cfg.Hardened,
	}

	inst, err := pbft.New(n.signer, n.verifier, cfg, n.proposalFor(slot), func(v model.Value) {
		n.decideLocal(n.ctx, slot, v)
	})
	if err != nil {
		// Committee parameters come from our own search; failure here is a
		// programming error, not an adversarial input.
		panic(fmt.Sprintf("core: pbft.New: %v", err))
	}
	n.insts[slot] = inst
	inst.Start(ctx)
	if buf := n.slotPending[slot]; len(buf) > 0 {
		delete(n.slotPending, slot)
		n.pendingN -= len(buf)
		for _, pm := range buf {
			inst.Handle(ctx, pm.from, pm.payload)
		}
	}
}

// pendingMsg is a buffered committee message, kept as delivered.
type pendingMsg struct {
	from    model.ID
	payload []byte
}

// nextUndecidedSlot returns the lowest slot without a decision (== Slots when
// everything decided).
func (n *Node) nextUndecidedSlot() uint64 {
	for slot := uint64(0); slot < n.cfg.Slots; slot++ {
		if _, ok := n.decidedSlots[slot]; !ok {
			return slot
		}
	}
	return n.cfg.Slots
}

// poll implements the non-member loop: ask every committee member for the
// lowest undecided slot's value (Algorithm 3 line 6).
func (n *Node) poll(ctx rt.Context) {
	if n.committee == nil {
		return
	}
	slot := n.nextUndecidedSlot()
	if slot >= n.cfg.Slots {
		return
	}
	w := wire.NewWriter()
	w.Byte(wire.KindGetDecided)
	w.Uvarint(slot)
	payload := w.Bytes()
	for _, m := range n.members.Sorted() {
		if m != n.self {
			ctx.Send(m, payload)
		}
	}
	ctx.SetTimer(n.cfg.PollPeriod, pollTag)
}

// onGetDecided answers a ⟨GETDECIDEDVAL⟩ for a slot, or queues the asker
// until the slot decides (Algorithm 3 line 9).
func (n *Node) onGetDecided(ctx rt.Context, from model.ID, payload []byte) {
	r := wire.NewReader(payload[1:])
	slot := r.Uvarint()
	if r.Done() != nil || slot >= n.cfg.Slots {
		return
	}
	if _, ok := n.decidedSlots[slot]; ok {
		n.sendDecided(ctx, from, slot)
		return
	}
	set := n.askers[slot]
	if set == nil {
		set = model.NewIDSet()
		n.askers[slot] = set
	}
	set.Add(from)
}

func (n *Node) sendDecided(ctx rt.Context, to model.ID, slot uint64) {
	w := wire.NewWriter()
	w.Byte(wire.KindDecided)
	w.Uvarint(slot)
	w.BytesField(n.decidedSlots[slot])
	ctx.Send(to, w.Bytes())
}

// onDecidedAnswer counts ⟨DECIDEDVAL, val⟩ answers from distinct committee
// members until ⌈(|S|+1)/2⌉ agree (Algorithm 3 line 7). A member's first
// answer for a slot is its only vote, so a slot's tally holds at most |S|
// entries; decideLocal drops it.
func (n *Node) onDecidedAnswer(from model.ID, payload []byte) {
	if n.committee == nil {
		return
	}
	if !n.members.Has(from) || n.member {
		// Only non-members decide through answers; members run consensus.
		return
	}
	r := wire.NewReader(payload[1:])
	slot := r.Uvarint()
	val := model.Value(r.BytesField())
	if r.Done() != nil || slot >= n.cfg.Slots {
		return
	}
	if _, ok := n.decidedSlots[slot]; ok {
		return
	}
	bySlot := n.answers[slot]
	if bySlot == nil {
		bySlot = make(map[model.ID]model.Value)
		n.answers[slot] = bySlot
	}
	if _, ok := bySlot[from]; ok {
		return
	}
	bySlot[from] = val
	agree := 0
	for _, v := range bySlot {
		if v.Equal(val) {
			agree++
		}
	}
	if agree >= n.committee.AnswerThreshold() {
		n.decideLocal(n.ctx, slot, val)
	}
}

// decideLocal finalizes one slot's decision exactly once (Integrity),
// answers queued GETDECIDEDVALs (Algorithm 3 line 10) and, in chained mode,
// starts the next slot.
func (n *Node) decideLocal(ctx rt.Context, slot uint64, v model.Value) {
	if _, ok := n.decidedSlots[slot]; ok {
		return
	}
	n.decidedSlots[slot] = v
	for _, asker := range n.askers[slot].Sorted() {
		n.sendDecided(ctx, asker, slot)
	}
	delete(n.askers, slot)
	delete(n.answers, slot)
	if n.cfg.OnSlotDecided != nil {
		n.cfg.OnSlotDecided(slot, v)
	}
	if slot == 0 && n.onDecide != nil {
		n.onDecide(v)
	}
	if n.member {
		n.startSlot(ctx, slot+1)
	}
}
