package pbft

import (
	"fmt"
	"sort"

	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/wire"
)

// TimerTagBase namespaces PBFT timers within a reactor; bits 32..39 carry
// the slot and the low 32 bits carry the view.
const TimerTagBase uint64 = 3 << 40

// timerTag packs (slot, view) into a tag below the next namespace.
func timerTag(slot, view uint64) uint64 {
	return TimerTagBase | ((slot & 0xFF) << 32) | (view & 0xFFFFFFFF)
}

// SlotOfTag extracts the slot from a PBFT timer tag (ok=false for foreign
// tags).
func SlotOfTag(tag uint64) (uint64, bool) {
	if tag < TimerTagBase || tag >= TimerTagBase+(1<<40) {
		return 0, false
	}
	return (tag >> 32) & 0xFF, true
}

// maxTimeoutShift caps exponential timeout growth. At the default 200ms base
// the cap is effectively "give up doubling after a day" — fine when messages
// always arrive, useless under sustained loss, where a handful of lost
// proposals pushes the retry interval past any practical horizon.
const maxTimeoutShift = 20

// hardenedMaxShift is the cap under Config.Hardened: view-change retries
// plateau at base<<6 (12.8s at the default base) so a committee suffering
// sustained message loss keeps retrying at a bounded interval instead of
// backing off forever. Documented behavior under sustained loss: liveness
// degrades to "retry every base<<6 until the loss abates", never to silence.
const hardenedMaxShift = 6

// Config describes one committee instance.
type Config struct {
	// Slot addresses the instance (0 for single-shot consensus).
	Slot uint64
	// Committee is the member set S returned by the Sink/Core algorithm.
	Committee model.IDSet
	// Quorum is ⌈(|S|+g+1)/2⌉; see Candidate.QuorumSize.
	Quorum int
	// F is the assumed fault bound g for this committee; f+1 distinct
	// view-change senders guarantee at least one is correct (catch-up rule).
	F int
	// BaseTimeout is the view-0 view-change timeout; it doubles per view.
	BaseTimeout rt.Time
	// Hardened enables the loss-tolerant profile for chaos runs: the
	// timeout doubling caps at hardenedMaxShift instead of maxTimeoutShift,
	// and a decided member answers further protocol traffic for its slot
	// with its decide certificate — without it, a member that decides and
	// goes quiet can strand peers who lost the original DecideNote, with
	// fewer than a quorum of live participants to re-decide. Off (the
	// default) the message sequence is byte-identical to the seed protocol.
	Hardened bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	n := c.Committee.Len()
	if n == 0 {
		return fmt.Errorf("pbft: empty committee")
	}
	if c.Quorum <= n/2 || c.Quorum > n {
		return fmt.Errorf("pbft: quorum %d out of range for committee of %d", c.Quorum, n)
	}
	if c.F < 0 || c.F >= n {
		return fmt.Errorf("pbft: fault bound %d out of range for committee of %d", c.F, n)
	}
	if c.BaseTimeout <= 0 {
		return fmt.Errorf("pbft: non-positive timeout")
	}
	return nil
}

// Instance is one slot of committee consensus for one process. It is not
// safe for concurrent use; the reactor that owns it serializes all calls.
type Instance struct {
	self     model.ID
	signer   cryptox.Signer
	verifier cryptox.Verifier
	cfg      Config
	members  []model.ID // sorted

	view     uint64
	proposal model.Value // own initial proposal
	views    map[uint64]*viewState
	prepared *Cert // the highest-view prepared certificate, carried by view changes

	decided bool
	// noteBytes is the encoded DecideNote retained after deciding
	// (hardened mode replays it to members still working the slot).
	noteBytes []byte
	onDecide  func(model.Value)
	started   bool
}

// viewState is what an instance records about one view.
type viewState struct {
	// value is the value accepted for the view, from its pre-prepare or its
	// new-view; accepting it and sending its prepare are one step.
	value    model.Value
	accepted bool
	// The messages this member sent for the view, besides its prepare.
	sentCommit, sentVC, sentNV bool
	// The view's prepare and commit signatures by digest and signer, and
	// its view changes (this member's own included) by sender.
	prepares, commits map[Digest]map[model.ID][]byte
	vcs               map[model.ID]*viewChangeMsg
}

// New creates an instance. onDecide fires exactly once; it may be nil.
func New(signer cryptox.Signer, verifier cryptox.Verifier, cfg Config, proposal model.Value, onDecide func(model.Value)) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Committee.Has(signer.ID()) {
		return nil, fmt.Errorf("pbft: %v is not in committee %v", signer.ID(), cfg.Committee)
	}
	return &Instance{
		self:     signer.ID(),
		signer:   signer,
		verifier: verifier,
		cfg:      cfg,
		members:  cfg.Committee.Sorted(),
		proposal: proposal,
		views:    make(map[uint64]*viewState),
		onDecide: onDecide,
	}, nil
}

// at returns the record of a view, making it on first use.
func (i *Instance) at(view uint64) *viewState {
	vs := i.views[view]
	if vs == nil {
		vs = &viewState{}
		i.views[view] = vs
	}
	return vs
}

// Leader returns the leader of a view: round-robin over the sorted committee.
func (i *Instance) Leader(view uint64) model.ID {
	return i.members[int(view%uint64(len(i.members)))]
}

// Start begins the protocol: the view-0 leader proposes its own value.
func (i *Instance) Start(ctx rt.Context) {
	if i.started {
		return
	}
	i.started = true
	if i.Leader(0) == i.self {
		i.propose(ctx, 0, i.proposal)
	}
	i.armTimer(ctx)
}

func (i *Instance) propose(ctx rt.Context, view uint64, value model.Value) {
	d := DigestOf(value)
	msg := &prePrepareMsg{Slot: i.cfg.Slot, View: view, Value: value,
		Sig: i.signer.Sign(canon(domPrePrepare, i.cfg.Slot, view, d))}
	i.broadcast(ctx, msg.encode())
	// The leader accepts its own proposal and prepares it.
	i.acceptProposal(ctx, view, value)
}

func (i *Instance) broadcast(ctx rt.Context, payload []byte) {
	for _, m := range i.members {
		if m != i.self {
			ctx.Send(m, payload)
		}
	}
}

func (i *Instance) armTimer(ctx rt.Context) {
	shift := i.view
	lim := uint64(maxTimeoutShift)
	if i.cfg.Hardened {
		lim = hardenedMaxShift
	}
	if shift > lim {
		shift = lim
	}
	ctx.SetTimer(i.cfg.BaseTimeout<<shift, timerTag(i.cfg.Slot, i.view))
}

// Resume re-arms the current view's timer after a crash restart with
// persisted state: pending timers died with the previous incarnation, and
// without a live timer an undecided instance would wait forever for traffic
// it can no longer solicit. The rest of the state machine is message-driven
// and resumes on its own.
func (i *Instance) Resume(ctx rt.Context) {
	if !i.started || i.decided {
		return
	}
	i.armTimer(ctx)
}

// HandleTimer processes a view timer of this instance's slot; a foreign or
// stale tag is ignored.
func (i *Instance) HandleTimer(ctx rt.Context, tag uint64) {
	slot, ok := SlotOfTag(tag)
	if !ok || slot != i.cfg.Slot&0xFF || tag&0xFFFFFFFF != i.view&0xFFFFFFFF || i.decided || !i.started {
		return
	}
	i.startViewChange(ctx, i.view+1)
}

// startViewChange moves to newView, above the current view, and asks the
// committee to install it.
func (i *Instance) startViewChange(ctx rt.Context, newView uint64) {
	i.view = newView
	vs := i.at(newView)
	if vs.sentVC {
		return
	}
	vs.sentVC = true
	vc := &viewChangeMsg{Slot: i.cfg.Slot, NewView: newView, Prepared: i.prepared}
	vc.Sig = i.signer.Sign(vcCanon(i.cfg.Slot, newView, i.prepared))
	i.broadcast(ctx, vc.encode())
	// Record our own view change (the new leader might be us).
	i.recordVC(ctx, i.self, vc)
	i.armTimer(ctx)
}

// Handle processes a PBFT payload for this slot. PBFT traffic from
// non-members, and every other payload, is dropped.
func (i *Instance) Handle(ctx rt.Context, from model.ID, payload []byte) {
	if len(payload) == 0 || !isPBFT(payload[0]) || !i.cfg.Committee.Has(from) {
		return
	}
	if i.decided || !i.started {
		// Decided instances ignore everything (DecideNote already sent) —
		// except that in hardened mode a decided member answers live
		// protocol traffic from a committee peer with its decide
		// certificate: the peer is visibly still working the slot, so the
		// original note (or its loss-recovery window) did not reach it.
		// DecideNote itself never triggers a reply, so replies cannot loop.
		if i.decided && i.cfg.Hardened && i.noteBytes != nil && payload[0] != wire.KindDecideNote {
			ctx.Send(from, i.noteBytes)
		}
		return
	}
	switch payload[0] {
	case wire.KindPrePrepare:
		if m, ok := decodePrePrepare(payload); ok && m.Slot == i.cfg.Slot {
			i.onPrePrepare(ctx, from, m)
		}
	case wire.KindPrepare, wire.KindCommit:
		if m, ok := decodeVote(payload); ok && m.Slot == i.cfg.Slot &&
			i.verifier.Verify(from, canon(domOf(m.Kind), i.cfg.Slot, m.View, m.Digest), m.Sig) {
			i.recordVote(ctx, from, m)
		}
	case wire.KindViewChange:
		if m, ok := decodeViewChange(payload); ok && m.Slot == i.cfg.Slot && i.validVC(from, m) {
			i.recordVC(ctx, from, m)
		}
	case wire.KindNewView:
		if m, ok := decodeNewView(payload); ok && m.Slot == i.cfg.Slot {
			i.onNewView(ctx, from, m)
		}
	case wire.KindDecideNote:
		if m, ok := decodeDecideNote(payload); ok && m.Slot == i.cfg.Slot && m.Cert.valid(domCommit, &i.cfg, i.verifier) {
			i.decide(ctx, &m.Cert, false) // no re-broadcast: the sender already notified all
		}
	}
}

func (i *Instance) onPrePrepare(ctx rt.Context, from model.ID, m *prePrepareMsg) {
	if m.View != i.view || from != i.Leader(m.View) {
		return
	}
	if !i.verifier.Verify(from, canon(domPrePrepare, i.cfg.Slot, m.View, DigestOf(m.Value)), m.Sig) {
		return
	}
	// The first proposal wins; equivocation cannot gather two quorums.
	i.acceptProposal(ctx, m.View, m.Value)
}

// acceptProposal binds a value to a view, once, and prepares it.
func (i *Instance) acceptProposal(ctx rt.Context, view uint64, value model.Value) {
	vs := i.at(view)
	if vs.accepted {
		return
	}
	vs.value, vs.accepted = value, true
	i.vote(ctx, wire.KindPrepare, view, DigestOf(value))
}

// domOf is the signing domain of a vote kind.
func domOf(kind byte) byte {
	if kind == wire.KindCommit {
		return domCommit
	}
	return domPrepare
}

// vote signs and broadcasts this member's prepare or commit for (view, d),
// then records it like any other.
func (i *Instance) vote(ctx rt.Context, kind byte, view uint64, d Digest) {
	m := &voteMsg{Kind: kind, Slot: i.cfg.Slot, View: view, Digest: d,
		Sig: i.signer.Sign(canon(domOf(kind), i.cfg.Slot, view, d))}
	i.broadcast(ctx, m.encode())
	i.recordVote(ctx, i.self, m)
}

func (i *Instance) recordVote(ctx rt.Context, from model.ID, m *voteMsg) {
	vs := i.at(m.View)
	tally := &vs.prepares
	if m.Kind == wire.KindCommit {
		tally = &vs.commits
	}
	if *tally == nil {
		*tally = make(map[Digest]map[model.ID][]byte)
	}
	byID, ok := (*tally)[m.Digest]
	if !ok {
		byID = make(map[model.ID][]byte)
		(*tally)[m.Digest] = byID
	}
	if _, dup := byID[from]; dup {
		return
	}
	byID[from] = m.Sig
	i.checkProgress(ctx, m.View, m.Digest)
}

// checkProgress fires the prepared → commit and committed → decide
// transitions for the current view.
func (i *Instance) checkProgress(ctx rt.Context, view uint64, d Digest) {
	vs := i.at(view)
	if view != i.view || i.decided || !vs.accepted || DigestOf(vs.value) != d {
		return
	}
	if preps := vs.prepares[d]; len(preps) >= i.cfg.Quorum && !vs.sentCommit {
		vs.sentCommit = true
		// Build/refresh the prepared certificate carried by view changes.
		if cert := certOf(view, vs.value, preps); i.prepared == nil || cert.View > i.prepared.View {
			i.prepared = cert
		}
		i.vote(ctx, wire.KindCommit, view, d)
		return
	}
	if comms := vs.commits[d]; len(comms) >= i.cfg.Quorum && vs.sentCommit {
		i.decide(ctx, certOf(view, vs.value, comms), true)
	}
}

// certOf assembles a certificate from a tally's signatures, in signer order.
func certOf(view uint64, value model.Value, sigs map[model.ID][]byte) *Cert {
	c := &Cert{View: view, Value: value}
	for _, id := range sortedIDs(sigs) {
		c.Sigs = append(c.Sigs, sigEntry{ID: id, Sig: sigs[id]})
	}
	return c
}

func sortedIDs[T any](m map[model.ID]T) []model.ID {
	out := make([]model.ID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// decide adopts the value a commit certificate proves, once, and broadcasts
// the certificate as a DecideNote when asked to. Hardened mode keeps the note
// either way, to answer peers still working the slot.
func (i *Instance) decide(ctx rt.Context, cert *Cert, broadcast bool) {
	if i.decided {
		return
	}
	i.decided = true
	if broadcast || i.cfg.Hardened {
		i.noteBytes = (&decideNoteMsg{Slot: i.cfg.Slot, Cert: *cert}).encode()
	}
	if broadcast {
		i.broadcast(ctx, i.noteBytes)
	}
	if i.onDecide != nil {
		i.onDecide(cert.Value)
	}
}

// validVC checks a view change from sender: its signature, and the prepared
// certificate it carries, if any.
func (i *Instance) validVC(sender model.ID, m *viewChangeMsg) bool {
	return i.verifier.Verify(sender, vcCanon(i.cfg.Slot, m.NewView, m.Prepared), m.Sig) &&
		(m.Prepared == nil || m.Prepared.valid(domPrepare, &i.cfg, i.verifier))
}

func (i *Instance) recordVC(ctx rt.Context, from model.ID, m *viewChangeMsg) {
	vs := i.at(m.NewView)
	if vs.vcs == nil {
		vs.vcs = make(map[model.ID]*viewChangeMsg)
	}
	if _, dup := vs.vcs[from]; dup {
		return
	}
	vs.vcs[from] = m

	// Catch-up: if f+1 distinct members (hence ≥ one correct) are past us,
	// join the lowest such view — the classic PBFT liveness rule.
	minHigher := uint64(0)
	ahead := model.NewIDSet()
	for v, s := range i.views {
		if v > i.view && len(s.vcs) > 0 {
			for id := range s.vcs {
				ahead.Add(id)
			}
			if minHigher == 0 || v < minHigher {
				minHigher = v
			}
		}
	}
	if ahead.Len() >= i.cfg.F+1 && minHigher > i.view {
		i.startViewChange(ctx, minHigher)
	}

	// New leader: install the view once a quorum of view changes arrives,
	// re-proposing the highest prepared value among them, else its own.
	if len(vs.vcs) >= i.cfg.Quorum && i.Leader(m.NewView) == i.self &&
		m.NewView >= i.view && !vs.sentNV {
		vs.sentNV = true
		i.view = m.NewView
		nv := &newViewMsg{Slot: i.cfg.Slot, View: m.NewView, Value: i.proposal}
		for _, id := range sortedIDs(vs.vcs) {
			nv.VCFrom = append(nv.VCFrom, id)
			nv.VCs = append(nv.VCs, *vs.vcs[id])
		}
		if c := highestPrepared(nv.VCs); c != nil {
			nv.Value = c.Value
		}
		nv.Sig = i.signer.Sign(canon(domNewView, i.cfg.Slot, m.NewView, DigestOf(nv.Value)))
		i.broadcast(ctx, nv.encode())
		i.acceptProposal(ctx, m.NewView, nv.Value)
		i.armTimer(ctx)
	}
}

// highestPrepared returns the highest-view prepared certificate of a
// new-view bundle (the first among equals): a new leader must re-propose its
// value, and members check that it did. Nil means none prepared, and the
// leader may propose anything.
func highestPrepared(bundle []viewChangeMsg) *Cert {
	var best *Cert
	for idx := range bundle {
		if c := bundle[idx].Prepared; c != nil && (best == nil || c.View > best.View) {
			best = c
		}
	}
	return best
}

func (i *Instance) onNewView(ctx rt.Context, from model.ID, m *newViewMsg) {
	if m.View < i.view || from != i.Leader(m.View) {
		return
	}
	if !i.verifier.Verify(from, canon(domNewView, i.cfg.Slot, m.View, DigestOf(m.Value)), m.Sig) {
		return
	}
	if len(m.VCs) < i.cfg.Quorum || len(m.VCs) != len(m.VCFrom) {
		return
	}
	seen := model.NewIDSet()
	for idx := range m.VCs {
		vc, sender := &m.VCs[idx], m.VCFrom[idx]
		if vc.NewView != m.View || !i.cfg.Committee.Has(sender) || !seen.Add(sender) || !i.validVC(sender, vc) {
			return
		}
	}
	if c := highestPrepared(m.VCs); c != nil && DigestOf(c.Value) != DigestOf(m.Value) {
		return
	}
	i.view = m.View
	i.acceptProposal(ctx, m.View, m.Value)
	i.armTimer(ctx)
	// Votes for this view may have arrived before we installed it.
	i.checkProgress(ctx, m.View, DigestOf(i.at(m.View).value))
}
