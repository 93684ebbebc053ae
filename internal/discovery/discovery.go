package discovery

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/wire"
)

// TimerTag identifies the periodic discovery timer within a reactor.
const TimerTag uint64 = 1 << 40

// SignedPD is one ⟨i, PDᵢ⟩ᵢ record: a participant detector signed by its
// owner.
type SignedPD struct {
	// Owner is the process that signed the record.
	Owner model.ID
	// PD is the participant detector the owner claims.
	PD model.IDSet
	// Sig is the owner's signature over Canonical(Owner, PD).
	Sig []byte
}

// Canonical returns the byte string that is signed: a domain tag, the owner
// and the sorted PD.
func Canonical(owner model.ID, pd model.IDSet) []byte {
	w := wire.NewWriter()
	w.Byte('P') // domain separation: participant-detector records
	w.ID(owner)
	w.IDSet(pd)
	return w.Bytes()
}

// NewSignedPD creates and signs a PD record. The claimed PD need not equal
// the signer's real PD — that freedom is exactly what Byzantine processes
// exploit (e.g. the Fig. 1b worked example).
func NewSignedPD(signer cryptox.Signer, pd model.IDSet) SignedPD {
	return SignedPD{Owner: signer.ID(), PD: pd.Clone(), Sig: signer.Sign(Canonical(signer.ID(), pd))}
}

// Verify checks the record's signature against the registry.
func (r SignedPD) Verify(v cryptox.Verifier) bool {
	return v.Verify(r.Owner, Canonical(r.Owner, r.PD), r.Sig)
}

func (r SignedPD) marshal(w *wire.Writer) {
	w.ID(r.Owner)
	w.IDSet(r.PD)
	w.BytesField(r.Sig)
}

// Config tunes the discovery task.
type Config struct {
	// Period between GETPDS rounds (Algorithm 1, line 2).
	Period rt.Time
	// Hardened enables the loss-tolerant retransmission profile for chaos
	// runs: the GETPDS round period backs off exponentially (with RNG
	// jitter, so synchronized senders desynchronize) up to 8×Period while
	// the local view is unchanged, and snaps back to Period on growth —
	// retransmission keeps probing a lossy network without the seed's
	// fixed-cadence message volume exploding. It is trace-neutral while
	// every round's view keeps growing on schedule; the flag is only armed
	// for fault scenarios, keeping baseline traces byte-identical.
	Hardened bool
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{Period: 20 * rt.Millisecond}
}

// Module is the per-process discovery state: S_PD, S_known and S_received,
// maintained exactly as Algorithm 1 prescribes.
//
// The periodic task dominates the simulator's hot path — every process
// re-requests and re-sends records every Period — so the module caches what
// the steady state re-derives: the sorted record-owner list, the encoded
// full-set SETPDS payload and the sorted gossip recipient list are computed
// when the underlying state changes, not per message. The wire format and
// message sequence are untouched (trace digests are byte-identical to the
// uncached implementation).
//
// The receive side has the mirror-image cache: lastSetPDs remembers, per
// sender, the last SETPDS payload merged, and a byte-identical replay — once
// gossip converges, nearly every SETPDS received — costs one comparison
// instead of a parse (see receiveRecords for why that is exact).
type Module struct {
	self     model.ID
	verifier cryptox.Verifier
	cfg      Config
	view     *kosr.View
	records  map[model.ID]SignedPD
	onUpdate func()
	started  bool

	// owners is records' key set, kept sorted; encoded is the cached
	// full-set SETPDS payload (nil after a record arrives); recipients is
	// the cached sorted S_known but self, whom the gossip round polls (nil
	// after S_known grows).
	owners     []model.ID
	encoded    []byte
	recipients []model.ID

	// lastSetPDs is the replay memo: the last SETPDS payload handled from
	// each sender in S_known, as delivered (rt lets a reactor keep it) — at
	// most one payload per known sender. senders indexes it by sender ID.
	senders    model.IDIndex
	lastSetPDs [][]byte

	// Hardened-mode retransmission state: rounds since the view last grew
	// (drives the backoff) and the view size last observed.
	idleRounds int
	lastSize   int
}

// New creates a discovery module. ownRecord is this process's signed PD
// (line 1 initialization: S_PD = {⟨i, PDᵢ⟩ᵢ}, S_known = PDᵢ ∪ {i},
// S_received = {i}). onUpdate fires whenever S_PD or S_known grows; it may
// be nil.
func New(ownRecord SignedPD, verifier cryptox.Verifier, cfg Config, onUpdate func()) *Module {
	if cfg.Period <= 0 {
		cfg.Period = DefaultConfig().Period
	}
	// The view is maintained exclusively through the mutator API so its
	// revision counter tracks every change — that is what lets the node's
	// incremental Searcher trust its memos.
	v := kosr.NewView()
	v.AddKnown(ownRecord.Owner)
	for id := range ownRecord.PD {
		// Insertion order is unobservable (rev and Known end identical);
		// no need to sort on the per-node construction path.
		v.AddKnown(id)
	}
	v.SetPD(ownRecord.Owner, ownRecord.PD)
	m := &Module{
		self:     ownRecord.Owner,
		verifier: verifier,
		cfg:      cfg,
		view:     v,
		records:  map[model.ID]SignedPD{ownRecord.Owner: ownRecord},
		onUpdate: onUpdate,
		owners:   []model.ID{ownRecord.Owner},
	}
	return m
}

// View exposes the module's current knowledge for the Sink/Core searches.
// Callers must not mutate it.
func (m *Module) View() *kosr.View { return m.view }

// AppendOtherRecords appends every collected record except the module owner's
// own to buf, in ascending owner order, and returns the extended slice. The
// module keeps no reference to buf, and SignedPD values are safe to retain
// (records are immutable once verified).
func (m *Module) AppendOtherRecords(buf []SignedPD) []SignedPD {
	for _, owner := range m.owners {
		if owner != m.self {
			buf = append(buf, m.records[owner])
		}
	}
	return buf
}

// SendRecords answers a GETPDS request on behalf of a wrapping reactor: the
// same (cached) S_PD payload the module itself would send. Byzantine
// behaviors that only distort timing — not content — reply through it.
func (m *Module) SendRecords(ctx rt.Context, to model.ID) { m.sendRecords(ctx, to) }

// Start begins the periodic discovery task.
func (m *Module) Start(ctx rt.Context) {
	if m.started {
		return
	}
	m.started = true
	m.round(ctx)
}

// HandleTimer processes the periodic timer; it reports whether the tag
// belonged to discovery.
func (m *Module) HandleTimer(ctx rt.Context, tag uint64) bool {
	if tag != TimerTag {
		return false
	}
	m.round(ctx)
	return true
}

// Resume re-enters the periodic round after a crash restart with persisted
// state: the module's records survived, but its pending round timer died
// with the previous incarnation, so the loop must be re-armed. No-op if
// Start was never called.
func (m *Module) Resume(ctx rt.Context) {
	if !m.started {
		return
	}
	m.round(ctx)
}

// getPDsPayload is the constant one-byte GETPDS request, never written to.
var getPDsPayload = []byte{wire.KindGetPDs}

func (m *Module) round(ctx rt.Context) {
	for _, id := range m.Polls() {
		ctx.Send(id, getPDsPayload)
	}
	ctx.SetTimer(m.nextPeriod(ctx), TimerTag)
}

// The three questions below model a round without running one, for a caller
// that counts the rounds of a run whose knowledge no longer changes instead
// of simulating them (internal/scenario's counted tail): a round sends a
// one-byte GETPDS to each of Polls, and a module answers each GETPDS with
// one SETPDS of ReplyLen bytes; once the module Holds every peer it polls,
// neither answer can change it.

// Polls returns whom a round sends GETPDS to: S_known without the module's
// owner, ascending. The slice is the module's cache; callers must not
// modify or keep it.
func (m *Module) Polls() []model.ID {
	if m.recipients == nil {
		m.recipients = slices.DeleteFunc(m.view.Known.Sorted(), func(id model.ID) bool { return id == m.self })
	}
	return m.recipients
}

// ReplyLen returns the length of the SETPDS a GETPDS is answered with now.
func (m *Module) ReplyLen() int { return len(m.reply()) }

// Holds reports whether the module holds a record of every owner peer holds
// one of: then nothing peer sends, or has sent, as a SETPDS can add to it.
func (m *Module) Holds(peer *Module) bool {
	i := 0
	for _, owner := range peer.owners { // both ascending: one merge walk
		for i < len(m.owners) && m.owners[i] < owner {
			i++
		}
		if i == len(m.owners) || m.owners[i] != owner {
			return false
		}
	}
	return true
}

// nextPeriod returns the delay before the next round: the configured Period,
// or — hardened, while the view is not growing — a jittered exponential
// backoff capped at 8×Period. Growth snaps the cadence back to Period.
func (m *Module) nextPeriod(ctx rt.Context) rt.Time {
	if !m.cfg.Hardened {
		return m.cfg.Period
	}
	size := len(m.view.Known) + len(m.records)
	if size != m.lastSize {
		m.lastSize = size
		m.idleRounds = 0
	} else {
		m.idleRounds++
	}
	shift := m.idleRounds / 2
	if shift > 3 {
		shift = 3
	}
	if shift == 0 {
		return m.cfg.Period
	}
	p := m.cfg.Period << shift
	// Deterministic jitter from the engine RNG: up to p/4 early, so peers
	// that backed off in lockstep spread out again.
	return p - rt.Time(ctx.Rand().Int63n(int64(p/4)+1))
}

// Handle processes a discovery message; it reports whether the payload was a
// discovery message.
func (m *Module) Handle(ctx rt.Context, from model.ID, payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	switch payload[0] {
	case wire.KindGetPDs:
		m.sendRecords(ctx, from)
		return true
	case wire.KindSetPDs:
		m.receiveRecords(from, payload)
		return true
	default:
		return false
	}
}

// sendRecords answers a GETPDS request (line 3): send S_PD to the requester.
// The encoded payload is identical for every requester until a new record
// arrives, so it is built once and the one slice sent to all of them; being
// handed over, it is replaced then, never rebuilt in place.
func (m *Module) sendRecords(ctx rt.Context, to model.ID) { ctx.Send(to, m.reply()) }

// reply returns the SETPDS payload that answers a GETPDS: encoded, built
// from S_PD when a record arrived since it last was.
func (m *Module) reply() []byte {
	if m.encoded == nil {
		recs := make([]SignedPD, 0, len(m.owners))
		for _, owner := range m.owners {
			recs = append(recs, m.records[owner])
		}
		m.encoded = EncodeSetPDs(recs)
	}
	return m.encoded
}

// EncodeSetPDs builds a ⟨SETPDS, records⟩ payload. Exported so Byzantine
// behaviors can craft their own replies.
func EncodeSetPDs(recs []SignedPD) []byte {
	w := wire.NewWriter()
	w.Byte(wire.KindSetPDs)
	w.Uvarint(uint64(len(recs)))
	for _, rec := range recs {
		rec.marshal(w)
	}
	return w.Bytes()
}

// insertOwner adds a new record owner to the sorted owner list and drops the
// caches the record set invalidates.
func (m *Module) insertOwner(owner model.ID) {
	i := sort.Search(len(m.owners), func(i int) bool { return m.owners[i] >= owner })
	m.owners = append(m.owners, 0)
	copy(m.owners[i+1:], m.owners[i:])
	m.owners[i] = owner
	m.encoded = nil
}

// receiveRecords handles a SETPDS message (lines 4-6). Algorithm 1 has every
// process re-send its whole S_PD every period, so in steady state the payload
// is byte-for-byte the one this sender sent last round; such a replay returns
// after one comparison against the memo, any other payload is merged and then
// becomes the sender's memo entry.
//
// Skipping a replay is exact because merging a payload is idempotent. After
// mergeRecords has run over it once, every record in it is either held (and
// records are never dropped or replaced: a second pass skips it), or failed
// signature verification (deterministic against a fixed registry: it fails
// again), or lies behind a parse error or the record-count cap (both depend
// on the bytes alone, and the whole payload is discarded: nothing to merge
// the second time either). What other senders deliver in between can only
// turn an owner whose record here failed into one that is held — skipped
// either way. The comparison is on the full bytes — a digest is something a
// Byzantine sender could collide — against the delivered slice itself, kept
// without a copy: rt forbids writing to a payload once sent, so the entry
// still reads as it did when merged, and the same memory at the same length
// is equal bytes unread (the simulator's case: the sender's cached buffer
// again). Where the pointers differ, over netrt always, bytes.Equal decides.
func (m *Module) receiveRecords(from model.ID, payload []byte) {
	i, known := m.senders.Lookup(from)
	if known {
		if last := m.lastSetPDs[i]; len(last) == len(payload) && (&last[0] == &payload[0] || bytes.Equal(last, payload)) {
			return
		}
	}
	m.mergeRecords(payload)
	// Only senders in S_known get an entry: GETPDS goes to S_known alone, so
	// any other sender is unsolicited, and remembering those would let forged
	// sender IDs grow the memo without bound.
	if !known && m.view.Known.Has(from) {
		i, known = m.senders.Insert(from)
		m.lastSetPDs = append(m.lastSetPDs, nil)
	}
	if known {
		m.lastSetPDs[i] = payload
	}
}

// mergeRecords parses a SETPDS payload and merges what it carries. Records
// that fail signature verification are dropped; for equivocating owners the
// first verified record wins (correct processes only ever sign one). Records
// whose owner is already in S_PD are skipped in place, without materializing
// their set or signature. The fresh records are verified as one batch
// (cryptox.VerifyBatch) so the registry's memo is consulted once for the
// whole payload, then merged in payload order — verdicts and merge outcome
// are exactly those of verifying record by record.
func (m *Module) mergeRecords(payload []byte) {
	rd := wire.NewReader(payload[1:])
	n := rd.Uvarint()
	if rd.Err() != nil || n > 4096 {
		return
	}
	var fresh []SignedPD
	for i := uint64(0); i < n; i++ {
		owner := rd.ID()
		if rd.Err() != nil {
			return
		}
		if _, have := m.records[owner]; have {
			rd.SkipIDSet()
			rd.SkipBytesField()
			if rd.Err() != nil {
				return
			}
			continue
		}
		rec := SignedPD{Owner: owner, PD: rd.IDSet(), Sig: rd.BytesField()}
		if rd.Err() != nil {
			return
		}
		fresh = append(fresh, rec)
	}
	if len(fresh) == 0 {
		return
	}
	reqs := make([]cryptox.BatchRequest, len(fresh))
	for i, rec := range fresh {
		reqs[i] = cryptox.BatchRequest{Signer: rec.Owner, Msg: Canonical(rec.Owner, rec.PD), Sig: rec.Sig}
	}
	ok := cryptox.VerifyBatch(m.verifier, reqs)
	changed := false
	for i, rec := range fresh {
		if !ok[i] {
			continue
		}
		if _, have := m.records[rec.Owner]; have {
			continue // an earlier verified record in this payload already won
		}
		m.records[rec.Owner] = rec
		m.insertOwner(rec.Owner)
		m.view.SetPD(rec.Owner, rec.PD) // S_received gains rec.Owner
		changed = true
		if m.view.AddKnown(rec.Owner) {
			m.recipients = nil // Known includes every owner whose PD we hold.
		}
		for id := range rec.PD { // line 5: S_known ∪= PD contents
			if m.view.AddKnown(id) {
				m.recipients = nil
			}
		}
	}
	if changed && m.onUpdate != nil {
		m.onUpdate()
	}
}

// String summarizes the module state for debugging.
func (m *Module) String() string {
	return fmt.Sprintf("discovery{self=%v known=%v received=%d}", m.self, m.view.Known, len(m.records))
}
