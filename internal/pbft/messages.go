package pbft

import (
	"crypto/sha256"

	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/wire"
)

// Digest is the SHA-256 digest of a proposal value.
type Digest [32]byte

// DigestOf hashes a value.
func DigestOf(v model.Value) Digest { return sha256.Sum256(v) }

// Signing domains (domain separation inside the 'B' namespace).
const (
	domPrePrepare byte = 1
	domPrepare    byte = 2
	domCommit     byte = 3
	domViewChange byte = 4
	domNewView    byte = 5
)

func canon(dom byte, slot, view uint64, d Digest) []byte {
	w := wire.NewWriter()
	w.Byte('B')
	w.Byte(dom)
	w.Uvarint(slot)
	w.Uvarint(view)
	w.BytesField(d[:])
	return w.Bytes()
}

// sigEntry is one (signer, signature) pair inside a certificate.
type sigEntry struct {
	ID  model.ID
	Sig []byte
}

// Cert proves that a quorum signed Value at View: ≥ Q signatures from
// distinct committee members over canon(dom, slot, View, digest). Its signing
// domain tells the two kinds apart. Under domPrepare it is a prepared
// certificate, which a view change carries forward so that no decided value
// is lost. Under domCommit it proves a decision, which a DecideNote
// broadcasts so that laggards decide without re-running the protocol.
type Cert struct {
	// View is the view the value prepared or committed in.
	View  uint64
	Value model.Value
	// Sigs holds the quorum's signatures, one per signer.
	Sigs []sigEntry
}

// valid checks the certificate under signing domain dom against the
// instance's committee and quorum.
func (c *Cert) valid(dom byte, cfg *Config, v cryptox.Verifier) bool {
	if c == nil || len(c.Sigs) < cfg.Quorum {
		return false
	}
	return validSigs(c.Sigs, canon(dom, cfg.Slot, c.View, DigestOf(c.Value)), cfg.Committee, v)
}

// validSigs checks a certificate's signature set: every signer is a distinct
// committee member and every signature verifies. The whole set goes through
// one cryptox.VerifyBatch call, so the registry memo is consulted once per
// certificate instead of once per signature — the verdict is the conjunction
// per-signature Verify would compute.
func validSigs(sigs []sigEntry, msg []byte, committee model.IDSet, v cryptox.Verifier) bool {
	seen := model.NewIDSet()
	reqs := make([]cryptox.BatchRequest, len(sigs))
	for i, s := range sigs {
		if !committee.Has(s.ID) || !seen.Add(s.ID) {
			return false
		}
		reqs[i] = cryptox.BatchRequest{Signer: s.ID, Msg: msg, Sig: s.Sig}
	}
	for _, ok := range cryptox.VerifyBatch(v, reqs) {
		if !ok {
			return false
		}
	}
	return true
}

func (c *Cert) marshal(w *wire.Writer) {
	w.Uvarint(c.View)
	w.BytesField(c.Value)
	w.Uvarint(uint64(len(c.Sigs)))
	for _, s := range c.Sigs {
		w.ID(s.ID)
		w.BytesField(s.Sig)
	}
}

// unmarshalCert reads a certificate; ok is false when its signature count is
// above the cap, which fails the message that carries it.
func unmarshalCert(r *wire.Reader) (c Cert, ok bool) {
	c = Cert{View: r.Uvarint(), Value: r.BytesField()}
	n := r.Uvarint()
	if r.Err() != nil || n > 4096 {
		return c, false
	}
	c.Sigs = make([]sigEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		c.Sigs = append(c.Sigs, sigEntry{ID: r.ID(), Sig: r.BytesField()})
	}
	return c, true
}

// marshalPrepared writes a view change's optional prepared certificate: a
// presence flag, then the certificate.
func marshalPrepared(w *wire.Writer, c *Cert) {
	w.Bool(c != nil)
	if c != nil {
		c.marshal(w)
	}
}

// --- wire formats -----------------------------------------------------------

// prePrepareMsg: leader's proposal for a view.
type prePrepareMsg struct {
	Slot  uint64
	View  uint64
	Value model.Value
	Sig   []byte // leader's signature over canon(domPrePrepare, slot, view, digest)
}

func (m *prePrepareMsg) encode() []byte {
	w := wire.NewWriter()
	w.Byte(wire.KindPrePrepare)
	w.Uvarint(m.Slot)
	w.Uvarint(m.View)
	w.BytesField(m.Value)
	w.BytesField(m.Sig)
	return w.Bytes()
}

func decodePrePrepare(b []byte) (*prePrepareMsg, bool) {
	r := wire.NewReader(b[1:])
	m := &prePrepareMsg{Slot: r.Uvarint(), View: r.Uvarint(), Value: r.BytesField(), Sig: r.BytesField()}
	return m, r.Done() == nil
}

// voteMsg covers Prepare and Commit (same shape, different kind/domain).
type voteMsg struct {
	Kind   byte // wire.KindPrepare or wire.KindCommit
	Slot   uint64
	View   uint64
	Digest Digest
	Sig    []byte
}

func (m *voteMsg) encode() []byte {
	w := wire.NewWriter()
	w.Byte(m.Kind)
	w.Uvarint(m.Slot)
	w.Uvarint(m.View)
	w.BytesField(m.Digest[:])
	w.BytesField(m.Sig)
	return w.Bytes()
}

func decodeVote(b []byte) (*voteMsg, bool) {
	r := wire.NewReader(b[1:])
	m := &voteMsg{Kind: b[0], Slot: r.Uvarint(), View: r.Uvarint()}
	d := r.BytesField()
	if len(d) != len(m.Digest) {
		return nil, false
	}
	copy(m.Digest[:], d)
	m.Sig = r.BytesField()
	return m, r.Done() == nil
}

// viewChangeMsg asks to move to NewView, carrying the sender's highest
// prepared certificate (nil if it never prepared).
type viewChangeMsg struct {
	Slot     uint64
	NewView  uint64
	Prepared *Cert
	Sig      []byte
}

func vcCanon(slot, newView uint64, prepared *Cert) []byte {
	w := wire.NewWriter()
	w.Byte('B')
	w.Byte(domViewChange)
	w.Uvarint(slot)
	w.Uvarint(newView)
	marshalPrepared(w, prepared)
	return w.Bytes()
}

func (m *viewChangeMsg) encode() []byte {
	w := wire.NewWriter()
	w.Byte(wire.KindViewChange)
	w.Uvarint(m.Slot)
	w.Uvarint(m.NewView)
	marshalPrepared(w, m.Prepared)
	w.BytesField(m.Sig)
	return w.Bytes()
}

func decodeViewChange(b []byte) (*viewChangeMsg, bool) {
	r := wire.NewReader(b[1:])
	m := &viewChangeMsg{Slot: r.Uvarint(), NewView: r.Uvarint()}
	if r.Bool() {
		c, ok := unmarshalCert(r)
		if !ok {
			return nil, false
		}
		m.Prepared = &c
	}
	m.Sig = r.BytesField()
	return m, r.Done() == nil
}

// newViewMsg is the new leader's view installation: Q view changes plus the
// value it (re-)proposes.
type newViewMsg struct {
	Slot   uint64
	View   uint64
	VCs    []viewChangeMsg
	VCFrom []model.ID
	Value  model.Value
	Sig    []byte // leader's signature over canon(domNewView, slot, view, digest)
}

func (m *newViewMsg) encode() []byte {
	w := wire.NewWriter()
	w.Byte(wire.KindNewView)
	w.Uvarint(m.Slot)
	w.Uvarint(m.View)
	w.Uvarint(uint64(len(m.VCs)))
	for i := range m.VCs {
		w.ID(m.VCFrom[i])
		inner := m.VCs[i].encode()
		w.BytesField(inner)
	}
	w.BytesField(m.Value)
	w.BytesField(m.Sig)
	return w.Bytes()
}

func decodeNewView(b []byte) (*newViewMsg, bool) {
	r := wire.NewReader(b[1:])
	m := &newViewMsg{Slot: r.Uvarint(), View: r.Uvarint()}
	n := r.Uvarint()
	if r.Err() != nil || n > 4096 {
		return nil, false
	}
	for i := uint64(0); i < n; i++ {
		m.VCFrom = append(m.VCFrom, r.ID())
		inner := r.BytesField()
		if r.Err() != nil || len(inner) == 0 || inner[0] != wire.KindViewChange {
			return nil, false
		}
		vc, ok := decodeViewChange(inner)
		if !ok {
			return nil, false
		}
		m.VCs = append(m.VCs, *vc)
	}
	m.Value = r.BytesField()
	m.Sig = r.BytesField()
	return m, r.Done() == nil
}

// decideNoteMsg carries a commit certificate so that any member can adopt the
// decision directly.
type decideNoteMsg struct {
	Slot uint64
	Cert Cert
}

func (m *decideNoteMsg) encode() []byte {
	w := wire.NewWriter()
	w.Byte(wire.KindDecideNote)
	w.Uvarint(m.Slot)
	m.Cert.marshal(w)
	return w.Bytes()
}

func decodeDecideNote(b []byte) (*decideNoteMsg, bool) {
	r := wire.NewReader(b[1:])
	slot := r.Uvarint()
	c, ok := unmarshalCert(r)
	return &decideNoteMsg{Slot: slot, Cert: c}, ok && r.Done() == nil
}

// isPBFT reports whether a wire kind is one of PBFT's six.
func isPBFT(kind byte) bool {
	switch kind {
	case wire.KindPrePrepare, wire.KindPrepare, wire.KindCommit,
		wire.KindViewChange, wire.KindNewView, wire.KindDecideNote:
		return true
	}
	return false
}

// PeekSlot extracts the slot from any PBFT payload so a multi-slot node can
// route it; ok is false for non-PBFT payloads.
func PeekSlot(payload []byte) (uint64, bool) {
	if len(payload) < 2 || !isPBFT(payload[0]) {
		return 0, false
	}
	r := wire.NewReader(payload[1:])
	s := r.Uvarint()
	return s, r.Err() == nil
}
