package pbft

import (
	"math/rand"
	"testing"

	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/wire"
)

// recorder is an rt.Context that keeps what an instance sends, so a test can
// drive one Instance message by message without an engine.
type recorder struct {
	self model.ID
	sent [][]byte
}

func (r *recorder) ID() model.ID                    { return r.self }
func (r *recorder) Now() rt.Time                    { return 0 }
func (r *recorder) Send(_ model.ID, payload []byte) { r.sent = append(r.sent, payload) }
func (r *recorder) SetTimer(rt.Time, uint64)        {}
func (r *recorder) Rand() *rand.Rand                { return rand.New(rand.NewSource(1)) }

// fixture is a committee {1, 2, 3, 4} with quorum 3 and g = 1 whose member 3
// is driven directly: it leads neither view 0 (p1) nor view 1 (p2).
type fixture struct {
	signers map[model.ID]cryptox.Signer
	inst    *Instance
	ctx     *recorder
	decided []model.Value
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	ids := []model.ID{1, 2, 3, 4}
	signers, reg, err := cryptox.GenerateKeys(11, ids)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{signers: signers, ctx: &recorder{self: 3}}
	cfg := Config{Committee: model.NewIDSet(ids...), Quorum: 3, F: 1, BaseTimeout: rt.Second}
	fx.inst, err = New(signers[3], reg, cfg, model.Value("v3"), func(v model.Value) { fx.decided = append(fx.decided, v) })
	if err != nil {
		t.Fatal(err)
	}
	fx.inst.Start(fx.ctx)
	return fx
}

// sigs signs (dom, slot 0, view, value) by each of ids.
func (fx *fixture) sigs(dom byte, view uint64, value model.Value, ids ...model.ID) []sigEntry {
	out := make([]sigEntry, 0, len(ids))
	for _, id := range ids {
		out = append(out, sigEntry{ID: id, Sig: fx.signers[id].Sign(canon(dom, 0, view, DigestOf(value)))})
	}
	return out
}

// viewChange is a view change to newView by from, carrying prepared.
func (fx *fixture) viewChange(from model.ID, newView uint64, prepared *Cert) viewChangeMsg {
	return viewChangeMsg{NewView: newView, Prepared: prepared, Sig: fx.signers[from].Sign(vcCanon(0, newView, prepared))}
}

// newView is the view-1 leader's (p2's) installation of value over vcs.
func (fx *fixture) newView(value model.Value, vcs map[model.ID]viewChangeMsg) []byte {
	nv := &newViewMsg{View: 1, Value: value, Sig: fx.signers[2].Sign(canon(domNewView, 0, 1, DigestOf(value)))}
	for _, id := range []model.ID{1, 2, 3, 4} {
		if vc, ok := vcs[id]; ok {
			nv.VCFrom = append(nv.VCFrom, id)
			nv.VCs = append(nv.VCs, vc)
		}
	}
	return nv.encode()
}

// installed reports whether the instance installed view 1 with value: it
// moved to view 1 and broadcast a prepare for it.
func (fx *fixture) installed(value model.Value) bool {
	for _, p := range fx.ctx.sent {
		if m, ok := decodeVote(p); ok && m.Kind == wire.KindPrepare && m.View == 1 {
			return fx.inst.view == 1 && m.Digest == DigestOf(value)
		}
	}
	return false
}

// A DECIDE-NOTE decides only on a quorum of commit signatures over its own
// view and value.
func TestDecideNoteChecksCert(t *testing.T) {
	x := model.Value("x")
	for _, c := range []struct {
		label  string
		sigs   func(fx *fixture) []sigEntry
		decide bool
	}{
		{"the sender's signature only", func(fx *fixture) []sigEntry { return fx.sigs(domCommit, 0, x, 1) }, false},
		{"commit signatures from another view", func(fx *fixture) []sigEntry { return fx.sigs(domCommit, 1, x, 1, 2, 4) }, false},
		{"prepare signatures", func(fx *fixture) []sigEntry { return fx.sigs(domPrepare, 0, x, 1, 2, 4) }, false},
		{"a quorum of commit signatures", func(fx *fixture) []sigEntry { return fx.sigs(domCommit, 0, x, 1, 2, 4) }, true},
	} {
		t.Run(c.label, func(t *testing.T) {
			fx := newFixture(t)
			note := &decideNoteMsg{Cert: Cert{View: 0, Value: x, Sigs: c.sigs(fx)}}
			fx.inst.Handle(fx.ctx, 1, note.encode())
			if got := len(fx.decided) == 1; got != c.decide {
				t.Fatalf("decided %q, want a decision %v", fx.decided, c.decide)
			}
			if c.decide && !fx.decided[0].Equal(x) {
				t.Fatalf("decided %q, want %q", fx.decided[0], x)
			}
		})
	}
}

// A NEW-VIEW installs its view only when it bundles a quorum of view changes
// from distinct members.
func TestNewViewNeedsQuorumViewChanges(t *testing.T) {
	for _, c := range []struct {
		label   string
		senders []model.ID
		install bool
	}{
		{"quorum − 1 view changes", []model.ID{1, 2}, false},
		{"a quorum of view changes", []model.ID{1, 2, 4}, true},
	} {
		t.Run(c.label, func(t *testing.T) {
			fx := newFixture(t)
			vcs := map[model.ID]viewChangeMsg{}
			for _, id := range c.senders {
				vcs[id] = fx.viewChange(id, 1, nil)
			}
			fx.inst.Handle(fx.ctx, 2, fx.newView(model.Value("n"), vcs))
			if got := fx.installed(model.Value("n")); got != c.install {
				t.Fatalf("installed = %v (view %d), want %v", got, fx.inst.view, c.install)
			}
		})
	}
}

// A NEW-VIEW is refused when a prepared certificate in its bundle does not
// verify, and when its value is not the highest prepared one.
func TestNewViewChecksBundledCerts(t *testing.T) {
	p := model.Value("p")
	for _, c := range []struct {
		label   string
		forge   bool
		value   model.Value
		install bool
	}{
		{"a forged prepare signature", true, p, false},
		{"a value other than the highest prepared", false, model.Value("q"), false},
		{"the highest prepared value under genuine signatures", false, p, true},
	} {
		t.Run(c.label, func(t *testing.T) {
			fx := newFixture(t)
			cert := &Cert{View: 0, Value: p, Sigs: fx.sigs(domPrepare, 0, p, 1, 2, 4)}
			if c.forge {
				// p1 signs in p4's name.
				cert.Sigs[2].Sig = fx.signers[1].Sign(canon(domPrepare, 0, 0, DigestOf(p)))
			}
			vcs := map[model.ID]viewChangeMsg{
				1: fx.viewChange(1, 1, cert),
				2: fx.viewChange(2, 1, nil),
				4: fx.viewChange(4, 1, nil),
			}
			fx.inst.Handle(fx.ctx, 2, fx.newView(c.value, vcs))
			if got := fx.installed(c.value); got != c.install {
				t.Fatalf("installed = %v (view %d), want %v", got, fx.inst.view, c.install)
			}
		})
	}
}
