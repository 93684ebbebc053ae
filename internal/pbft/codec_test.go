package pbft

import (
	"bytes"
	"encoding/hex"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/wire"
)

// message is any PBFT wire message.
type message interface{ encode() []byte }

// decode decodes a PBFT payload by its kind byte (b is never empty).
func decode(b []byte) (message, bool) {
	switch b[0] {
	case wire.KindPrePrepare:
		return decodePrePrepare(b)
	case wire.KindPrepare, wire.KindCommit:
		return decodeVote(b)
	case wire.KindViewChange:
		return decodeViewChange(b)
	case wire.KindNewView:
		return decodeNewView(b)
	case wire.KindDecideNote:
		return decodeDecideNote(b)
	}
	return nil, false
}

// A golden is a message with the encoding the protocol has always put on
// the wire.
type golden struct {
	name string
	msg  message
	hex  string
}

// goldenMessages are one message of each shape.
func goldenMessages() []golden {
	cert := &Cert{View: 2, Value: model.Value("prep"), Sigs: []sigEntry{{ID: 1, Sig: []byte("s1")}, {ID: 4, Sig: []byte("s4")}}}
	vc := viewChangeMsg{Slot: 7, NewView: 3, Prepared: cert, Sig: []byte("vc")}
	bare := viewChangeMsg{Slot: 7, NewView: 3, Sig: []byte("vb")}
	var d Digest
	for i := range d {
		d[i] = byte(i)
	}
	return []golden{
		{"pre-prepare", &prePrepareMsg{Slot: 7, View: 2, Value: model.Value("val"), Sig: []byte("pp")},
			"0307020376616c027070"},
		{"prepare", &voteMsg{Kind: wire.KindPrepare, Slot: 7, View: 2, Digest: d, Sig: []byte("pr")},
			"04070220000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f027072"},
		{"commit", &voteMsg{Kind: wire.KindCommit, Slot: 300, View: 2, Digest: d, Sig: []byte("cm")},
			"05ac020220000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f02636d"},
		{"view change with a prepared certificate", &vc,
			"06070301020470726570020102733104027334027663"},
		{"view change without one", &bare,
			"06070300027662"},
		{"new view", &newViewMsg{Slot: 7, View: 3, VCs: []viewChangeMsg{vc, bare}, VCFrom: []model.ID{1, 2}, Value: model.Value("prep"), Sig: []byte("nv")},
			"070703020116060703010204707265700201027331040273340276630207060703000276620470726570026e76"},
		{"decide note", &decideNoteMsg{Slot: 7, Cert: Cert{View: 3, Value: model.Value("dec"), Sigs: []sigEntry{{ID: 2, Sig: []byte("c2")}, {ID: 3, Sig: []byte("c3")}, {ID: 4, Sig: []byte("c4")}}}},
			"0807030364656303020263320302633304026334"},
	}
}

// TestWireGolden pins every message's encoding, and decodes each golden back
// to the same bytes.
func TestWireGolden(t *testing.T) {
	for _, g := range goldenMessages() {
		t.Run(g.name, func(t *testing.T) {
			got := g.msg.encode()
			if hex.EncodeToString(got) != g.hex {
				t.Fatalf("encoding\n  got  %x\n  want %s", got, g.hex)
			}
			m, ok := decode(got)
			if !ok {
				t.Fatal("the golden does not decode")
			}
			if again := m.encode(); !bytes.Equal(again, got) {
				t.Fatalf("decode∘encode\n  got  %x\n  want %x", again, got)
			}
		})
	}
}

// FuzzPBFTDecode feeds arbitrary bytes, behind each PBFT kind byte, to the
// decoders: no input panics, and a decoded message re-encodes to bytes that
// decode and encode to themselves.
func FuzzPBFTDecode(f *testing.F) {
	for _, g := range goldenMessages() {
		b := g.msg.encode()
		f.Add(b[1:])
		f.Add(b[1 : len(b)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{7, 3, 1, 2, 4, 'p', 'r', 'e', 'p', 0x90, 0x4e}) // a signature count above the cap
	f.Fuzz(func(t *testing.T, data []byte) {
		PeekSlot(data)
		for _, k := range []byte{wire.KindPrePrepare, wire.KindPrepare, wire.KindCommit, wire.KindViewChange, wire.KindNewView, wire.KindDecideNote} {
			m, ok := decode(append([]byte{k}, data...))
			if !ok {
				continue
			}
			once := m.encode()
			m2, ok := decode(once)
			if !ok {
				t.Fatalf("kind %d: the re-encoding %x does not decode", k, once)
			}
			if twice := m2.encode(); !bytes.Equal(once, twice) {
				t.Fatalf("kind %d: encodings differ\n  once  %x\n  twice %x", k, once, twice)
			}
		}
	})
}

// TestDecodeRefusesSignatureCountOverCap: a certificate whose signature count
// is above the 4,096 cap fails the message that carries it, also when the
// bytes after the count are what the message expects next.
func TestDecodeRefusesSignatureCountOverCap(t *testing.T) {
	over := []byte{0x88, 0x27} // uvarint 5,000
	for _, c := range []struct {
		name string
		b    []byte
	}{
		{"decide note ending after the count", append([]byte{wire.KindDecideNote, 7, 3, 3, 'd', 'e', 'c'}, over...)},
		{"view change with its signature after the count", append(append([]byte{wire.KindViewChange, 7, 3, 1, 2, 4, 'p', 'r', 'e', 'p'}, over...), 2, 'v', 'c')},
	} {
		t.Run(c.name, func(t *testing.T) {
			if m, ok := decode(c.b); ok {
				t.Fatalf("%x decodes as %+v", c.b, m)
			}
		})
	}
}
