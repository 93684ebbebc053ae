package discovery

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/sim"
	"github.com/bftcup/bftcup/internal/wire"
)

// discNode is a reactor running only discovery.
type discNode struct {
	mod *Module
}

func (n *discNode) Init(ctx rt.Context) { n.mod.Start(ctx) }
func (n *discNode) Receive(ctx rt.Context, from model.ID, payload []byte) {
	n.mod.Handle(ctx, from, payload)
}
func (n *discNode) Timer(ctx rt.Context, tag uint64) { n.mod.HandleTimer(ctx, tag) }

func buildNetwork(t *testing.T, g *graph.Digraph, netmod sim.NetworkModel, silent model.IDSet) (map[model.ID]*discNode, *sim.Engine) {
	t.Helper()
	ids := g.Nodes()
	signers, reg, err := cryptox.GenerateKeys(1, ids)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(netmod, 42)
	nodes := make(map[model.ID]*discNode, len(ids))
	for _, id := range ids {
		if silent.Has(id) {
			engine.Crash(id)
		}
		rec := NewSignedPD(signers[id], g.OutSet(id).Clone())
		n := &discNode{mod: New(rec, reg, DefaultConfig(), nil)}
		nodes[id] = n
		if err := engine.AddProcess(id, n); err != nil {
			t.Fatal(err)
		}
	}
	return nodes, engine
}

// Theorem 2 on Fig 1b: every correct process eventually discovers all correct
// sink members and receives their PDs.
func TestTheorem2Fig1b(t *testing.T) {
	fig := graph.Fig1b()
	nodes, engine := buildNetwork(t, fig.G, sim.Synchronous{Delta: 5 * sim.Millisecond}, fig.Byz)
	engine.Run(2 * sim.Second)
	for id, n := range nodes {
		if fig.Byz.Has(id) {
			continue
		}
		v := n.mod.View()
		for _, s := range fig.ExpectedSink.Sorted() {
			if !v.Known.Has(s) {
				t.Fatalf("%v never discovered sink member %v", id, s)
			}
			if _, ok := v.PD[s]; !ok {
				t.Fatalf("%v never received PD of sink member %v", id, s)
			}
		}
	}
}

// On Fig 1a with Byzantine 4 silent, the two knowledge islands can never
// learn of each other (the caption's impossibility narrative).
func TestFig1aIslandsStayIsolated(t *testing.T) {
	fig := graph.Fig1a()
	nodes, engine := buildNetwork(t, fig.G, sim.Synchronous{Delta: 5 * sim.Millisecond}, fig.Byz)
	engine.Run(2 * sim.Second)
	left := model.NewIDSet(1, 2, 3)
	right := model.NewIDSet(5, 6, 7, 8)
	for id := range left {
		v := nodes[id].mod.View()
		if inter := v.Known.Intersect(right); inter.Len() != 0 {
			t.Fatalf("%v learned about %v across the silent bridge", id, inter)
		}
	}
	for id := range right {
		v := nodes[id].mod.View()
		if inter := v.Known.Intersect(left); inter.Len() != 0 {
			t.Fatalf("%v learned about %v across the silent bridge", id, inter)
		}
	}
}

// Forged records must be dropped: a Byzantine process cannot fabricate the PD
// of a correct process.
func TestForgedRecordRejected(t *testing.T) {
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewSignedPD(signers[1], model.NewIDSet(2))
	mod := New(rec, reg, DefaultConfig(), nil)

	// A validly signed record from 3 relayed by anyone is accepted.
	good := NewSignedPD(signers[3], model.NewIDSet(1))
	// A forged record claiming to be from 2 but signed by 3's key is not.
	forged := SignedPD{Owner: 2, PD: model.NewIDSet(1), Sig: signers[3].Sign(Canonical(2, model.NewIDSet(1)))}
	// A tampered record (PD altered after signing) is not.
	tampered := NewSignedPD(signers[3], model.NewIDSet(1))
	tampered.PD = model.NewIDSet(1, 2)

	w := wire.NewWriter()
	w.Byte(wire.KindSetPDs)
	w.Uvarint(3)
	good.marshal(w)
	forged.marshal(w)
	tampered.marshal(w)
	// Twice from one sender (the second is a memo replay), then from another:
	// a rejected record stays rejected however often the payload comes back.
	for _, from := range []model.ID{2, 2, 3} {
		mod.receiveRecords(from, w.Bytes())
	}

	v := mod.View()
	if _, ok := v.PD[3]; !ok {
		t.Fatal("valid record rejected")
	}
	if _, ok := v.PD[2]; ok {
		t.Fatal("forged record accepted")
	}
	if got := v.PD[3]; !got.Equal(model.NewIDSet(1)) {
		t.Fatalf("record content wrong: %v", got)
	}
}

// TestTamperedRecordCostsOneCurveOp pins that signature seeding has not
// weakened the receipt check. The records of a SETPDS were all signed by the
// keyring whose registry the receiver verifies with, so their verdicts are
// seeded; one of them has a bit of its signature flipped on the way. That
// record is dropped, the others are kept, and the registry pays exactly one
// Ed25519 verification for it — on first receipt, after the same payload is
// replayed by its sender (the replay memo's drop), and after a third process
// relays an equal copy, which is walked and verified again (so it is the
// verifier, not the replay memo, that keeps the record out).
func TestTamperedRecordCostsOneCurveOp(t *testing.T) {
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	mod := New(NewSignedPD(signers[1], model.NewIDSet(2, 3)), reg, DefaultConfig(), nil)
	recs := []SignedPD{
		NewSignedPD(signers[2], model.NewIDSet(1, 3)),
		NewSignedPD(signers[3], model.NewIDSet(4)),
		NewSignedPD(signers[4], model.NewIDSet(5)),
		NewSignedPD(signers[5], model.NewIDSet(1)),
	}
	recs[2].Sig[17] ^= 0x10
	payload := EncodeSetPDs(recs)

	check := func(when string) {
		t.Helper()
		v := mod.View()
		for _, owner := range []model.ID{2, 3, 5} {
			if _, ok := v.PD[owner]; !ok {
				t.Fatalf("%s: intact record of %v dropped", when, owner)
			}
		}
		if _, ok := v.PD[4]; ok {
			t.Fatalf("%s: record with a flipped signature bit accepted", when)
		}
		if got := reg.Stats().CurveOps; got != 1 {
			t.Fatalf("%s: %d curve ops, want exactly 1 (the tampered record)", when, got)
		}
	}
	mod.receiveRecords(2, payload)
	check("first receipt")
	if st := reg.Stats(); st.Asked != 4 || st.MemoHits != 3 {
		t.Fatalf("first receipt: %+v, want 4 asked, 3 answered by their seeds", st)
	}
	mod.receiveRecords(2, payload)
	check("sender's replay")
	if got := reg.Stats().Asked; got != 4 {
		t.Fatalf("replay from the same sender was walked again: %d questions", got)
	}
	mod.receiveRecords(3, bytes.Clone(payload))
	check("relayed copy")
	if st := reg.Stats(); st.Asked != 5 || st.MemoHits != 4 {
		t.Fatalf("relayed copy: %+v, want the tampered record asked again and refused from the memo", st)
	}
}

// First verified record wins for an equivocating owner.
func TestEquivocationKeepsFirst(t *testing.T) {
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	mod := New(NewSignedPD(signers[1], model.NewIDSet(2)), reg, DefaultConfig(), nil)
	recA := NewSignedPD(signers[2], model.NewIDSet(1))
	recB := NewSignedPD(signers[2], model.NewIDSet())
	for _, rec := range []SignedPD{recA, recB} {
		w := wire.NewWriter()
		w.Byte(wire.KindSetPDs)
		w.Uvarint(1)
		rec.marshal(w)
		// Twice from the equivocator (the second is a memo replay), then
		// relayed by another sender.
		for _, from := range []model.ID{2, 2, 1} {
			mod.receiveRecords(from, w.Bytes())
		}
	}
	if got := mod.View().PD[2]; !got.Equal(model.NewIDSet(1)) {
		t.Fatalf("expected first record to win, got %v", got)
	}
}

func TestOnUpdateFires(t *testing.T) {
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	updates := 0
	mod := New(NewSignedPD(signers[1], model.NewIDSet(2)), reg, DefaultConfig(), func() { updates++ })
	w := wire.NewWriter()
	w.Byte(wire.KindSetPDs)
	w.Uvarint(1)
	NewSignedPD(signers[2], model.NewIDSet(1)).marshal(w)
	mod.receiveRecords(2, w.Bytes())
	if updates != 1 {
		t.Fatalf("updates = %d, want 1", updates)
	}
	// Re-delivery of the same record is a no-op.
	mod.receiveRecords(2, w.Bytes())
	if updates != 1 {
		t.Fatalf("duplicate delivery fired onUpdate")
	}
}

func TestMalformedPayloadIgnored(t *testing.T) {
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1})
	if err != nil {
		t.Fatal(err)
	}
	mod := New(NewSignedPD(signers[1], model.NewIDSet()), reg, DefaultConfig(), nil)
	for _, payload := range [][]byte{
		{wire.KindSetPDs, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		{wire.KindSetPDs},
	} {
		// Twice from one sender (the second is a memo replay), then from
		// another.
		for _, from := range []model.ID{1, 1, 9} {
			mod.receiveRecords(from, payload)
		}
	}
	if len(mod.View().PD) != 1 {
		t.Fatal("malformed payload changed state")
	}
}

// TestRecordsReturnsCopy is the regression test for the internal-map leak,
// on the one record accessor: AppendOtherRecords appends after what buf
// holds, in ascending owner order and without the module's own record, and
// the caller owns what it gets back — overwriting the returned entries
// cannot corrupt the module's verified-record store.
func TestRecordsReturnsCopy(t *testing.T) {
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	mod := New(NewSignedPD(signers[1], model.NewIDSet(2)), reg, DefaultConfig(), nil)
	w := wire.NewWriter()
	w.Byte(wire.KindSetPDs)
	w.Uvarint(2)
	NewSignedPD(signers[3], model.NewIDSet(1)).marshal(w)
	NewSignedPD(signers[2], model.NewIDSet(1)).marshal(w)
	mod.receiveRecords(9, w.Bytes())

	got := mod.AppendOtherRecords([]SignedPD{{Owner: 7}})
	var owners []model.ID
	for _, rec := range got {
		owners = append(owners, rec.Owner)
	}
	if !slices.Equal(owners, []model.ID{7, 2, 3}) {
		t.Fatalf("AppendOtherRecords = owners %v, want the caller's p7, then p2, p3", owners)
	}
	got[1] = SignedPD{Owner: 1}
	if again := mod.AppendOtherRecords(nil); len(again) != 2 || again[0].Owner != 2 || len(again[0].Sig) == 0 {
		t.Fatal("overwriting the returned records corrupted module state")
	}
	if pd := mod.View().PD[2]; !pd.Equal(model.NewIDSet(1)) {
		t.Fatalf("view PD(2) = %v after the overwrite, want {1}", pd)
	}
}

// memoEntry returns the replay-memo entry the module holds for a sender, nil
// if it has none.
func memoEntry(m *Module, from model.ID) []byte {
	if i, ok := m.senders.Lookup(from); ok {
		return m.lastSetPDs[i]
	}
	return nil
}

// TestReplayMemoDifferential is the exactness test for the replay memo:
// seeded random sequences of SETPDS payloads go to three modules. One has its
// memo cleared before every message and so always parses — the oracle. One
// gets every payload as delivered by the simulator (a replay is the identical
// slice again, taking the pointer test), one as delivered by netrt (every
// payload a fresh copy, so every hit is a bytes.Equal). They must
// agree on everything observable after every message. The sequences mix
// what the memo must see through: byte-identical replays, grown sets, partial
// sets, truncations, oversized counts, equivocating owners, and — the
// case that defeats a memo keyed on anything weaker than the exact bytes — a
// forged record swapped for the valid one of the same owner, PD and length.
func TestReplayMemoDifferential(t *testing.T) {
	ids := []model.ID{1, 2, 3, 4, 5, 6, 7, 8, 9}
	signers, reg, err := cryptox.GenerateKeys(1, ids)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	owners := ids[1:]
	// Per owner: the record it signed, a second one it also signed
	// (equivocation), and a forgery of the first with another key's signature
	// — same owner, same PD, same encoded length.
	valid := make(map[model.ID]SignedPD)
	equiv := make(map[model.ID]SignedPD)
	forged := make(map[model.ID]SignedPD)
	for i, o := range owners {
		pd := model.NewIDSet(owners[(i+1)%len(owners)], owners[(i+3)%len(owners)])
		valid[o] = NewSignedPD(signers[o], pd)
		equiv[o] = NewSignedPD(signers[o], model.NewIDSet(owners[(i+2)%len(owners)]))
		other := signers[owners[(i+1)%len(owners)]]
		forged[o] = SignedPD{Owner: o, PD: pd.Clone(), Sig: other.Sign(Canonical(o, pd))}
	}
	// An owner the registry has never heard of.
	stranger := SignedPD{Owner: 42, PD: model.NewIDSet(1), Sig: signers[2].Sign(Canonical(42, model.NewIDSet(1)))}

	// Forgeries drawn twice as often: an owner stays missing for longer, and
	// only a missing owner's record can tell the two modules apart.
	variants := []map[model.ID]SignedPD{forged, valid, forged, equiv}

	type probe struct {
		mod     *Module
		updates int
	}
	newProbe := func() *probe {
		p := &probe{}
		p.mod = New(NewSignedPD(signers[1], model.NewIDSet(2, 3)), reg, DefaultConfig(), func() { p.updates++ })
		return p
	}

	// Many short trials rather than one long one: the two modules can only
	// part ways while some owner's record is still missing, which is the
	// first few dozen messages of a trial.
	const trials, steps = 200, 40
	senders := []model.ID{2, 3, 77} // 77 is never in S_known: no memo entry
	hits, merged := 0, 0
	for trial := 0; trial < trials; trial++ {
		memo, copied, plain := newProbe(), newProbe(), newProbe()
		// Each sender keeps the record list behind its last payload, so the
		// next one can be that list replayed, grown or altered in place.
		lists := make(map[model.ID][]SignedPD)
		last := make(map[model.ID][]byte)
		for step := 0; step < steps; step++ {
			from := senders[step%2]
			if rng.Intn(10) == 0 {
				from = senders[2]
			}
			list := append([]SignedPD(nil), lists[from]...)
			var payload []byte
			switch op := rng.Intn(20); {
			case op < 5 && last[from] != nil: // replay, byte for byte
				payload = last[from]
			case op < 9: // grow by one record
				rec := variants[rng.Intn(len(variants))][owners[rng.Intn(len(owners))]]
				if rng.Intn(12) == 0 {
					rec = stranger
				}
				list = append(list, rec)
			case op < 14 && len(list) > 0: // swap one record for its same-owner twin
				i := rng.Intn(len(list))
				if o := list[i].Owner; o != stranger.Owner {
					list[i] = variants[rng.Intn(len(variants))][o]
				}
			case op < 16 && len(list) > 1: // a partial set: a few of the records
				rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
				list = list[:1+rng.Intn(len(list)-1)]
			case op < 17 && len(list) > 0: // truncated in transit
				full := EncodeSetPDs(list)
				payload = full[:1+rng.Intn(len(full)-1)]
			case op < 18: // a count over the cap, in front of real records
				w := wire.NewWriter()
				w.Byte(wire.KindSetPDs)
				w.Uvarint(4097 + uint64(rng.Intn(100)))
				for _, rec := range list {
					rec.marshal(w)
				}
				payload = w.Bytes()
			default: // start over with one record
				list = []SignedPD{variants[rng.Intn(len(variants))][owners[rng.Intn(len(owners))]]}
			}
			if payload == nil {
				payload = EncodeSetPDs(list)
			}
			lists[from], last[from] = list, payload

			if bytes.Equal(memoEntry(memo.mod, from), payload) {
				hits++
			}
			clear(plain.mod.lastSetPDs)
			// SETPDS handling never touches the context.
			if !memo.mod.Handle(nil, from, payload) || !copied.mod.Handle(nil, from, bytes.Clone(payload)) ||
				!plain.mod.Handle(nil, from, payload) {
				t.Fatalf("trial %d step %d: SETPDS not recognized", trial, step)
			}
			for _, arm := range []struct {
				name string
				*probe
			}{{"the identical slice re-delivered", memo}, {"fresh copies delivered", copied}} {
				at := fmt.Sprintf("trial %d step %d (from %v), %s", trial, step, from, arm.name)
				if !reflect.DeepEqual(arm.mod.AppendOtherRecords(nil), plain.mod.AppendOtherRecords(nil)) {
					t.Fatalf("%s: records diverge: owners %v with the memo, %v without", at, arm.mod.owners, plain.mod.owners)
				}
				if a, b := arm.mod.View().Rev(), plain.mod.View().Rev(); a != b {
					t.Fatalf("%s: view revision %d with the memo, %d without", at, a, b)
				}
				if a, b := arm.mod.View().Known, plain.mod.View().Known; !a.Equal(b) {
					t.Fatalf("%s: S_known %v with the memo, %v without", at, a, b)
				}
				if arm.updates != plain.updates {
					t.Fatalf("%s: %d onUpdate calls with the memo, %d without", at, arm.updates, plain.updates)
				}
				if !bytes.Equal(memoEntry(arm.mod, from), memoEntry(memo.mod, from)) {
					t.Fatalf("%s: memo entry differs from the other arm's", at)
				}
			}
		}
		merged += len(plain.mod.AppendOtherRecords(nil))
		if _, kept := memo.mod.senders.Lookup(77); kept {
			t.Fatal("memo kept a payload from a sender outside S_known")
		}
	}
	// The sequences must have exercised both sides of the memo.
	if hits < trials*steps/10 || merged < trials*len(owners)/2 {
		t.Fatalf("%d memo hits and %d merged records in %d messages: sequence too tame", hits, merged, trials*steps)
	}
}

// TestReplayMemoRetainsDeliveredSlice pins what the memo keeps and when: the
// delivered slice itself, as rt allows, re-pointed on every miss.
func TestReplayMemoRetainsDeliveredSlice(t *testing.T) {
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	updates := 0
	mod := New(NewSignedPD(signers[1], model.NewIDSet(2)), reg, DefaultConfig(), func() { updates++ })
	pd := model.NewIDSet(1)
	first := EncodeSetPDs([]SignedPD{NewSignedPD(signers[3], pd)})
	held := func(want []byte) bool {
		got := memoEntry(mod, 2)
		return len(got) == len(want) && &got[0] == &want[0]
	}

	// The same slice twice: one merge, and the entry is that slice.
	mod.Handle(nil, 2, first)
	mod.Handle(nil, 2, first)
	if updates != 1 || !held(first) {
		t.Fatalf("same slice twice: %d merges, entry is the delivered slice: %v; want 1, true", updates, held(first))
	}
	// Equal bytes in another buffer (the netrt shape): still a hit — skipped,
	// and the entry stays where it was.
	mod.Handle(nil, 2, bytes.Clone(first))
	if updates != 1 || !held(first) {
		t.Fatalf("equal bytes in another buffer: %d merges, entry untouched: %v; want 1, true", updates, held(first))
	}
	// A differing payload of the same length from the same sender — the valid
	// record where a forgery of it was — is merged, and the entry re-pointed.
	forged := EncodeSetPDs([]SignedPD{{Owner: 4, PD: pd, Sig: signers[3].Sign(Canonical(4, pd))}})
	valid := EncodeSetPDs([]SignedPD{NewSignedPD(signers[4], pd)})
	if len(forged) != len(valid) {
		t.Fatalf("forged and valid payloads differ in length: %d, %d", len(forged), len(valid))
	}
	mod.Handle(nil, 2, forged)
	if _, ok := mod.View().PD[4]; ok || !held(forged) {
		t.Fatal("forged record accepted, or the entry not re-pointed to the forged payload")
	}
	mod.Handle(nil, 2, valid)
	if _, ok := mod.View().PD[4]; !ok || updates != 2 || !held(valid) {
		t.Fatalf("differing payload: merged %v, %d merges, entry re-pointed %v; want true, 2, true", ok, updates, held(valid))
	}
	// A sender outside S_known is merged like any other and gets no entry.
	before := len(mod.lastSetPDs)
	mod.Handle(nil, 77, first)
	if _, kept := mod.senders.Lookup(77); kept || len(mod.lastSetPDs) != before {
		t.Fatal("memo kept a payload from a sender outside S_known")
	}
}

// replayFixture returns a module that knows sender 2 and two different
// SETPDS payloads of the same 16 records (ascending and descending owner
// order), both already merged.
func replayFixture(tb testing.TB) (mod *Module, asc, desc []byte) {
	tb.Helper()
	ids := make([]model.ID, 17)
	for i := range ids {
		ids[i] = model.ID(i + 1)
	}
	signers, reg, err := cryptox.GenerateKeys(1, ids)
	if err != nil {
		tb.Fatal(err)
	}
	recs := make([]SignedPD, 0, 16)
	for _, id := range ids[1:] {
		recs = append(recs, NewSignedPD(signers[id], model.NewIDSet(1, id%17+1, (id+4)%17+1)))
	}
	asc = EncodeSetPDs(recs)
	slices.Reverse(recs)
	desc = EncodeSetPDs(recs)
	mod = New(NewSignedPD(signers[1], model.NewIDSet(2)), reg, DefaultConfig(), nil)
	mod.Handle(nil, 2, desc)
	mod.Handle(nil, 2, asc)
	if len(mod.records) != 17 {
		tb.Fatalf("fixture holds %d records, want 17", len(mod.records))
	}
	return mod, asc, desc
}

// TestReceiveReplayAllocs is the allocation gate for the steady state of
// gossip: a SETPDS identical to the sender's last one is dropped without
// allocating. (A differing payload may allocate: it is parsed.)
func TestReceiveReplayAllocs(t *testing.T) {
	mod, asc, _ := replayFixture(t)
	if avg := testing.AllocsPerRun(200, func() { mod.Handle(nil, 2, asc) }); avg != 0 {
		t.Fatalf("replayed SETPDS allocates %.1f times per message, want 0", avg)
	}
}

// BenchmarkReceiveReplay is the memo hit on the 16-record payload the sender
// sent last time: identical-slice is the simulator's delivery (the sender's
// cached buffer again, decided on the pointer), equal-copy is netrt's (the
// same bytes in a buffer of their own, compared in full).
func BenchmarkReceiveReplay(b *testing.B) {
	mod, asc, _ := replayFixture(b)
	for _, tc := range []struct {
		name    string
		payload []byte
	}{{"identical-slice", asc}, {"equal-copy", bytes.Clone(asc)}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mod.Handle(nil, 2, tc.payload)
			}
		})
	}
}

// BenchmarkReceiveFresh is the memo miss over the same 16 held records: the
// sender alternates two encodings, so every message is walked.
func BenchmarkReceiveFresh(b *testing.B) {
	mod, asc, desc := replayFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			mod.Handle(nil, 2, desc)
		} else {
			mod.Handle(nil, 2, asc)
		}
	}
}

// sendLog is an rt.Context that records what a module sends.
type sendLog struct {
	self model.ID
	to   []model.ID
	sent [][]byte
}

func (s *sendLog) ID() model.ID { return s.self }
func (s *sendLog) Now() rt.Time { return 0 }
func (s *sendLog) Send(to model.ID, payload []byte) {
	s.to, s.sent = append(s.to, to), append(s.sent, payload)
}
func (s *sendLog) SetTimer(rt.Time, uint64) {}
func (s *sendLog) Rand() *rand.Rand         { return rand.New(rand.NewSource(1)) }

// TestRoundModel holds the three questions a round is modelled by to what a
// round does: a round polls exactly Polls, a GETPDS is answered with ReplyLen
// bytes, and on Fig 1b after convergence every correct process Holds each
// correct process it polls, while a process that has learnt nothing holds
// none of them.
func TestRoundModel(t *testing.T) {
	fig := graph.Fig1b()
	nodes, engine := buildNetwork(t, fig.G, sim.Synchronous{Delta: 5 * sim.Millisecond}, fig.Byz)
	engine.Run(2 * sim.Second)
	for id, n := range nodes {
		if fig.Byz.Has(id) {
			continue
		}
		m := n.mod
		round := &sendLog{self: id}
		m.HandleTimer(round, TimerTag)
		want := m.View().Known.Clone()
		want.Remove(id)
		if !slices.Equal(round.to, want.Sorted()) || !slices.Equal(m.Polls(), round.to) {
			t.Fatalf("%v: a round polled %v, Polls says %v, S_known but self is %v", id, round.to, m.Polls(), want.Sorted())
		}
		reply := &sendLog{self: id}
		m.Handle(reply, 1, []byte{wire.KindGetPDs})
		if len(reply.sent) != 1 || len(reply.sent[0]) != m.ReplyLen() {
			t.Fatalf("%v: answered a GETPDS with %d payloads, ReplyLen %d", id, len(reply.sent), m.ReplyLen())
		}
		for _, peer := range m.Polls() {
			if fig.Byz.Has(peer) {
				continue
			}
			if !m.Holds(nodes[peer].mod) {
				t.Fatalf("%v polls %v but does not hold its records after convergence", id, peer)
			}
		}
	}
	fresh, _ := buildNetwork(t, fig.G, sim.Synchronous{Delta: 5 * sim.Millisecond}, fig.Byz)
	if fresh[1].mod.Holds(nodes[2].mod) || !nodes[2].mod.Holds(fresh[1].mod) {
		t.Fatal("a process that learnt nothing holds a converged one's records, or the converse fails")
	}
}
