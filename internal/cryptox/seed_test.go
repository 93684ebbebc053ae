package cryptox

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
)

// TestSignSeedsOwnRegistryOnly pins what a fresh signature publishes and,
// above all, what it does not: the seed answers exactly one question — this
// signer, these message bytes, these signature bytes, this registry — and
// every neighbour of that question is still decided on the curve.
func TestSignSeedsOwnRegistryOnly(t *testing.T) {
	ids := []model.ID{1, 2, 3}
	signers, reg, err := GenerateKeys(23, ids)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("a record signed a moment ago")
	sig := signers[1].Sign(msg)
	if got := reg.Stats(); got != (VerifyStats{Seeded: 1}) {
		t.Fatalf("after one Sign: %+v, want only Seeded 1", got)
	}
	if !reg.Verify(1, msg, sig) {
		t.Fatal("own fresh signature rejected")
	}
	if got := reg.Stats(); got != (VerifyStats{Asked: 1, MemoHits: 1, Seeded: 1}) {
		t.Fatalf("own fresh signature was not answered by the seed: %+v", got)
	}
	// A repeated Sign is a sign-memo hit and seeds nothing — in particular
	// not the bytes a caller has meanwhile scribbled on its copy (checked
	// below, once rejected is defined).
	scribbled := signers[1].Sign(msg)
	scribbled[5] ^= 0x80
	signers[1].Sign(msg)
	if got := reg.Stats().Seeded; got != 1 {
		t.Fatalf("sign-memo hit seeded again: Seeded %d", got)
	}

	// rejected asks one question that must be refused by exactly one curve
	// operation — never by the seed, never for free.
	rejected := func(what string, signer model.ID, m, s []byte) {
		t.Helper()
		before := reg.Stats()
		if reg.Verify(signer, m, s) {
			t.Fatalf("%s: accepted", what)
		}
		after := reg.Stats()
		if after.CurveOps != before.CurveOps+1 || after.MemoHits != before.MemoHits {
			t.Fatalf("%s: cost %d curve ops and %d memo hits, want 1 and 0",
				what, after.CurveOps-before.CurveOps, after.MemoHits-before.MemoHits)
		}
	}
	rejected("a caller's scribbled copy, after signing again", 1, msg, scribbled)
	for i := range sig {
		bad := append([]byte(nil), sig...)
		bad[i] ^= 1 << (i % 8)
		rejected(fmt.Sprintf("signature byte %d flipped", i), 1, msg, bad)
	}
	rejected("message shortened", 1, msg[:len(msg)-1], sig)
	rejected("message extended", 1, append(append([]byte(nil), msg...), 0), sig)
	rejected("right signature, signer 2", 2, msg, sig)
	rejected("right signature, signer 3", 3, msg, sig)

	// A second GenerateKeys call has equal keys and its own registry — a
	// cupd peer in another process. It owes the signature a real check.
	foreignSigners, foreign, err := GenerateKeys(23, ids)
	if err != nil {
		t.Fatal(err)
	}
	if !foreign.Verify(1, msg, sig) {
		t.Fatal("equal-keyed foreign registry rejected a valid signature")
	}
	if got := foreign.Stats(); got != (VerifyStats{Asked: 1, CurveOps: 1}) {
		t.Fatalf("foreign registry: %+v, want one question, one curve op, nothing seeded", got)
	}
	// And the other way round: its signers seed their registry, not ours.
	msg2 := []byte("signed by the peer's keyring")
	sig2 := foreignSigners[2].Sign(msg2)
	if ours, theirs := reg.Stats().Seeded, foreign.Stats().Seeded; ours != 1 || theirs != 1 {
		t.Fatalf("after the foreign keyring signed: Seeded %d here, %d there, want 1 and 1", ours, theirs)
	}
	before := reg.Stats().CurveOps
	if !reg.Verify(2, msg2, sig2) || reg.Stats().CurveOps != before+1 {
		t.Fatal("a foreign keyring's signature was not verified on the curve")
	}

	// The insecure suite has no registry to seed.
	insecure, iv := InsecureSuite(ids)
	if _, ok := iv.(*Registry); ok {
		t.Fatal("insecure suite verifies through a Registry")
	}
	if !iv.Verify(1, msg, insecure[1].Sign(msg)) || iv.Verify(2, msg, insecure[1].Sign(msg)) {
		t.Fatal("insecure suite verdicts changed")
	}
	if got := reg.Stats().Seeded; got != 1 {
		t.Fatalf("insecure signing seeded the Ed25519 registry: Seeded %d", got)
	}

	// Seeded entries age out like any other; the curve then answers.
	for i := 0; i < 2*verifyMemoCap+10; i++ {
		reg.Verify(1, []byte(fmt.Sprintf("filler %d", i)), sig)
	}
	before = reg.Stats().CurveOps
	if !reg.Verify(1, msg, sig) {
		t.Fatal("valid signature rejected once its seed was evicted")
	}
	if after := reg.Stats().CurveOps; after != before+1 {
		t.Fatalf("seed outlived %d filler questions (cap %d per generation)", 2*verifyMemoCap+10, verifyMemoCap)
	}
}

// TestSeededVerifyMatchesEd25519 is the differential: on 2,000 random
// questions — intact, a signature bit flipped, a message bit flipped, or the
// signature presented for another signer — a registry whose memo its own
// signers have been seeding answers exactly what bare ed25519.Verify answers
// on the registered public key, through Verify and VerifyBatch alike.
func TestSeededVerifyMatchesEd25519(t *testing.T) {
	ids := []model.ID{1, 2, 3, 4}
	signers, reg, err := GenerateKeys(31, ids)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	var reqs []BatchRequest
	var want []bool
	for c := 0; c < 2000; c++ {
		id := ids[rng.Intn(len(ids))]
		msg := make([]byte, 8+rng.Intn(89)) // ≥ 8 random bytes: no two cases share a message
		rng.Read(msg)
		sig := signers[id].Sign(msg)
		asked := id
		switch rng.Intn(4) {
		case 1:
			sig[rng.Intn(len(sig))] ^= 1 << rng.Intn(8)
		case 2:
			msg = append([]byte(nil), msg...)
			msg[rng.Intn(len(msg))] ^= 1 << rng.Intn(8)
		case 3:
			asked = ids[(int(id)+rng.Intn(len(ids)-1))%len(ids)] // never id itself
		}
		w := ed25519.Verify(reg.pubs[asked], msg, sig)
		if got := reg.Verify(asked, msg, sig); got != w {
			t.Fatalf("case %d: Registry.Verify %t, ed25519.Verify %t", c, got, w)
		}
		reqs = append(reqs, BatchRequest{Signer: asked, Msg: msg, Sig: sig})
		want = append(want, w)
	}
	for i, got := range reg.VerifyBatch(reqs) {
		if got != want[i] {
			t.Fatalf("case %d: VerifyBatch %t, ed25519.Verify %t", i, got, want[i])
		}
	}
	st := reg.Stats()
	if st.Seeded != 2000 || st.Asked != 4000 || st.MemoHits+st.CurveOps != st.Asked {
		t.Fatalf("counters do not add up: %+v", st)
	}
}

// BenchmarkVerifyFirstSight prices the first time a registry meets a
// signature: 64 fresh messages signed, then verified once each by the
// signing keyring's own registry (a seeded memo hit) and by the registry of
// a second GenerateKeys call (what a cupd daemon pays per peer record: one
// full Ed25519 verification, ≈ 85 µs). curve-ops/op is a count.
func BenchmarkVerifyFirstSight(b *testing.B) {
	const batch = 64
	ids := []model.ID{1, 2, 3, 4, 5, 6, 7, 8}
	for _, tc := range []struct {
		name    string
		foreign bool
	}{{"own-keyring", false}, {"foreign-keyring", true}} {
		b.Run(tc.name, func(b *testing.B) {
			signers, reg, err := GenerateKeys(41, ids)
			if err != nil {
				b.Fatal(err)
			}
			if tc.foreign {
				if _, reg, err = GenerateKeys(41, ids); err != nil {
					b.Fatal(err)
				}
			}
			msgs := make([][]byte, batch)
			sigs := make([][]byte, batch)
			before := reg.Stats().CurveOps
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := range msgs {
					msgs[j] = []byte(fmt.Sprintf("first sight %d/%d", i, j))
					sigs[j] = signers[ids[j%len(ids)]].Sign(msgs[j])
				}
				b.StartTimer()
				for j := range msgs {
					if !reg.Verify(ids[j%len(ids)], msgs[j], sigs[j]) {
						b.Fatal("valid signature rejected")
					}
				}
			}
			b.ReportMetric(float64(reg.Stats().CurveOps-before)/float64(b.N*batch), "curve-ops/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/verify")
		})
	}
}
