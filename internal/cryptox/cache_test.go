package cryptox

import (
	"fmt"
	"sync"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
)

// TestKeyringMatchesGenerateKeys pins the keyring cache's determinism
// contract: Keyring(seed, ids) hands out keys identical to an uncached
// GenerateKeys call — signatures from one verify under the other, in both
// directions — and a repeated call is a cache hit (the same shared maps).
func TestKeyringMatchesGenerateKeys(t *testing.T) {
	ids := []model.ID{1, 2, 3, 4}
	cachedSigners, cachedReg, err := Keyring(99, ids)
	if err != nil {
		t.Fatal(err)
	}
	freshSigners, freshReg, err := GenerateKeys(99, ids)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("cache transparency")
	for _, id := range ids {
		if !freshReg.Verify(id, msg, cachedSigners[id].Sign(msg)) {
			t.Fatalf("cached signer %v rejected by uncached registry", id)
		}
		if !cachedReg.Verify(id, msg, freshSigners[id].Sign(msg)) {
			t.Fatalf("uncached signer %v rejected by cached registry", id)
		}
	}

	again, againReg, err := Keyring(99, ids)
	if err != nil {
		t.Fatal(err)
	}
	if againReg != cachedReg {
		t.Fatal("repeated Keyring call did not hit the cache")
	}
	for _, id := range ids {
		if again[id] != cachedSigners[id] {
			t.Fatalf("repeated Keyring call rebuilt signer %v", id)
		}
	}

	// Different seed and different ID order are different keyrings.
	_, otherSeed, err := Keyring(100, ids)
	if err != nil {
		t.Fatal(err)
	}
	if otherSeed == cachedReg {
		t.Fatal("different seed shared a keyring")
	}
	_, otherOrder, err := Keyring(99, []model.ID{4, 3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if otherOrder == cachedReg {
		t.Fatal("different ID order shared a keyring (keys are drawn from one RNG stream)")
	}
}

// TestKeyringRejectsBadIDs mirrors the GenerateKeys validation through the
// cached entry point.
func TestKeyringRejectsBadIDs(t *testing.T) {
	if _, _, err := Keyring(1, []model.ID{model.NilID}); err == nil {
		t.Fatal("NilID accepted")
	}
	if _, _, err := Keyring(1, []model.ID{2, 2}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

// TestVerifyMemoCorrectness asserts the memo can neither turn a bad
// signature good nor a good one bad, including the poisoning-shaped cases: a
// tampered signature right after its valid twin was memoized, the valid
// signature attributed to another signer, and re-verification after the
// memo has evicted.
func TestVerifyMemoCorrectness(t *testing.T) {
	signers, reg, err := GenerateKeys(3, []model.ID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("memoized message")
	sig := signers[1].Sign(msg)
	for round := 0; round < 3; round++ {
		if !reg.Verify(1, msg, sig) {
			t.Fatalf("round %d: valid signature rejected", round)
		}
		tampered := append([]byte(nil), sig...)
		tampered[0] ^= 1
		if reg.Verify(1, msg, tampered) {
			t.Fatalf("round %d: tampered signature accepted", round)
		}
		if reg.Verify(2, msg, sig) {
			t.Fatalf("round %d: signature accepted for the wrong signer", round)
		}
		if reg.Verify(1, []byte("other message"), sig) {
			t.Fatalf("round %d: signature accepted for the wrong message", round)
		}
	}
	// Fill the memo past capacity so the original entries rotate out, then
	// re-ask: the cold path must agree with the memoized one.
	for i := 0; i < 2*verifyMemoCap+10; i++ {
		reg.Verify(1, []byte(fmt.Sprintf("filler %d", i)), sig)
	}
	if !reg.Verify(1, msg, sig) {
		t.Fatal("valid signature rejected after memo eviction")
	}
}

// TestSignMemoDeterministic asserts memoized signing returns byte-identical
// signatures (Ed25519 is deterministic), hands each caller an independent
// slice, and survives callers that scribble on what they were given.
func TestSignMemoDeterministic(t *testing.T) {
	signers, reg, err := GenerateKeys(5, []model.ID{1})
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("sign me repeatedly")
	first := signers[1].Sign(msg)
	second := signers[1].Sign(msg)
	if string(first) != string(second) {
		t.Fatal("memoized signature differs from the first")
	}
	if &first[0] == &second[0] {
		t.Fatal("memo handed two callers the same slice")
	}
	first[0] ^= 1 // a hostile caller mutates its copy
	third := signers[1].Sign(msg)
	if string(third) != string(second) {
		t.Fatal("caller mutation poisoned the sign memo")
	}
	if !reg.Verify(1, msg, third) {
		t.Fatal("memoized signature does not verify")
	}
}

// TestMemoCacheBounded pins the LRU bound of every cache: the two-generation
// memo never holds more than 2×cap entries no matter how many distinct keys
// pass through, and old entries come back correct after eviction.
func TestMemoCacheBounded(t *testing.T) {
	c := newMemoCache[int, int](8)
	for i := 0; i < 1000; i++ {
		c.put(i, i*10)
		if c.len() > 16 {
			t.Fatalf("after %d inserts the memo holds %d entries (cap 8 → bound 16)", i+1, c.len())
		}
	}
	if v, ok := c.get(999); !ok || v != 9990 {
		t.Fatalf("most recent entry missing: %d %t", v, ok)
	}
	if _, ok := c.get(0); ok {
		t.Fatal("entry 0 survived 1000 inserts into a 16-entry cache")
	}
	// Promotion: a repeatedly touched key survives rotations.
	c.put(5000, 1)
	for i := 0; i < 100; i++ {
		c.put(6000+i, i)
		if _, ok := c.get(5000); !ok {
			t.Fatalf("hot entry evicted after %d cold inserts despite promotion", i+1)
		}
	}

	// The registry's verify memo is bounded the same way.
	signers, reg, err := GenerateKeys(9, []model.ID{1})
	if err != nil {
		t.Fatal(err)
	}
	sig := signers[1].Sign([]byte("m"))
	for i := 0; i < 3*verifyMemoCap; i++ {
		reg.Verify(1, []byte(fmt.Sprintf("bound %d", i)), sig)
	}
	if n := reg.memo.len(); n > 2*verifyMemoCap {
		t.Fatalf("verify memo grew to %d entries (bound %d)", n, 2*verifyMemoCap)
	}
}

// TestMemoConcurrentWorkers hammers one shared keyring — the exact sharing
// the matrix worker pool produces — from many goroutines mixing valid and
// invalid verifications and overlapping signings, while one goroutine per ID
// signs a stream of fresh messages, so that Sign is seeding the verify memo
// as the workers read and fill it through Verify and VerifyBatch.
// Correctness is asserted per operation; the race detector (CI runs the
// package under -race) checks the locking.
func TestMemoConcurrentWorkers(t *testing.T) {
	ids := []model.ID{1, 2, 3, 4}
	signers, reg, err := Keyring(77, ids)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers+len(ids))
	for _, id := range ids {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				msg := []byte(fmt.Sprintf("fresh %v/%d", id, i))
				sig := signers[id].Sign(msg)
				bad := append([]byte(nil), sig...)
				bad[i%len(bad)] ^= 0x04
				got := reg.VerifyBatch([]BatchRequest{
					{Signer: id, Msg: msg, Sig: sig},
					{Signer: id, Msg: msg, Sig: bad},
				})
				if !got[0] || got[1] {
					errs <- fmt.Errorf("signer %v: fresh signature %t, corrupted %t", id, got[0], got[1])
					return
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ids[(w+i)%len(ids)]
				msg := []byte(fmt.Sprintf("msg %d", i%17)) // overlap across workers
				sig := signers[id].Sign(msg)
				if !reg.Verify(id, msg, sig) {
					errs <- fmt.Errorf("worker %d: valid signature rejected", w)
					return
				}
				bad := append([]byte(nil), sig...)
				bad[i%len(bad)] ^= 0x40
				if reg.Verify(id, msg, bad) {
					errs <- fmt.Errorf("worker %d: corrupted signature accepted", w)
					return
				}
				other := ids[(w+i+1)%len(ids)]
				if got := reg.VerifyBatch([]BatchRequest{
					{Signer: other, Msg: msg, Sig: sig},
					{Signer: id, Msg: msg, Sig: sig},
				}); got[0] || !got[1] {
					errs <- fmt.Errorf("worker %d: batch answered cross-signer %t, own %t", w, got[0], got[1])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
