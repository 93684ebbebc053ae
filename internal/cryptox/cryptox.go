package cryptox

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"github.com/bftcup/bftcup/internal/model"
)

// Signer signs messages on behalf of one process.
type Signer interface {
	// ID returns the process this signer belongs to.
	ID() model.ID
	// Sign returns a signature over msg.
	Sign(msg []byte) []byte
}

// Verifier checks signatures from any registered process.
type Verifier interface {
	// Verify reports whether sig is a valid signature by signer over msg.
	Verify(signer model.ID, msg, sig []byte) bool
}

// Registry holds the public keys of every process. It reifies the paper's
// assumption that IDs are unforgeable and Sybil attacks are infeasible
// (Section II-A): knowing a process's ID suffices to authenticate it.
//
// The key set is immutable after construction and a Registry is safe for
// concurrent use. Verify memoizes its verdicts in a bounded cache: Ed25519
// verification is pure, and the simulator's broadcast fan-out asks the same
// (signer, msg, sig) question once per receiver per gossip round — the memo
// answers every repeat with one hash instead of a curve operation, which is
// what makes sweep throughput protocol-bound rather than signature-bound.
// Its own keyring's signers seed the memo (see seed), so an honest signature
// of theirs is a hit at first sight too.
type Registry struct {
	pubs map[model.ID]ed25519.PublicKey

	mu    sync.Mutex
	memo  *memoCache[[sha256.Size]byte, bool]
	stats VerifyStats
}

// Verify implements Verifier.
func (r *Registry) Verify(signer model.ID, msg, sig []byte) bool {
	pub, ok := r.pubs[signer]
	if !ok {
		r.mu.Lock()
		r.stats.Asked++
		r.mu.Unlock()
		return false
	}
	k := verifyKey(signer, msg, sig)
	r.mu.Lock()
	r.stats.Asked++
	v, hit := r.memo.get(k)
	if hit {
		r.stats.MemoHits++
	}
	r.mu.Unlock()
	if hit {
		return v
	}
	// Verify outside the lock: duplicated work under contention is cheaper
	// than serializing every curve operation.
	v = ed25519.Verify(pub, msg, sig)
	r.mu.Lock()
	r.stats.CurveOps++
	r.memo.put(k, v)
	r.mu.Unlock()
	return v
}

// seed stores the verdict "true" for a signature that one of this registry's
// own signers (its keyring registered the public half of the key) has just
// produced; the package comment has the soundness argument.
func (r *Registry) seed(signer model.ID, msg, sig []byte) {
	k := verifyKey(signer, msg, sig)
	r.mu.Lock()
	r.stats.Seeded++
	r.memo.put(k, true)
	r.mu.Unlock()
}

// Has reports whether the registry knows signer's key.
func (r *Registry) Has(signer model.ID) bool {
	_, ok := r.pubs[signer]
	return ok
}

// edSigner is the Ed25519 Signer. Sign memoizes by message: Ed25519 is
// deterministic (RFC 8032 — identical bytes sign to identical signatures),
// and a process re-signs the same canonical record every time it rebuilds a
// gossip or protocol message, so the memo turns all but the first signing of
// each distinct message into a map hit. The memo belongs to one keyring of
// one Keys store, so it lives as long as the run that owns the store; the
// nodes of a live run sign concurrently through it, hence the lock. A fresh
// signature (a memo miss) also seeds reg, the registry of the same keyring.
type edSigner struct {
	id   model.ID
	priv ed25519.PrivateKey
	reg  *Registry

	mu   sync.Mutex
	memo *memoCache[string, []byte]
}

func (s *edSigner) ID() model.ID { return s.id }

func (s *edSigner) Sign(msg []byte) []byte {
	s.mu.Lock()
	if sig, ok := s.memo.get(string(msg)); ok {
		s.mu.Unlock()
		// Copied: callers own their signature slice (some embed it in
		// long-lived records) and must not alias each other.
		return append([]byte(nil), sig...)
	}
	s.mu.Unlock()
	sig := ed25519.Sign(s.priv, msg)
	s.mu.Lock()
	s.memo.put(string(msg), sig)
	s.mu.Unlock()
	// s.mu is released first: the two locks never nest.
	s.reg.seed(s.id, msg, sig)
	return append([]byte(nil), sig...)
}

// GenerateKeys deterministically creates one Ed25519 keypair per ID from the
// given seed and returns the signers plus the shared registry. Determinism
// keeps simulation traces reproducible. Every call derives the keys afresh
// and builds fresh memos; a run takes its keyrings from a Keys store instead.
func GenerateKeys(seed int64, ids []model.ID) (map[model.ID]Signer, *Registry, error) {
	ks, err := deriveKeys(seed, ids)
	if err != nil {
		return nil, nil, err
	}
	signers, reg := ks.keyring()
	return signers, reg, nil
}

// keySet is the key material of one (seed, ids): the private keys in ID
// order and the public keys by ID. It holds no memo and is read-only once
// derived, so every keyring built over it shares it.
type keySet struct {
	ids   []model.ID
	privs []ed25519.PrivateKey
	pubs  map[model.ID]ed25519.PublicKey
}

// deriveKeys draws one Ed25519 keypair per ID, in order, from one RNG stream
// seeded with seed.
func deriveKeys(seed int64, ids []model.ID) (*keySet, error) {
	rng := rand.New(rand.NewSource(seed))
	ks := &keySet{
		ids:   slices.Clone(ids),
		privs: make([]ed25519.PrivateKey, len(ids)),
		pubs:  make(map[model.ID]ed25519.PublicKey, len(ids)),
	}
	for i, id := range ids {
		if id == model.NilID {
			return nil, errors.New("cryptox: NilID cannot own a key")
		}
		if _, dup := ks.pubs[id]; dup {
			return nil, fmt.Errorf("cryptox: duplicate ID %v", id)
		}
		seedBytes := make([]byte, ed25519.SeedSize)
		if _, err := rng.Read(seedBytes); err != nil {
			return nil, fmt.Errorf("cryptox: seeding key for %v: %w", id, err)
		}
		ks.privs[i] = ed25519.NewKeyFromSeed(seedBytes)
		ks.pubs[id] = ks.privs[i].Public().(ed25519.PublicKey)
	}
	return ks, nil
}

// keyring builds signers and a registry over the key set, each with empty
// memos of its own; the signers seed that registry.
func (ks *keySet) keyring() (map[model.ID]Signer, *Registry) {
	reg := &Registry{pubs: ks.pubs, memo: newMemoCache[[sha256.Size]byte, bool](verifyMemoCap)}
	signers := make(map[model.ID]Signer, len(ks.ids))
	for i, id := range ks.ids {
		signers[id] = &edSigner{id: id, priv: ks.privs[i], reg: reg, memo: newMemoCache[string, []byte](signMemoCap)}
	}
	return signers, reg
}

// InsecureSuite returns keyed-hash signers: signatures are SHA-256 over
// (id, msg) with a shared secret, so anyone can forge them. It serves the
// benchmark harness (bench/) only, which swaps it in when a Compiled's
// Insecure field is set; no CLI, Params or sweep reaches it, and every run
// on the production path signs with the Ed25519 keyring.
func InsecureSuite(ids []model.ID) (map[model.ID]Signer, Verifier) {
	signers := make(map[model.ID]Signer, len(ids))
	v := insecureVerifier{}
	for _, id := range ids {
		signers[id] = insecureSigner{id: id}
	}
	return signers, v
}

type insecureSigner struct{ id model.ID }

func (s insecureSigner) ID() model.ID { return s.id }
func (s insecureSigner) Sign(msg []byte) []byte {
	return insecureMAC(s.id, msg)
}

type insecureVerifier struct{}

func (insecureVerifier) Verify(signer model.ID, msg, sig []byte) bool {
	want := insecureMAC(signer, msg)
	if len(sig) != len(want) {
		return false
	}
	for i := range sig {
		if sig[i] != want[i] {
			return false
		}
	}
	return true
}

func insecureMAC(id model.ID, msg []byte) []byte {
	h := sha256.New()
	var idb [8]byte
	binary.BigEndian.PutUint64(idb[:], uint64(id))
	h.Write([]byte("bftcup-insecure-mac"))
	h.Write(idb[:])
	h.Write(msg)
	return h.Sum(nil)
}
