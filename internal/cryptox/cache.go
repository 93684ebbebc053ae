package cryptox

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"github.com/bftcup/bftcup/internal/model"
)

// Cache capacities. The verify memo is per registry and sized for one
// scenario's working set (every distinct signed record in flight); the sign
// memo is per signer (a process re-signs only its own handful of records);
// the keyring cache is process-wide (one entry per (seed, ids) pair a sweep
// touches).
const (
	verifyMemoCap = 4096
	signMemoCap   = 256
	keyringCap    = 128
)

// memoCache is a bounded memo table: two generations of maps, rotated
// wholesale when the young generation fills (segmented LRU). Hits in the old
// generation are promoted; a rotation drops everything not touched since the
// previous rotation. Total size is bounded by 2×cap entries, eviction is
// O(1) amortized and allocation-free in steady state — no linked-list
// bookkeeping on the hot path. Callers hold their own lock.
type memoCache[K comparable, V any] struct {
	cap   int
	young map[K]V
	old   map[K]V
}

func newMemoCache[K comparable, V any](cap int) *memoCache[K, V] {
	return &memoCache[K, V]{cap: cap, young: make(map[K]V)}
}

// get returns the cached value, promoting old-generation hits.
func (c *memoCache[K, V]) get(k K) (V, bool) {
	if v, ok := c.young[k]; ok {
		return v, true
	}
	if v, ok := c.old[k]; ok {
		delete(c.old, k)
		c.put(k, v)
		return v, true
	}
	var zero V
	return zero, false
}

// put inserts a value, rotating generations when the young one is full.
func (c *memoCache[K, V]) put(k K, v V) {
	if _, ok := c.young[k]; !ok && len(c.young) >= c.cap {
		c.old = c.young
		c.young = make(map[K]V, c.cap)
	}
	c.young[k] = v
}

// len returns the current entry count (≤ 2×cap).
func (c *memoCache[K, V]) len() int { return len(c.young) + len(c.old) }

// verifyKey condenses one (signer, msg, sig) verification question into a
// fixed-size map key, so the memo stores 33 bytes per entry instead of the
// message. Fields are length-delimited, so distinct questions cannot collide
// by concatenation.
func verifyKey(signer model.ID, msg, sig []byte) [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(signer))
	h.Write(b[:])
	binary.BigEndian.PutUint64(b[:], uint64(len(msg)))
	h.Write(b[:])
	h.Write(msg)
	h.Write(sig)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// VerifyStats counts a Registry's work: every question is in Asked and was
// answered from the memo (MemoHits), by an Ed25519 verification (CurveOps)
// or, its signer being unknown, by neither; Seeded counts the verdicts the
// registry's own signers stored ahead of any question.
type VerifyStats struct{ Asked, MemoHits, CurveOps, Seeded uint64 }

// Stats returns the counters; they are bumped under the lock acquisitions
// Verify, VerifyBatch and seed make anyway.
func (r *Registry) Stats() VerifyStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// keyringKey identifies one deterministic keyring: the generation seed plus
// a fingerprint of the ID sequence (order matters — keys are drawn from one
// RNG stream, so the same set in a different order yields different keys).
type keyringKey struct {
	seed int64
	fp   [sha256.Size]byte
}

func newKeyringKey(seed int64, ids []model.ID) keyringKey {
	h := sha256.New()
	var b [8]byte
	for _, id := range ids {
		binary.BigEndian.PutUint64(b[:], uint64(id))
		h.Write(b[:])
	}
	k := keyringKey{seed: seed}
	h.Sum(k.fp[:0])
	return k
}

// keyringEntry is one cached GenerateKeys result.
type keyringEntry struct {
	signers map[model.ID]Signer
	reg     *Registry
}

// keyrings is the process-wide keyring cache behind Keyring.
var keyrings = struct {
	sync.Mutex
	c *memoCache[keyringKey, *keyringEntry]
}{c: newMemoCache[keyringKey, *keyringEntry](keyringCap)}

// Keyring is GenerateKeys behind a process-wide bounded cache keyed by
// (seed, ids fingerprint): repeated materializations of the same scenario —
// a seed sweep re-running one compiled cell, sweep axes sharing a seed, a
// benchmark's b.N loop — reuse one keyring instead of regenerating Ed25519
// keypairs per run. Determinism is unchanged (GenerateKeys is already a pure
// function of its arguments); so is the result's concurrency contract: the
// returned maps and registry are shared and must be treated as read-only.
func Keyring(seed int64, ids []model.ID) (map[model.ID]Signer, *Registry, error) {
	key := newKeyringKey(seed, ids)
	keyrings.Lock()
	if e, ok := keyrings.c.get(key); ok {
		keyrings.Unlock()
		return e.signers, e.reg, nil
	}
	keyrings.Unlock()
	// Generate outside the lock: keygen is the expensive part, and a
	// duplicate generation under contention is deterministic-identical.
	signers, reg, err := GenerateKeys(seed, ids)
	if err != nil {
		return nil, nil, err
	}
	keyrings.Lock()
	keyrings.c.put(key, &keyringEntry{signers: signers, reg: reg})
	keyrings.Unlock()
	return signers, reg, nil
}
