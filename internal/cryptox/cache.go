package cryptox

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"github.com/bftcup/bftcup/internal/model"
)

// Cache capacities. The verify memo is per registry and sized for one
// scenario's working set (every distinct signed record in flight); the sign
// memo is per signer (a process re-signs only its own handful of records); a
// Keys store holds keyringCap keyrings per generation (one per (seed, ids)
// pair its run touches), and the process-wide key-material cache as many key
// sets. The key-material cache holds no memo: a run's memos live in its
// store, at most 2×keyringCap keyrings' worth, and are dropped with it.
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

// keySets is the process-wide cache of derived key material: deriving is
// the expensive, seed-determined part of a keyring and holds no memo, so
// every store shares it.
var keySets = struct {
	sync.Mutex
	c *memoCache[keyringKey, *keySet]
}{c: newMemoCache[keyringKey, *keySet](keyringCap)}

// cachedKeySet returns the key material of (seed, ids), deriving it on a
// miss. It derives outside the lock: keygen is the expensive part, and a
// duplicate derivation under contention is deterministic-identical.
func cachedKeySet(key keyringKey, seed int64, ids []model.ID) (*keySet, error) {
	keySets.Lock()
	ks, ok := keySets.c.get(key)
	keySets.Unlock()
	if ok {
		return ks, nil
	}
	ks, err := deriveKeys(seed, ids)
	if err != nil {
		return nil, err
	}
	keySets.Lock()
	keySets.c.put(key, ks)
	keySets.Unlock()
	return ks, nil
}

// keyringEntry is one keyring of a store: signers and a registry over one
// key set, with memos of their own.
type keyringEntry struct {
	signers map[model.ID]Signer
	reg     *Registry
}

// Keys is one run's crypto state: the keyrings it has asked for, each built
// over the process-wide key material with sign and verify memos of its own,
// so that the memos become garbage together with the run that filled them.
// A store is bounded like every cache here (two generations of keyringCap
// keyrings) and safe for concurrent use; one (seed, ids) yields one keyring
// per store, so nodes that share a store share a registry. Who owns one: a
// scenario.Runner (hence each matrix worker), each RunLive call, a cupd
// process, and a System for all its nodes.
type Keys struct {
	mu       sync.Mutex
	keyrings *memoCache[keyringKey, *keyringEntry]
}

// NewKeys returns an empty store.
func NewKeys() *Keys {
	return &Keys{keyrings: newMemoCache[keyringKey, *keyringEntry](keyringCap)}
}

// Keyring returns the store's keyring for (seed, ids): GenerateKeys' keys,
// taken from the process-wide key-material cache, under signers and a
// registry the store builds once and then hands out again. Determinism is
// unchanged (the keys are a pure function of the arguments); the returned
// maps and registry are shared and must be treated as read-only.
func (k *Keys) Keyring(seed int64, ids []model.ID) (map[model.ID]Signer, *Registry, error) {
	key := newKeyringKey(seed, ids)
	// Held across a derivation too: a store serves one run, so there is no
	// contention to avoid, and the lock makes the keyring one per store.
	k.mu.Lock()
	defer k.mu.Unlock()
	if e, ok := k.keyrings.get(key); ok {
		return e.signers, e.reg, nil
	}
	ks, err := cachedKeySet(key, seed, ids)
	if err != nil {
		return nil, nil, err
	}
	e := &keyringEntry{}
	e.signers, e.reg = ks.keyring()
	k.keyrings.put(key, e)
	return e.signers, e.reg, nil
}

// processKeys is the store behind Keyring.
var processKeys = NewKeys()

// Keyring is the keyring of one process-wide store: its memos live as long
// as the process, within the store's bound. Only the benchmark's traced
// copies of the assembly still call it; a run takes its keyrings from a Keys
// store of its own.
func Keyring(seed int64, ids []model.ID) (map[model.ID]Signer, *Registry, error) {
	return processKeys.Keyring(seed, ids)
}
