package cryptox

import (
	"crypto/ed25519"
	"crypto/sha256"

	"github.com/bftcup/bftcup/internal/model"
)

// BatchRequest names one signature-verification question: is Sig a valid
// signature by Signer over Msg?
type BatchRequest struct {
	Signer model.ID
	Msg    []byte
	Sig    []byte
}

// BatchVerifier is implemented by verifiers that can answer many questions
// cheaper than one at a time.
type BatchVerifier interface {
	// VerifyBatch returns one verdict per request, in request order.
	VerifyBatch(reqs []BatchRequest) []bool
}

// VerifyBatch answers every request, through the verifier's batch path when
// it has one and one-by-one Verify otherwise. The verdicts are exactly those
// Verify would return — batching changes cost, never answers.
func VerifyBatch(v Verifier, reqs []BatchRequest) []bool {
	if bv, ok := v.(BatchVerifier); ok {
		return bv.VerifyBatch(reqs)
	}
	out := make([]bool, len(reqs))
	for i, q := range reqs {
		out[i] = v.Verify(q.Signer, q.Msg, q.Sig)
	}
	return out
}

// VerifyBatch implements BatchVerifier. The receipt paths that call it —
// discovery merging a SETPDS gossip payload, PBFT validating a quorum
// certificate — present many signatures at once, and under the simulator's
// broadcast fan-out most of them are repeats. One-at-a-time Verify pays a
// lock round-trip per question; the batch path takes the memo lock twice for
// the whole batch (one sweep answering every cached question, one sweep
// storing the new answers) and runs only the misses through Ed25519 in
// between. Verdicts are identical to per-call Verify by construction: the
// same memo is consulted and the same curve operation decides a miss.
func (r *Registry) VerifyBatch(reqs []BatchRequest) []bool {
	out := make([]bool, len(reqs))
	// Pass 1: hash keys and drain the memo under one lock acquisition.
	keys := make([][sha256.Size]byte, len(reqs))
	misses := make([]int, 0, len(reqs))
	for i, q := range reqs {
		if _, known := r.pubs[q.Signer]; !known {
			continue // out[i] stays false; no memo entry for unknown signers
		}
		keys[i] = verifyKey(q.Signer, q.Msg, q.Sig)
		misses = append(misses, i)
	}
	r.mu.Lock()
	r.stats.Asked += uint64(len(reqs))
	w := 0
	for _, i := range misses {
		if v, hit := r.memo.get(keys[i]); hit {
			out[i] = v
			continue
		}
		misses[w] = i
		w++
	}
	r.stats.MemoHits += uint64(len(misses) - w)
	misses = misses[:w]
	r.mu.Unlock()

	if len(misses) == 0 {
		return out
	}
	// Pass 2: curve operations for the misses, outside the lock — as in
	// Verify, duplicated work under contention beats serializing it.
	for _, i := range misses {
		q := reqs[i]
		out[i] = ed25519.Verify(r.pubs[q.Signer], q.Msg, q.Sig)
	}
	// Pass 3: store every new answer under one lock acquisition.
	r.mu.Lock()
	r.stats.CurveOps += uint64(len(misses))
	for _, i := range misses {
		r.memo.put(keys[i], out[i])
	}
	r.mu.Unlock()
	return out
}
