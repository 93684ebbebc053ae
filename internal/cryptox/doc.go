// Package cryptox provides the digital-signature layer of the authenticated
// BFT-CUP / BFT-CUPFT model: per-process Ed25519 keys, a static ID→key
// registry standing in for the paper's Sybil-proof identity assumption
// (Section II-A), and an insecure fast signer that only the benchmark harness
// (bench/) uses. Every simulated and live run signs with Ed25519.
//
// Key generation is deterministic from a seed, which is what keeps whole
// simulation traces reproducible: the same (seed, ID set) always yields the
// same keys, hence the same signatures, hence the same bytes on the wire.
//
// Three facts make the layer cheap without weakening a check. Key material is
// shared process-wide: a bounded cache holds the keys GenerateKeys derives
// from (seed, ids), and no memo. Verdicts are memoized, per run: a Keys store,
// owned by one run, builds signers and a Registry over the cached keys, and
// Registry.Verify and VerifyBatch answer a repeated (signer, msg, sig) with
// one SHA-256 while signers memoize their deterministic signatures; the memos
// go when the store does. Fresh signatures seed their own registry: a signer
// that runs a real ed25519.Sign stores the verdict "true" for exactly that
// (signer, msg, sig) in the registry of its own keyring. Seeding is sound
// because
//
//   - that registry holds the public half of the very key that signed,
//   - Ed25519 signing is complete (RFC 8032: an honest signature verifies),
//   - the memo key is the SHA-256 of the length-delimited question, so any
//     other byte, signer or message misses the seed and meets the curve.
//
// Not seeded: any other registry — a second GenerateKeys call or another
// store has equal keys and its own memo, the position of every peer of a cupd
// process — and the insecure suite. Registry.Stats counts questions, hits,
// curve ops and seeds.
package cryptox
