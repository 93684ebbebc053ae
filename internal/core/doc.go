// Package core implements the paper's consensus protocols as a single
// event-driven node (Algorithm 3) parameterized by how the committee is
// identified:
//
//   - ModeKnownF — the authenticated BFT-CUP model of Section III:
//     Discovery (Algorithm 1) + the Sink algorithm (Algorithm 2) with the
//     fault threshold f given to every process.
//   - ModeUnknownF — the BFT-CUPFT model of Section VI: Discovery + the Core
//     algorithm (Algorithm 4); no process knows f.
//   - ModeNaive — the straw man of Observation 1 (Section IV): adopt the
//     first sink found at any g. Unsafe by Theorem 7; used to reproduce the
//     impossibility experiments.
//   - ModePermissioned — the classic setting (known membership and f): run
//     the committee consensus directly over PDᵢ ∪ {i}.
//
// Once the committee S is identified, members run PBFT over S with quorum
// ⌈(|S|+g+1)/2⌉ while non-members poll ⟨GETDECIDEDVAL⟩ and decide on
// ⌈(|S|+1)/2⌉ matching answers (Algorithm 3).
//
// A Node is an rt.Reactor: the same implementation runs on the deterministic
// simulator (package sim) and on the concurrent live runtime (package netrt).
// Committee-consensus messages that arrive before the committee is identified
// are buffered as delivered (rt lets a reactor keep a payload) and replayed
// once the search succeeds.
package core
