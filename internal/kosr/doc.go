// Package kosr implements the knowledge-side decision procedures of the
// paper: the isSink predicate of Theorem 3, the sink search of Algorithm 2
// (known fault threshold), the core search of Algorithm 4 (unknown fault
// threshold), the naive any-sink rule of Observation 1, and the extended
// k-OSR PD checker of Definition 2.
//
// Every procedure runs over a View — the (S_known, S_PD) knowledge a process
// has accumulated through discovery — never over the global graph, which no
// process in the CUP model is allowed to see.
//
// View holds the knowledge and the literal predicate (View.IsSink); Searcher
// is the one search engine — incremental, scratch-reusing, memoizing
// per-component candidate lists and per-subset verdicts across knowledge
// updates. The tests pin it to a walk over all subsets checked by
// View.IsSink; see Searcher and ARCHITECTURE.md ("The sink/core search").
//
// Notation note (see DESIGN.md §2): property P3 counts *target* vertices
// outside S1 that S1 points at, while P4 counts *source* vertices of S1
// pointing at a given process. This is the only reading consistent with the
// paper's worked examples and proofs.
package kosr
