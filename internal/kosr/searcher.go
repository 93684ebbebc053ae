package kosr

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
	"strconv"

	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
)

// Searcher is the sink/core search engine (Algorithms 2 and 4): the only
// implementation of the search, incremental and scratch-reusing. One Searcher
// serves one process's view; the protocol stack keeps a Searcher per node and
// re-runs the search on every knowledge update, which is exactly the workload
// this engine is shaped for:
//
//   - The SCC decomposition of the received graph is recomputed only when the
//     view's revision moves (one knowledge event = one recomputation), on
//     reusable graph.Tarjan scratch.
//   - Per-SCC candidate lists are memoized by the component's member content.
//     A knowledge update dirties only the components it touches — a component
//     whose member set is unchanged has an unchanged induced subgraph (PD
//     records are immutable once received), so its (g+1)-core peel and its
//     enumeration survive the update verbatim; one that did change is peeled
//     on the decomposition's CSR and enumerated on bitsets, no graph built.
//   - Per-S1 verdict facts (the |OutTargets| count and bounds on κ(G[S1]))
//     are memoized across revisions and thresholds, so when a component does
//     grow, only subsets involving the new members pay for max-flow probes.
//
// Inside the engine a set is never a Go map: every process met — record owner
// or PD target — is interned to a dense index at first sight, a received PD
// and a candidate's S1 are ascending lists of such indices, and S2 is counted
// off those lists (outside). A model.IDSet is built only for what is
// returned: one Candidate per successful search, SinksAtGExact's list.
//
// Both memos live in one key space: a member set's key is the bytes of its
// interned-index bitset (no trailing zero bytes, so a key never depends on
// how many processes were interned when it was rendered). Keys are pure
// content identity — independent of ID values, of g and of the revision.
//
// The search is correct by the definitional oracle, not by a second engine:
// the tests compare every result with a walk over all subsets of the received
// set checked by View.IsSink and View.DeriveS2, which share no code with
// this file. The determinism contract of the trace layer needs that
// exactness — committee adoption timing is trace-visible, so the memos may
// only change how much work a search does, never its result.
//
// Soundness of the content-keyed memos rests on two view invariants that
// discovery maintains by construction and the mutator API enforces: views
// grow monotonically (records are never removed) and a received PD is never
// replaced (View.SetPD bumps the generation if one ever is, which drops
// every memo). A view mutated behind the API needs a fresh Searcher.
//
// A Searcher is for one goroutine. The zero value is ready to use. It only
// reads the views it searches, and returned candidates are the caller's.
type Searcher struct {
	view     *View
	gen      uint64
	rev      uint64
	received int
	valid    bool

	// comps is the current decomposition: each component's members as ascending
	// positions in ids (slices of arena) and its content key (of keyArena).
	comps    []sccComp
	arena    []int32
	keyArena []byte

	// procs holds what is kept per process under the index intern gave it:
	// append-only for the view generation (kept across RebindPreserving,
	// because the memo keys are built from the indices). sccCands memoizes
	// per-(g, component) candidate lists under uvarint(g) ‖ component key;
	// subsets memoizes per-S1 verdict facts under the S1 key.
	intern   model.IDIndex
	procs    []procRec
	sccCands map[string]*sccEntry
	subsets  map[string]*subsetFacts

	enum     poolEnum
	poolFlow graph.PoolFlow    // κ of pool subsets (≤ ExactLimit)
	flow     graph.FlowScratch // κ of whole candidates (> ExactLimit fallback)

	// Decomposition scratch: the received processes in ascending-ID order (ids
	// their IDs, node their interned indices — a position indexes both), the
	// CSR of the received graph over those positions and the Tarjan state.
	ids      []model.ID
	node     []int32
	adjStart []int32
	adjFlat  []int32
	scc      graph.Tarjan

	// Peel scratch, in the CSR's index space: deg[2u], deg[2u+1] are u's in-
	// and out-degree among the survivors of the peel under way; deg[2u] = -1
	// for every u that is not one.
	deg  []int32
	live []int32

	// Per-call scratch.
	s1Buf   []int32
	tgtBuf  []int32
	s2Buf   []model.ID
	keyBuf  []byte
	pairBuf []cachedCand
}

// procRec is one interned process. pd, once its record is seen (nil before),
// is the PD as its targets' interned indices, ascending by ID, itself left
// out, and never changes; pos is its position in the current decomposition
// (-1: no record in the view searched); mark is scratch, 0 between uses.
type procRec struct {
	id   model.ID
	pd   []int32
	pos  int32
	mark int32
}

type sccComp struct {
	idx []int32
	key []byte
}

// subsetFacts are the g-independent (out) and g-bounding (kLo/kHi) facts
// known about one S1 set. They depend only on the members' immutable PDs,
// so they never expire within a view generation.
type subsetFacts struct {
	out int32 // |OutTargets(S1)|; -1 until computed
	kLo int32 // κ(G[S1]) ≥ kLo proven
	kHi int32 // κ(G[S1]) < kHi proven; 0 = nothing proven yet
}

// kappa reports what the memo already proves about κ(G[S1]) ≥ k.
func (f *subsetFacts) kappa(k int32) (holds, known bool) {
	switch {
	case k <= f.kLo:
		return true, true
	case f.kHi != 0 && k >= f.kHi:
		return false, true
	}
	return false, false
}

// learn records the outcome of a κ(G[S1]) ≥ k probe kappa could not answer.
func (f *subsetFacts) learn(k int32, holds bool) {
	if holds {
		f.kLo = k
	} else {
		f.kHi = k
	}
}

// cachedCand is a passing S1 — its members' interned indices, ascending by
// ID — with its canonical decimal key (IDSet.Key of the set), the
// trace-visible order candidates are returned in.
type cachedCand struct {
	s1  []int32
	key string
}

func sortCands(cs []cachedCand) {
	slices.SortFunc(cs, func(a, b cachedCand) int { return cmp.Compare(a.key, b.key) })
}

// sccEntry is the memoized outcome of searching one component at one g: the
// S1 sets passing isSink's S1-side checks (P1, P3, κ), sorted by canonical
// key, plus whether the enumeration was exhaustive.
type sccEntry struct {
	cands []cachedCand
	exact bool
}

// Memo bounds: overflow clears the map (correctness is unaffected — the memo
// only saves recomputation). Protocol-sized views never approach these.
const (
	maxSubsetMemo = 1 << 17
	maxSCCMemo    = 1 << 12
)

// NewSearcher returns an empty searcher. The zero value works too.
func NewSearcher() *Searcher { return &Searcher{} }

// Search is the seam between the protocol stack and the sink/core search:
// the three committee-identification rules a node can run. *Searcher is the
// implementation; the seam exists so tests and the benchmark's tracer can
// wrap it (timing, or a fresh Searcher per call to pin memo transparency).
type Search interface {
	// FindSinkKnownF is Algorithm 2's decision step (threshold known).
	FindSinkKnownF(v *View, f int) (Candidate, bool)
	// FindCore is Algorithm 4's decision step (threshold unknown).
	FindCore(v *View) (Candidate, bool)
	// FindNaive is Observation 1's unsafe any-sink rule.
	FindNaive(v *View) (Candidate, bool)
}

// bind resets every memo and points the searcher at a (new) view or view
// generation.
func (s *Searcher) bind(v *View) {
	s.view, s.gen, s.valid = v, v.gen, false
	if s.sccCands == nil {
		s.sccCands = make(map[string]*sccEntry)
		s.subsets = make(map[string]*subsetFacts)
	} else {
		clear(s.sccCands)
		clear(s.subsets)
	}
	s.intern.Reset()
	s.procs, s.node = s.procs[:0], s.node[:0]
}

// RebindPreserving points the searcher at a different view while keeping its
// content-keyed state (the process table, the per-component candidate lists,
// the per-S1 verdict facts). The decomposition itself is recomputed on the
// next search. Sound only when every view the searcher visits draws its
// records from one immutable record universe — the same owner always mapping
// to the same PD set — differing only in which records are present. The
// worst-placement enumeration is exactly that workload: every f-subset's view
// is the full graph minus the subset's records, so a component with the same
// member content induces the same subgraph in every view, |OutTargets(S1)| is
// computed from S1's own PDs regardless of what else was received, and both
// memos stay valid across rebinds.
func (s *Searcher) RebindPreserving(v *View) {
	if s.sccCands == nil {
		s.bind(v)
		return
	}
	s.view, s.gen, s.valid = v, v.gen, false
}

// refresh brings the decomposition up to the view's current revision. At an
// unchanged revision this is two comparisons.
func (s *Searcher) refresh(v *View) {
	if s.view != v || s.gen != v.gen {
		s.bind(v)
	}
	// len(v.PD) is a tripwire for records inserted behind the mutator API:
	// such views still decompose correctly (the content memos only depend on
	// record immutability, which direct insertion preserves).
	if s.valid && s.rev == v.rev && s.received == len(v.PD) {
		return
	}
	s.decompose(v)
	s.rev, s.received, s.valid = v.rev, len(v.PD), true
}

// largestComponent decomposes v, which interns every process with a record in
// it, and returns the size of its largest strongly connected component.
func (s *Searcher) largestComponent(v *View) int {
	s.refresh(v)
	largest := 0
	for _, c := range s.comps {
		largest = max(largest, len(c.idx))
	}
	return largest
}

// setBit sets bit i of the bitset key growing at key[base:]. Growing on
// demand keeps the key canonical: its last byte always has a bit set.
func setBit(key []byte, base int, i int32) []byte {
	for len(key) <= base+int(i>>3) {
		key = append(key, 0)
	}
	key[base+int(i>>3)] |= 1 << (i & 7)
	return key
}

// internID returns id's interned index, handing out the next one if id is new.
func (s *Searcher) internID(id model.ID) int32 {
	x, added := s.intern.Insert(id)
	if added {
		s.procs = append(s.procs, procRec{id: id, pos: -1})
	}
	return int32(x)
}

// decompose recomputes the SCCs of the received graph and their content
// keys, interning the processes and records seen for the first time.
func (s *Searcher) decompose(v *View) {
	s.ids = s.ids[:0]
	for id := range v.PD {
		s.ids = append(s.ids, id)
	}
	slices.Sort(s.ids)
	for _, x := range s.node {
		s.procs[x].pos = -1
	}
	s.node = s.node[:0]
	for i, u := range s.ids {
		x := s.internID(u)
		if s.procs[x].pd == nil {
			tgts := v.PD[u].Sorted()
			pd := make([]int32, 0, len(tgts))
			for _, tgt := range tgts {
				if tgt != u {
					pd = append(pd, s.internID(tgt))
				}
			}
			s.procs[x].pd = pd
		}
		s.procs[x].pos = int32(i)
		s.node = append(s.node, x)
	}
	// CSR adjacency restricted to received targets, in sorted-ID index space
	// (the root and child order Digraph.SCCs uses).
	s.adjStart = append(s.adjStart[:0], 0)
	s.adjFlat = s.adjFlat[:0]
	for _, x := range s.node {
		for _, tgt := range s.procs[x].pd {
			if j := s.procs[tgt].pos; j >= 0 {
				s.adjFlat = append(s.adjFlat, j)
			}
		}
		s.adjStart = append(s.adjStart, int32(len(s.adjFlat)))
	}
	n := s.scc.Run(s.adjStart, s.adjFlat)
	// Both arenas are sized up front so component slices never move. Keys
	// stay slices of one byte arena: a Go string per component per
	// decomposition is a measurable share of a sweep's allocations.
	s.arena = slices.Grow(s.arena[:0], len(s.ids))
	s.keyArena = slices.Grow(s.keyArena[:0], n*(len(s.procs)/8+1))
	s.comps = s.comps[:0]
	for c := 0; c < n; c++ {
		at, keyAt := len(s.arena), len(s.keyArena)
		for _, i := range s.scc.Comp(c) {
			s.arena = append(s.arena, i)
			s.keyArena = setBit(s.keyArena, keyAt, s.node[i])
		}
		slices.Sort(s.arena[at:])
		s.comps = append(s.comps, sccComp{idx: s.arena[at:], key: s.keyArena[keyAt:]})
	}
	s.deg = slices.Grow(s.deg[:0], 2*len(s.ids))[:2*len(s.ids)]
	for i := range s.deg {
		s.deg[i] = -1
	}
}

// SinksAtGExact enumerates the candidates (S1, S2) with isSink(g, S1, S2) in
// the view, sorted by the canonical key of S1, and reports whether the
// enumeration was exhaustive.
//
// It is exhaustive when every peeled SCC of the received graph has ≤
// ExactLimit nodes: every valid S1 induces a strongly connected subgraph,
// hence lies inside one SCC; and κ(G[S1]) ≥ g+1 implies S1 survives directed
// (g+1)-core peeling, which is applied first as sound pruning.
func (s *Searcher) SinksAtGExact(v *View, g int) ([]Candidate, bool) {
	pairs, exact := s.collect(v, g)
	if len(pairs) == 0 {
		return nil, exact
	}
	out := make([]Candidate, 0, len(pairs))
	for _, c := range pairs {
		out = append(out, s.candidate(v, g, c))
	}
	return out, exact
}

// candidate is where a memoized S1 leaves the engine as sets.
func (s *Searcher) candidate(v *View, g int, c cachedCand) Candidate {
	s1 := make(model.IDSet, len(c.s1))
	for _, m := range c.s1 {
		s1.Add(s.procs[m].id)
	}
	_, s2 := s.outside(v, c.s1, g)
	return Candidate{G: g, S1: s1, S2: model.NewIDSet(s2...)}
}

// outside reads off the members' PD lists what isSink asks about the
// processes outside an S1: how many distinct ones S1 points at (P3) and which
// of them more than g members point at and S_known holds (P4's S2, ascending,
// in scratch that lasts until the next call).
func (s *Searcher) outside(v *View, s1 []int32, g int) (out int, s2 []model.ID) {
	for _, m := range s1 {
		s.procs[m].mark = -1
	}
	tgts := s.tgtBuf[:0]
	for _, m := range s1 {
		for _, tgt := range s.procs[m].pd {
			if r := &s.procs[tgt]; r.mark >= 0 {
				if r.mark == 0 {
					tgts = append(tgts, tgt)
				}
				r.mark++
			}
		}
	}
	s2 = s.s2Buf[:0]
	for _, tgt := range tgts {
		r := &s.procs[tgt]
		if int(r.mark) > g && v.Known.Has(r.id) {
			s2 = append(s2, r.id)
		}
		r.mark = 0
	}
	for _, m := range s1 {
		s.procs[m].mark = 0
	}
	slices.Sort(s2)
	s.tgtBuf, s.s2Buf = tgts, s2
	return len(tgts), s2
}

// members appends S1 ∪ S2 of a candidate at g to buf, ascending.
func (s *Searcher) members(v *View, g int, c cachedCand, buf []model.ID) []model.ID {
	_, s2 := s.outside(v, c.s1, g)
	for _, m := range c.s1 {
		id := s.procs[m].id
		for len(s2) > 0 && s2[0] < id {
			buf, s2 = append(buf, s2[0]), s2[1:]
		}
		buf = append(buf, id)
	}
	return append(buf, s2...)
}

// collect gathers the passing S1 sets at g across all components, sorted by
// canonical key, in the searcher's pair scratch (valid until the next call).
func (s *Searcher) collect(v *View, g int) (pairs []cachedCand, exact bool) {
	if g < 0 {
		return nil, true
	}
	s.refresh(v)
	s.pairBuf = s.pairBuf[:0]
	exact = true
	for i := range s.comps {
		if len(s.comps[i].idx) < 2*g+1 {
			// P1 cannot hold inside it: nothing to find, nothing to memoize,
			// and the (empty) answer is exact.
			continue
		}
		ent := s.entryFor(v, g, &s.comps[i])
		exact = exact && ent.exact
		s.pairBuf = append(s.pairBuf, ent.cands...)
	}
	sortCands(s.pairBuf)
	return s.pairBuf, exact
}

// first returns SinksAtGExact(v, g)'s first candidate, materializing only
// the winner.
func (s *Searcher) first(v *View, g int) (Candidate, bool) {
	pairs, _ := s.collect(v, g)
	if len(pairs) == 0 {
		return Candidate{}, false
	}
	return s.candidate(v, g, pairs[0]), true
}

// entryFor resolves one component's memoized search at g.
func (s *Searcher) entryFor(v *View, g int, comp *sccComp) *sccEntry {
	s.keyBuf = binary.AppendUvarint(s.keyBuf[:0], uint64(g))
	s.keyBuf = append(s.keyBuf, comp.key...)
	if e, ok := s.sccCands[string(s.keyBuf)]; ok {
		return e
	}
	// Materialize the key before searching: searchComp's subset enumeration
	// reuses keyBuf for per-S1 keys.
	key := string(s.keyBuf)
	e := s.searchComp(v, g, comp)
	if len(s.sccCands) >= maxSCCMemo {
		clear(s.sccCands)
	}
	s.sccCands[key] = e
	return e
}

// searchComp searches one component at g: (g+1)-core peel (sound for g ≥ 1
// only: singletons have no degree requirement), then exact subset
// enumeration up to ExactLimit, else structural candidates (the one path
// that builds a Digraph).
func (s *Searcher) searchComp(v *View, g int, comp *sccComp) *sccEntry {
	e := &sccEntry{exact: true}
	pool := s.peel(comp.idx, int32(g+1))
	if len(pool) < 2*g+1 {
		return e
	}
	if len(pool) <= ExactLimit {
		s.enumeratePool(v, g, pool, e)
	} else {
		e.exact = false
		// Structural candidates: the peeled pool itself and the pool minus
		// each single vertex, re-peeled.
		induced := s.inducedOf(comp)
		seen := make(map[string]bool)
		try := func(set model.IDSet) {
			if set.Len() < 2*g+1 {
				return
			}
			key := set.Key()
			if seen[key] {
				return
			}
			seen[key] = true
			s1 := make([]int32, 0, set.Len())
			for _, id := range set.Sorted() {
				s1 = append(s1, s.internID(id))
			}
			if s.passes(v, g, s1, set, induced) {
				e.cands = append(e.cands, cachedCand{s1: s1, key: key})
			}
		}
		whole := model.NewIDSet()
		for _, u := range pool {
			whole.Add(s.ids[u])
		}
		try(whole)
		sub := induced.Induced(whole)
		for _, u := range whole.Sorted() {
			rest := whole.Clone()
			rest.Remove(u)
			if g >= 1 {
				rest = sub.Induced(rest).DirectedCore(g + 1)
			}
			try(rest)
		}
	}
	sortCands(e.cands)
	return e
}

// peel returns, as ascending positions in reused scratch, the directed k-core
// of one component's induced subgraph (Digraph.DirectedCore, on the
// decomposition's CSR): what is left once every member with in- or out-degree
// < k among the survivors is gone. The core is the unique maximal fixed point,
// so whole passes reach it as well as any peel order. k ≤ 1 peels nothing:
// members of a component of ≥ 2 have both degrees ≥ 1, and a singleton is a
// valid S1 at g = 0.
func (s *Searcher) peel(comp []int32, k int32) []int32 {
	live := append(s.live[:0], comp...)
	for k > 1 {
		for _, u := range live {
			s.deg[2*u], s.deg[2*u+1] = 0, 0
		}
		for _, u := range live {
			for _, w := range s.adjFlat[s.adjStart[u]:s.adjStart[u+1]] {
				if s.deg[2*w] >= 0 {
					s.deg[2*w]++
					s.deg[2*u+1]++
				}
			}
		}
		kept := live[:0]
		for _, u := range live {
			if s.deg[2*u] >= k && s.deg[2*u+1] >= k {
				kept = append(kept, u)
			} else {
				s.deg[2*u] = -1
			}
		}
		if len(kept) == len(live) {
			break
		}
		live = kept
	}
	for _, u := range live {
		s.deg[2*u] = -1
	}
	s.live = live
	return live
}

// enumeratePool walks the subsets of the pool (≤ ExactLimit ≤ 64 positions,
// ascending) through the dominated-subset-pruned bitset enumerator: poolEnum
// cuts whole subtrees that cannot pass P1/P3/κ, the survivors resolve their
// verdict facts by content key, and κ probes run on the pool-local PoolFlow
// engine — no per-subset graph materialization. The enumerator's prunes are
// sound (see poolEnum), so the passing set is exactly the plain mask walk's;
// a candidate is recorded only on pass.
func (s *Searcher) enumeratePool(v *View, g int, pool []int32, e *sccEntry) {
	// The members' marks carry their pool position plus one, an external
	// target's the negative of its number plus one, handed out at first sight.
	var adj, ext [64]uint64
	var members [64]int32
	for p, u := range pool {
		members[p] = s.node[u]
		s.procs[s.node[u]].mark = int32(p + 1)
	}
	exts := s.tgtBuf[:0]
	for p := range pool {
		for _, tgt := range s.procs[members[p]].pd {
			r := &s.procs[tgt]
			if r.mark > 0 {
				adj[p] |= 1 << (r.mark - 1)
				continue
			}
			if r.mark == 0 {
				exts = append(exts, tgt)
				r.mark = -int32(len(exts))
			}
			if x := -r.mark - 1; x < 64 {
				ext[p] |= 1 << x
			}
		}
	}
	for p := range pool {
		s.procs[members[p]].mark = 0
	}
	for _, tgt := range exts {
		s.procs[tgt].mark = 0
	}
	s.tgtBuf = exts
	pe := &s.enum
	pe.init(g, adj[:len(pool)], ext[:len(pool)], len(exts) <= 64)
	s.poolFlow.Reset(adj[:len(pool)])
	k := int32(g + 1)
	pe.run(func(inc uint64, out int, outExact bool) {
		key, s1 := s.keyBuf[:0], s.s1Buf[:0]
		for rest := inc; rest != 0; rest &= rest - 1 {
			m := members[bits.TrailingZeros64(rest)]
			key, s1 = setBit(key, 0, m), append(s1, m)
		}
		s.keyBuf, s.s1Buf = key, s1
		f := s.factsFor(key)
		if f.out < 0 {
			if !outExact {
				// The enumerator's count is a lower bound (the pool points at
				// more than 64 distinct external targets).
				out, _ = s.outside(v, s1, g)
			}
			f.out = int32(out)
		}
		if int(f.out) > g {
			return
		}
		if len(s1) > 1 {
			holds, known := f.kappa(k)
			if !known {
				holds = s.poolFlow.KappaAtLeast(inc, int(k))
				f.learn(k, holds)
			}
			if !holds {
				return
			}
		}
		buf := s.keyBuf[:0]
		for i, m := range s1 {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendUint(buf, uint64(s.procs[m].id), 10)
		}
		s.keyBuf = buf
		e.cands = append(e.cands, cachedCand{s1: slices.Clone(s1), key: string(buf)})
	})
}

// factsFor resolves the verdict-facts record of the S1 with the given key.
func (s *Searcher) factsFor(key []byte) *subsetFacts {
	if f, ok := s.subsets[string(key)]; ok {
		return f
	}
	if len(s.subsets) >= maxSubsetMemo {
		clear(s.subsets)
	}
	f := &subsetFacts{out: -1}
	s.subsets[string(key)] = f
	return f
}

// passes applies isSink's S1-side checks (P3 out-target bound, P2/κ
// connectivity) to one structural candidate, given as interned indices and
// as a set, through the per-S1 verdict memo. induced is the subgraph of its
// component; the caller checked P1.
func (s *Searcher) passes(v *View, g int, s1 []int32, set model.IDSet, induced *graph.Digraph) bool {
	key := s.keyBuf[:0]
	for _, m := range s1 {
		key = setBit(key, 0, m)
	}
	s.keyBuf = key
	f := s.factsFor(key)
	if f.out < 0 {
		out, _ := s.outside(v, s1, g)
		f.out = int32(out)
	}
	if int(f.out) > g {
		return false
	}
	if len(s1) <= 1 {
		return true
	}
	k := int32(g + 1)
	holds, known := f.kappa(k)
	if !known {
		s.flow.Load(induced.Induced(set))
		holds = s.flow.IsKStronglyConnected(int(k))
		f.learn(k, holds)
	}
	return holds
}

// inducedOf builds the component's induced subgraph of the received graph,
// for the structural fallback.
func (s *Searcher) inducedOf(comp *sccComp) *graph.Digraph {
	gd := graph.New()
	for _, u := range comp.idx {
		gd.AddNode(s.ids[u])
	}
	for _, u := range comp.idx {
		for _, w := range s.adjFlat[s.adjStart[u]:s.adjStart[u+1]] {
			if gd.HasNode(s.ids[w]) {
				gd.AddEdge(s.ids[u], s.ids[w])
			}
		}
	}
	return gd
}

// FindSinkKnownF implements the decision step of Algorithm 2 (the Sink
// algorithm of the authenticated BFT-CUP model): the process knows the fault
// threshold f and waits for a partition satisfying isSink(f, S1, S2).
func (s *Searcher) FindSinkKnownF(v *View, f int) (Candidate, bool) {
	return s.first(v, f)
}

// FindCore implements the decision step of Algorithm 4 (the Core algorithm of
// the BFT-CUPFT model): accept (g, S1, S2) iff isSink(g, S1, S2) holds and no
// proper subset Q1 ⊂ S1 forms a sink at any g′ > g. Searching g from the
// maximum downward makes the first hit satisfy the side condition (no sink at
// any higher g exists anywhere in the view, a fortiori among subsets of S1).
func (s *Searcher) FindCore(v *View) (Candidate, bool) {
	for g := v.MaxG(); g >= 0; g-- {
		if c, ok := s.first(v, g); ok {
			return c, true
		}
	}
	return Candidate{}, false
}

// FindNaive implements the straw-man rule of Observation 1: a process adopts
// the first partition it finds satisfying isSink at any g, scanning g upward.
// Section IV shows this (and any other no-f rule) is unsafe on plain k-OSR
// graphs; the Fig. 2 and Fig. 3 experiments reproduce the violation.
func (s *Searcher) FindNaive(v *View) (Candidate, bool) {
	for g := 0; g <= v.MaxG(); g++ {
		if c, ok := s.first(v, g); ok {
			return c, true
		}
	}
	return Candidate{}, false
}

// SearchReplay is the shared discovery-replay benchmark workload: the full
// view of one graph, inserted one record at a time in sorted owner order
// into a fresh view, with one search per insertion — the per-event search
// schedule a node runs. Both benchmark harnesses (the go-test benchmarks
// and `go run ./bench`) run replays through this one type, so their numbers
// measure the same schedule by construction.
type SearchReplay struct {
	full   *View
	owners []model.ID
	known  []model.ID
}

// NewSearchReplay captures the replay inputs for one graph.
func NewSearchReplay(g *graph.Digraph) *SearchReplay {
	full := borrowedView(g)
	return &SearchReplay{full: full, owners: full.Received().Sorted(), known: full.Known.Sorted()}
}

// Run replays the schedule against a fresh view and searcher, invoking
// search after every insertion. It reports whether any search succeeded.
func (r *SearchReplay) Run(search func(se *Searcher, v *View) bool) bool {
	v := NewView()
	se := NewSearcher()
	for _, id := range r.known {
		v.AddKnown(id)
	}
	found := false
	for _, owner := range r.owners {
		v.SetPD(owner, r.full.PD[owner])
		if search(se, v) {
			found = true
		}
	}
	return found
}
