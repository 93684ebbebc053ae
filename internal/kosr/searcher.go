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
//   - P2, κ(G[S1]) ≥ g+1, is settled only for the candidates a caller reads.
//     A component's entry holds every S1 that passes P1 and P3, in key order;
//     the facts memo and degree exit 1 settle P2 where they can, and the
//     entry runs κ flows in key order on the pool rows it enumerated on until
//     one S1 passes. So each entry leads with its first passer and the rest
//     stays open. Components are disjoint and each entry is sorted, so the
//     smallest of the entries' first passers is the first candidate of the
//     whole view: the find rules settle nothing more. A caller that reads
//     further — SinksAtGExact, the extended-k-OSR sweep, the worst-placement
//     witnesses — settles each candidate it needs through the facts memo,
//     or, on a miss, with a flow schedule on S1's own rows.
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

	enum poolEnum
	flow graph.FlowScratch // κ of S1 candidates, loaded with one pool's or one S1's rows
	mask [1]uint64         // an enumerated subset, as flow's member set
	rows []uint64          // settle's scratch: S1's own rows, then its member set

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
	entBuf  []*sccEntry

	// A component search's candidates as record files them: their S1s back to
	// back, their keys back to back, and where each ends in the two. The
	// entry takes found and foundS1 over; scratch a searcher kept for them
	// would hold a copy of its largest search's candidates for its lifetime,
	// in each of a cell's searchers.
	found    []cachedCand
	foundS1  []int32
	foundKey []byte
	foundEnd []int32
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

// cachedCand is an S1 that passes P1 and P3 — its members' interned
// indices, ascending by ID — with its canonical decimal key (IDSet.Key of the
// set), the trace-visible order candidates are returned in, and its verdict
// facts, which hold P2's answer once it is settled. Every copy of a candidate
// shares the facts, so a verdict settled through one reaches them all.
type cachedCand struct {
	s1    []int32
	key   string
	facts *subsetFacts
}

func sortCands(cs []cachedCand) {
	slices.SortFunc(cs, func(a, b cachedCand) int { return cmp.Compare(a.key, b.key) })
}

// sccEntry is the memoized outcome of searching one component at one g: the
// S1 sets passing P1 and P3, sorted by canonical key, plus whether the
// enumeration was exhaustive. Those whose P2 (κ) the search found failing are
// left out up to the first that passes, which leads the list; past it, P2 is
// settled where the facts or degree exit 1 decided it and open elsewhere.
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
// (g+1)-core peeling, which is applied first as sound pruning. It settles
// every candidate's P2.
func (s *Searcher) SinksAtGExact(v *View, g int) ([]Candidate, bool) {
	pairs, exact := s.collect(v, g)
	var out []Candidate
	for _, c := range pairs {
		if s.settle(c, g) {
			out = append(out, s.candidate(v, g, c))
		}
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

// entries resolves the memoized search at g of every component P1 does not
// rule out, in scratch valid until the next call, and reports whether all of
// them were exhaustive.
func (s *Searcher) entries(v *View, g int) (ents []*sccEntry, exact bool) {
	ents, exact = s.entBuf[:0], true
	if g < 0 {
		return ents, true
	}
	s.refresh(v)
	for i := range s.comps {
		if len(s.comps[i].idx) < 2*g+1 {
			// P1 cannot hold inside it: nothing to find, nothing to memoize,
			// and the (empty) answer is exact.
			continue
		}
		ent := s.entryFor(v, g, &s.comps[i])
		exact = exact && ent.exact
		ents = append(ents, ent)
	}
	s.entBuf = ents
	return ents, exact
}

// collect gathers the candidates at g across all components, sorted by
// canonical key, in the searcher's pair scratch (valid until the next call):
// every S1 passing P1 and P3 whose P2 is not known to fail. Each component's
// first passer is among them, settled; the others are as settled or as open
// as earlier reads left them, and settle decides one. The list is empty
// exactly when no candidate passes.
func (s *Searcher) collect(v *View, g int) (pairs []cachedCand, exact bool) {
	ents, exact := s.entries(v, g)
	k := int32(g + 1)
	pairs = s.pairBuf[:0]
	for _, ent := range ents {
		for _, c := range ent.cands {
			if holds, known := c.facts.kappa(k); holds || !known {
				pairs = append(pairs, c)
			}
		}
	}
	sortCands(pairs)
	s.pairBuf = pairs
	return pairs, exact
}

// first returns SinksAtGExact(v, g)'s first candidate, settling and
// materializing nothing but it: the smallest of the components' first
// passers.
func (s *Searcher) first(v *View, g int) (Candidate, bool) {
	ents, _ := s.entries(v, g)
	var head *cachedCand
	for _, ent := range ents {
		if len(ent.cands) > 0 && (head == nil || ent.cands[0].key < head.key) {
			head = &ent.cands[0]
		}
	}
	if head == nil {
		return Candidate{}, false
	}
	return s.candidate(v, g, *head), true
}

// settle decides P2, κ(G[S1]) ≥ g+1, for a candidate collect returned at g.
func (s *Searcher) settle(c cachedCand, g int) bool { return s.settleSet(c.facts, c.s1, int32(g+1)) }

// settleSet decides κ(G[S1]) ≥ k for the S1 with the given members (interned
// indices, in any order) and facts: from the facts where they hold the
// answer, else by a flow schedule on S1's own rows — the flow engine's pool
// rows are stale by then.
func (s *Searcher) settleSet(f *subsetFacts, s1 []int32, k int32) bool {
	holds, known := f.kappa(k)
	if known {
		return holds
	}
	// S1's rows are its members' PD lists restricted to S1, each member
	// marked with its position plus one.
	n, w := len(s1), (len(s1)+63)/64
	s.rows = slices.Grow(s.rows[:0], (n+1)*w)[:(n+1)*w]
	clear(s.rows)
	for p, m := range s1 {
		s.procs[m].mark = int32(p + 1)
	}
	for p, m := range s1 {
		for _, tgt := range s.procs[m].pd {
			if q := s.procs[tgt].mark - 1; q >= 0 {
				s.rows[p*w+int(q>>6)] |= 1 << (q & 63)
			}
		}
	}
	set := s.rows[n*w:]
	for p, m := range s1 {
		s.procs[m].mark = 0
		set[p>>6] |= 1 << (p & 63)
	}
	s.flow.LoadRows(n, s.rows[:n*w])
	holds = s.flow.KappaAtLeast(set, int(k))
	f.learn(k, holds)
	return holds
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
// enumeration up to ExactLimit, else structural candidates, and P2 in key
// order until a candidate passes.
func (s *Searcher) searchComp(v *View, g int, comp *sccComp) *sccEntry {
	e := &sccEntry{exact: true}
	pool := s.peel(comp.idx, int32(g+1))
	if len(pool) < 2*g+1 {
		return e
	}
	s.foundKey, s.foundEnd = s.foundKey[:0], s.foundEnd[:0]
	if len(pool) <= ExactLimit {
		s.enumeratePool(v, g, pool)
	} else {
		e.exact = false
		pool = slices.Clone(pool) // structural's re-peels reuse pool's scratch
		s.structural(v, g, pool)
	}
	cands := s.materialize()
	sortCands(cands)
	// Re-peels can meet: one candidate, one entry.
	cands = slices.CompactFunc(cands, func(a, b cachedCand) bool { return a.key == b.key })
	// The entry leads with its first passer; those that fail before it go.
	if i := s.settleFirst(g, pool, cands); i >= 0 {
		e.cands = cands[i:]
	}
	s.found, s.foundS1 = nil, nil // the entry's now
	return e
}

// settleFirst runs P2's flows on the pool's rows, which flow still holds, in
// key order until a candidate passes, and returns its position (-1: none
// does). P2 stays open for the candidates after it until a caller settles it.
func (s *Searcher) settleFirst(g int, pool []int32, cands []cachedCand) int {
	k := int32(g + 1)
	w := (len(pool) + 63) / 64
	s.rows = slices.Grow(s.rows[:0], w)[:w]
	set := s.rows
	for i, c := range cands {
		holds, known := c.facts.kappa(k)
		if !known {
			clear(set)
			for _, m := range c.s1 {
				q, _ := slices.BinarySearch(pool, s.procs[m].pos)
				set[q>>6] |= 1 << (q & 63)
			}
			holds = s.flow.KappaAtLeast(set, int(k))
			c.facts.learn(k, holds)
		}
		if holds {
			return i
		}
	}
	return -1
}

// structural tries the fallback's candidates on a pool larger than
// ExactLimit: the pool itself and the pool minus each member, re-peeled to
// its (g+1)-core, all on the decomposition's CSR. The κ engine is loaded once
// with the pool's rows, over which each candidate is its member set.
func (s *Searcher) structural(v *View, g int, pool []int32) {
	w := (len(pool) + 63) / 64
	rows := make([]uint64, len(pool)*w)
	for p, u := range pool {
		for _, x := range s.adjFlat[s.adjStart[u]:s.adjStart[u+1]] {
			if q, ok := slices.BinarySearch(pool, x); ok {
				rows[p*w+q>>6] |= 1 << (q & 63)
			}
		}
	}
	s.flow.LoadRows(len(pool), rows)
	set, rest := make([]uint64, w), make([]int32, 0, len(pool))
	for i := -1; i < len(pool); i++ {
		cand := pool
		if i >= 0 {
			rest = append(append(rest[:0], pool[:i]...), pool[i+1:]...)
			cand = s.peel(rest, int32(g+1))
		}
		if len(cand) < 2*g+1 {
			continue
		}
		clear(set)
		s1 := s.s1Buf[:0]
		for _, u := range cand {
			q, _ := slices.BinarySearch(pool, u)
			set[q>>6] |= 1 << (q & 63)
			s1 = append(s1, s.node[u])
		}
		s.s1Buf = s1
		if f := s.screen(v, g, s1, -1, set); f != nil {
			s.record(s1, f)
		}
	}
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
// verdict facts by content key, and the flow engine is loaded once with the
// pool's rows for settleFirst's κ probes — no per-subset graph
// materialization. The enumerator's prunes are sound (see poolEnum), so the
// set recorded is exactly the plain mask walk's survivors of screen.
func (s *Searcher) enumeratePool(v *View, g int, pool []int32) {
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
	s.flow.LoadRows(len(pool), adj[:len(pool)])
	pe.run(func(inc uint64, out int, outExact bool) {
		s1 := s.s1Buf[:0]
		for rest := inc; rest != 0; rest &= rest - 1 {
			s1 = append(s1, members[bits.TrailingZeros64(rest)])
		}
		s.s1Buf, s.mask[0] = s1, inc
		if !outExact {
			// A lower bound: the pool points at more than 64 distinct external
			// targets.
			out = -1
		}
		if f := s.screen(v, g, s1, out, s.mask[:]); f != nil {
			s.record(s1, f)
		}
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

// screen applies isSink's S1-side checks past P1 to an S1 given as ascending
// interned indices and as its member set over the rows flow holds: P3's bound
// on out-targets, and P2 — κ(G[S1]) ≥ g+1 — wherever the per-S1 verdict memo
// or the flow-free checks of KappaDecided settle it. It returns S1's facts,
// nil when S1 fails; facts that leave P2 open are settleFirst's to settle, or
// a later caller's. out is the enumerator's count of S1's out-targets, or -1
// to count them on the view.
func (s *Searcher) screen(v *View, g int, s1 []int32, out int, set []uint64) *subsetFacts {
	key := s.keyBuf[:0]
	for _, m := range s1 {
		key = setBit(key, 0, m)
	}
	s.keyBuf = key
	f := s.factsFor(key)
	if f.out < 0 {
		if out < 0 {
			out, _ = s.outside(v, s1, g)
		}
		f.out = int32(out)
	}
	if int(f.out) > g {
		return nil
	}
	k := int32(g + 1)
	holds, known := f.kappa(k)
	if !known {
		if holds, known = s.flow.KappaDecided(set, int(k)); known {
			f.learn(k, holds)
		}
	}
	if known && !holds {
		return nil
	}
	return f
}

// record files an S1 that passed screen, with its canonical decimal key, in
// the component search's scratch.
func (s *Searcher) record(s1 []int32, f *subsetFacts) {
	s.foundS1 = append(s.foundS1, s1...)
	for i, m := range s1 {
		if i > 0 {
			s.foundKey = append(s.foundKey, ',')
		}
		s.foundKey = strconv.AppendUint(s.foundKey, uint64(s.procs[m].id), 10)
	}
	s.foundEnd = append(s.foundEnd, int32(len(s.foundS1)), int32(len(s.foundKey)))
	s.found = append(s.found, cachedCand{facts: f})
}

// materialize hands the recorded candidates their S1s and keys, backed by one
// slice and one string for the whole component search.
func (s *Searcher) materialize() []cachedCand {
	s1s, keys := s.foundS1, string(s.foundKey)
	var at, keyAt int32
	for i := range s.found {
		end, keyEnd := s.foundEnd[2*i], s.foundEnd[2*i+1]
		s.found[i].s1, s.found[i].key = s1s[at:end:end], keys[keyAt:keyEnd]
		at, keyAt = end, keyEnd
	}
	return s.found
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
