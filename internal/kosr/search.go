package kosr

import (
	"math/bits"
	"sort"

	"github.com/bftcup/bftcup/internal/model"
)

// Candidate is a sink identified in a view: the partition (S1, S2), the
// threshold g at which isSink holds, and derived committee parameters.
type Candidate struct {
	// G is the fault threshold at which isSink held.
	G int
	// S1 is the sink partition; S2 the ≤ G extra processes identified via
	// property P4.
	S1 model.IDSet
	S2 model.IDSet
}

// Members returns S1 ∪ S2 — the set the Sink/Core algorithm returns.
func (c Candidate) Members() model.IDSet { return c.S1.Union(c.S2) }

// QuorumSize returns the committee quorum ⌈(|S|+g+1)/2⌉ from [11], quoted in
// Section II of the paper: any two such quorums intersect in ≥ g+1 processes.
func (c Candidate) QuorumSize() int {
	s := c.Members().Len()
	return (s + c.G + 1 + 1) / 2 // ⌈(s+g+1)/2⌉
}

// AnswerThreshold returns ⌈(|S|+1)/2⌉ — how many identical DECIDEDVAL
// answers a non-member needs (Algorithm 3, line 7).
func (c Candidate) AnswerThreshold() int {
	s := c.Members().Len()
	return (s + 1 + 1) / 2 // ⌈(s+1)/2⌉
}

// ExactLimit is the SCC size up to which the sink search enumerates subsets
// exhaustively. Above it, the search falls back to structural candidates
// (whole SCC and its peeled cores), which suffices for well-formed views but
// is marked as inexact in checker reports. The bitset enumeration's
// dominated-subset pruning (poolEnum) makes 20 affordable where the plain
// 2^n walk stopped at 16.
const ExactLimit = 20

// SinksAtG enumerates candidates (S1, S2) with isSink(g, S1, S2) in the view.
// Results are deterministic: sorted by the canonical key of S1.
//
// The enumeration is exact for SCCs of the received graph with ≤ ExactLimit
// nodes (every valid S1 induces a strongly connected subgraph, hence lies
// inside one SCC; and κ(G[S1]) ≥ g+1 implies S1 survives directed
// (g+1)-core peeling, which is applied first as sound pruning).
func (v *View) SinksAtG(g int) []Candidate {
	exact := true
	cands := v.sinksAtG(g, &exact)
	return cands
}

// SinksAtGExact additionally reports whether the enumeration was exhaustive.
func (v *View) SinksAtGExact(g int) ([]Candidate, bool) {
	exact := true
	cands := v.sinksAtG(g, &exact)
	return cands, exact
}

func (v *View) sinksAtG(g int, exact *bool) []Candidate {
	if g < 0 {
		return nil
	}
	rg := v.ReceivedGraph()
	var out []Candidate
	var pe poolEnum
	seen := make(map[string]bool)
	tryS1 := func(s1 model.IDSet) {
		if s1.Len() < 2*g+1 {
			return
		}
		key := s1.Key()
		if seen[key] {
			return
		}
		seen[key] = true
		if t := v.OutTargets(s1); t.Len() > g {
			return
		}
		if s1.Len() > 1 && !rg.Induced(s1).IsKStronglyConnected(g+1) {
			return
		}
		out = append(out, Candidate{G: g, S1: s1, S2: v.DeriveS2(s1, g)})
	}
	for _, comp := range rg.SCCs() {
		// Sound pruning: any valid S1 inside this SCC survives
		// (g+1)-core peeling of the SCC's induced subgraph (g ≥ 1 only:
		// singletons have no degree requirement).
		pool := comp
		if g >= 1 {
			pool = rg.Induced(comp).DirectedCore(g + 1)
		}
		if pool.Len() < 2*g+1 {
			continue
		}
		if pool.Len() <= ExactLimit {
			// Pruned bitset enumeration: poolEnum's cuts are sound (it yields
			// a superset of the passing S1 sets) and tryS1 re-checks every
			// isSink property exactly, so the result matches a plain 2^n
			// subset walk — the equivalence tests pin that up to brute-force
			// sizes.
			sorted := pool.Sorted()
			pe.init(sorted, g, func(u model.ID, yield func(model.ID)) {
				for tgt := range v.PD[u] {
					yield(tgt)
				}
			})
			pe.run(func(mask uint64, _ int, _ bool) {
				s1 := model.NewIDSet()
				for rest := mask; rest != 0; {
					i := bits.TrailingZeros64(rest)
					rest &= rest - 1
					s1.Add(sorted[i])
				}
				tryS1(s1)
			})
		} else {
			*exact = false
			// Structural candidates: the peeled pool itself and the pool
			// minus each single low-degree vertex.
			tryS1(pool)
			sub := rg.Induced(pool)
			for _, u := range pool.Sorted() {
				rest := pool.Clone()
				rest.Remove(u)
				if g >= 1 {
					rest = sub.Induced(rest).DirectedCore(g + 1)
				}
				if rest.Len() >= 2*g+1 {
					tryS1(rest)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].S1.Key() < out[j].S1.Key() })
	return out
}

// MaxG returns the largest g at which any sink exists in the view, bounded by
// (|received|-1)/2 (P1 forces |S1| ≥ 2g+1).
func (v *View) MaxG() int {
	return (len(v.PD) - 1) / 2
}

// FindSinkKnownF implements the decision step of Algorithm 2 (the Sink
// algorithm of the authenticated BFT-CUP model): the process knows the fault
// threshold f and waits for a partition satisfying isSink(f, S1, S2).
func (v *View) FindSinkKnownF(f int) (Candidate, bool) {
	cands := v.SinksAtG(f)
	if len(cands) == 0 {
		return Candidate{}, false
	}
	return cands[0], true
}

// FindCore implements the decision step of Algorithm 4 (the Core algorithm of
// the BFT-CUPFT model): accept (g, S1, S2) iff isSink(g, S1, S2) holds and no
// proper subset Q1 ⊂ S1 forms a sink at any g′ > g. Searching g from the
// maximum downward makes the first hit satisfy the side condition (no sink at
// any higher g exists anywhere in the view, a fortiori among subsets of S1).
func (v *View) FindCore() (Candidate, bool) {
	for g := v.MaxG(); g >= 0; g-- {
		if cands := v.SinksAtG(g); len(cands) > 0 {
			return cands[0], true
		}
	}
	return Candidate{}, false
}

// FindNaive implements the straw-man rule of Observation 1: a process adopts
// the first partition it finds satisfying isSink at any g, scanning g upward.
// Section IV shows this (and any other no-f rule) is unsafe on plain k-OSR
// graphs; the Fig. 2 and Fig. 3 experiments reproduce the violation.
func (v *View) FindNaive() (Candidate, bool) {
	for g := 0; g <= v.MaxG(); g++ {
		if cands := v.SinksAtG(g); len(cands) > 0 {
			return cands[0], true
		}
	}
	return Candidate{}, false
}

// IsSinkStar implements isSink*(S): ∃ g ≥ 0 and a partition S1 ∪ S2 = S with
// isSink(g, S1, S2). It returns the maximum such g (f_Gdi(S)) when ok.
// The enumeration over partitions is exact: S2 is always a subset of
// OutTargets(S1) and |S2| ≤ |T(S1)| ≤ g, so it suffices to move ≤ g members
// of S into S2.
func (v *View) IsSinkStar(s model.IDSet) (fG int, ok bool) {
	ids := s.Sorted()
	maxG := (s.Len() - 1) / 2
	for g := maxG; g >= 0; g-- {
		// Choose D = S2 ⊆ S with |D| ≤ g; S1 = S ∖ D.
		found := false
		forEachSubsetUpTo(ids, g, func(d model.IDSet) bool {
			s1 := s.Diff(d)
			if v.IsSink(g, s1, d) {
				found = true
				return true
			}
			return false
		})
		if found {
			return g, true
		}
	}
	return 0, false
}

// forEachSubsetUpTo yields every subset of ids with size ≤ maxSize until the
// callback returns true.
func forEachSubsetUpTo(ids []model.ID, maxSize int, yield func(model.IDSet) bool) {
	var rec func(start int, cur []model.ID) bool
	rec = func(start int, cur []model.ID) bool {
		if yield(model.NewIDSet(cur...)) {
			return true
		}
		if len(cur) == maxSize {
			return false
		}
		for i := start; i < len(ids); i++ {
			if rec(i+1, append(cur, ids[i])) {
				return true
			}
		}
		return false
	}
	rec(0, nil)
}
