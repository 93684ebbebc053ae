package kosr

import "github.com/bftcup/bftcup/internal/model"

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

// size is |S1 ∪ S2|, counted without building the union.
func (c Candidate) size() int {
	s := c.S1.Len()
	for id := range c.S2 {
		if !c.S1.Has(id) {
			s++
		}
	}
	return s
}

// QuorumSize returns the committee quorum ⌈(|S|+g+1)/2⌉ from [11], quoted in
// Section II of the paper: any two such quorums intersect in ≥ g+1 processes.
func (c Candidate) QuorumSize() int {
	return (c.size() + c.G + 1 + 1) / 2 // ⌈(s+g+1)/2⌉
}

// AnswerThreshold returns ⌈(|S|+1)/2⌉ — how many identical DECIDEDVAL
// answers a non-member needs (Algorithm 3, line 7).
func (c Candidate) AnswerThreshold() int {
	return (c.size() + 1 + 1) / 2 // ⌈(s+1)/2⌉
}

// ExactLimit is the peeled-SCC size up to which the sink search enumerates
// subsets exhaustively (affordable at 20 thanks to poolEnum's
// dominated-subset pruning). Above it, the search falls back to structural
// candidates (the peeled pool and its single-vertex deletions), which
// suffices for well-formed views but is marked as inexact in checker reports.
const ExactLimit = 20

// MaxG returns the largest g at which any sink exists in the view, bounded by
// (|received|-1)/2 (P1 forces |S1| ≥ 2g+1).
func (v *View) MaxG() int {
	return (len(v.PD) - 1) / 2
}
