package matrix

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
)

// fingerprint folds outcome lines into a streaming SHA-256; finish appends
// the aggregate-totals line and returns the digest. Splitting the hash this
// way (outcomes first, totals last) is what lets the Aggregator compute the
// report fingerprint online in O(1) memory — the totals are only known after
// the last outcome, so they close the stream instead of opening it. Both
// Report.Fingerprint and the Aggregator use this one implementation, which
// is why monolithic, incremental, sharded-merged and distributed executions
// cannot disagree.
type fingerprint struct {
	h hash.Hash
}

func newFingerprint() fingerprint {
	return fingerprint{h: sha256.New()}
}

// add folds one outcome, in cell-index order.
func (f *fingerprint) add(o *Outcome) {
	fmt.Fprintf(f.h, "%d|%s|%s|%s|%s|%s|%d|%d|%t%t%t%t%t|%s|%d|%d|%d|%s|%d|%s\n",
		o.Index, o.ID, o.Graph, o.Mode, o.Net, o.Byz, o.F, o.Seed,
		o.Consensus, o.Agreement, o.Validity, o.Integrity, o.Termination,
		o.FailureMode, o.VirtualNS, o.Messages, o.Bytes,
		o.TraceDigest, o.TraceEvents, o.Err)
	if o.Expect != nil {
		fmt.Fprintf(f.h, "expect=%t match=%t\n", *o.Expect, *o.Match)
	}
}

// finish appends the totals line from the report's deterministic aggregate
// fields and returns the hex digest. It consumes the stream: no add may
// follow.
func (f *fingerprint) finish(r *Report) string {
	fmt.Fprintf(f.h, "cells=%d consensus=%d errors=%d mismatches=%d expected=%d msgs=%d bytes=%d maxvirt=%d\n",
		r.Cells, r.Consensus, r.Errors, r.Mismatches, r.Expected,
		r.TotalMessages, r.TotalBytes, r.MaxVirtualNS)
	return hex.EncodeToString(f.h.Sum(nil))
}

// maxAxisValues bounds how many distinct values one axis tracks
// individually; beyond it new values fold into a single overflow bucket
// (labelled axisOverflow). A million-seed sweep would otherwise grow a
// million seed-axis rows — the cap is what keeps the Aggregator's memory
// independent of the sweep size. The fingerprint is unaffected: it hashes
// outcomes, not axis tables.
const maxAxisValues = 1024

// axisOverflow labels the bucket collecting values past maxAxisValues.
const axisOverflow = "(more)"

// Aggregator folds outcomes into a Report incrementally: per-axis stats,
// grade counts, traffic totals and the fingerprint are all maintained
// online, so memory is O(min(distinct axis values, maxAxisValues)) —
// independent of the sweep's cell count. Outcomes arrive in position order:
// the worker pool hands them on so, and a merge takes them so from the
// streams.
type Aggregator struct {
	keep    bool
	rep     *Report
	fp      fingerprint
	next    int
	axisIdx map[string]map[string]int // axis → value → index into rep.Axes[axis]
	done    bool
}

// NewAggregator returns an empty aggregator. With keepOutcomes the report
// retains every outcome (what Run and per-cell renderings need); without it
// the report is the O(axes) summary (what streaming shards and huge merges
// need).
func NewAggregator(keepOutcomes bool) *Aggregator {
	return &Aggregator{
		keep:    keepOutcomes,
		rep:     &Report{Axes: make(map[string][]AxisStat)},
		fp:      newFingerprint(),
		axisIdx: make(map[string]map[string]int),
	}
}

// Add folds the outcome at position pos (0-based, dense). Positions arrive
// in order, each once: any position but the next is refused.
func (a *Aggregator) Add(pos int, o Outcome) error {
	if a.done {
		return fmt.Errorf("aggregate: Add(%d) after Report", pos)
	}
	if pos != a.next {
		return fmt.Errorf("aggregate: outcome for cell position %d, want position %d", pos, a.next)
	}
	a.next++
	rep := a.rep
	rep.Cells++
	if o.Err != "" {
		rep.Errors++
	}
	if o.Consensus {
		rep.Consensus++
	}
	if o.Expect != nil {
		rep.Expected++
		if o.Match != nil && !*o.Match {
			rep.Mismatches++
		}
	}
	rep.TotalMessages += o.Messages
	rep.TotalBytes += o.Bytes
	if o.VirtualNS > rep.MaxVirtualNS {
		rep.MaxVirtualNS = o.VirtualNS
	}
	a.bump("graph", o.Graph, &o)
	a.bump("mode", o.Mode, &o)
	a.bump("net", o.Net, &o)
	a.bump("byz", o.Byz, &o)
	a.bump("seed", fmt.Sprintf("%d", o.Seed), &o)
	a.fp.add(&o)
	if a.keep {
		rep.Outcomes = append(rep.Outcomes, o)
	}
	return nil
}

// bump counts the outcome under one axis value, in first-seen order.
func (a *Aggregator) bump(axis, value string, o *Outcome) {
	idx, ok := a.axisIdx[axis]
	if !ok {
		idx = make(map[string]int)
		a.axisIdx[axis] = idx
	}
	i, ok := idx[value]
	if !ok {
		if len(idx) >= maxAxisValues {
			value = axisOverflow
			if i, ok = idx[value]; !ok {
				i = len(a.rep.Axes[axis])
				idx[value] = i
				a.rep.Axes[axis] = append(a.rep.Axes[axis], AxisStat{Value: value})
			}
		} else {
			i = len(a.rep.Axes[axis])
			idx[value] = i
			a.rep.Axes[axis] = append(a.rep.Axes[axis], AxisStat{Value: value})
		}
	}
	st := &a.rep.Axes[axis][i]
	st.Cells++
	if o.Consensus {
		st.Consensus++
	}
	if o.Err != "" {
		st.Errors++
	}
	if o.Agreement {
		st.Agreement++
	}
	if o.Validity {
		st.Validity++
	}
	if o.Integrity {
		st.Integrity++
	}
	if o.Termination {
		st.Termination++
	}
}

// Report seals the fingerprint and returns the report. Further Adds are
// refused; repeated calls return the same report.
func (a *Aggregator) Report(parallelism int) *Report {
	if !a.done {
		a.done = true
		a.rep.fingerprint = a.fp.finish(a.rep)
	}
	a.rep.Parallelism = parallelism
	return a.rep
}
