package matrix

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/bftcup/bftcup/internal/sim"
)

// AxisStat aggregates outcomes sharing one axis value.
type AxisStat struct {
	// Value is the axis value label (e.g. a graph name or "sync").
	Value string `json:"value"`
	// Cells / Consensus / Errors count the outcomes with this value, how
	// many reached consensus, and how many errored.
	Cells     int `json:"cells"`
	Consensus int `json:"consensus"`
	Errors    int `json:"errors"`
	// Agreement / Validity / Integrity / Termination count outcomes that
	// achieved each graded property individually — the per-axis emergence
	// rates the probabilistic sweep reports (a random graph can preserve
	// safety yet fail termination, and the split is the measurement). They
	// are derived state like Cells/Consensus: the report fingerprint hashes
	// outcomes, never axis tables, so adding them changes no fingerprint.
	Agreement   int `json:"agreement"`
	Validity    int `json:"validity"`
	Integrity   int `json:"integrity"`
	Termination int `json:"termination"`
}

// Report is the aggregated result of a matrix run. Every field except the
// wall-clock ones (WallNS, per-outcome WallNS, Parallelism) is a pure
// function of the cells and their deterministic execution — Fingerprint
// hashes exactly that, and the regression tests assert serial and parallel
// fingerprints agree.
type Report struct {
	// Name labels the sweep the report came from.
	Name string `json:"name,omitempty"`
	// Cells / Consensus / Errors are the whole-sweep counts.
	Cells     int `json:"cells"`
	Consensus int `json:"consensus"`
	Errors    int `json:"errors"`
	// Mismatches / Expected count expectation-carrying cells that diverged
	// from the paper's prediction, and how many carried one at all.
	Mismatches int `json:"mismatches"`
	Expected   int `json:"expected"`
	// Parallelism is the worker count that produced the report (0 for a
	// merged report); WallNS is wall-clock time. Both are excluded from the
	// fingerprint.
	Parallelism int   `json:"parallelism"`
	WallNS      int64 `json:"wall_ns"`

	// FingerprintHex is filled in by JSON() so emitted reports carry their
	// own deterministic fingerprint; it is derived state, never aggregated
	// and never part of the Fingerprint hash itself.
	FingerprintHex string `json:"fingerprint,omitempty"`

	// TotalMessages / TotalBytes sum the simulator traffic of every cell;
	// MaxVirtualNS is the longest virtual run among them.
	TotalMessages int64    `json:"total_messages"`
	TotalBytes    int64    `json:"total_bytes"`
	MaxVirtualNS  sim.Time `json:"max_virtual_ns"`

	// Axes maps axis name (graph, mode, net, byz, seed) to per-value stats,
	// in first-seen (i.e. expansion) order. An axis with more than
	// maxAxisValues distinct values (a million-seed sweep) collects the rest
	// under one "(more)" bucket so reports stay bounded.
	Axes map[string][]AxisStat `json:"axes"`

	// Outcomes holds every cell's graded result in cell-index order. It is
	// nil for summary-only reports (an Aggregator or merge run without
	// outcome retention), whose fingerprint was sealed incrementally.
	Outcomes []Outcome `json:"outcomes,omitempty"`

	// fingerprint caches the digest sealed by the Aggregator that built the
	// report, so summary-only reports stay fingerprintable without their
	// outcomes.
	fingerprint string
}

// Fingerprint hashes every deterministic field of the report — the full
// outcome stream in cell order plus the aggregate counters — and excludes
// wall-clock measurements and parallelism. Two runs of the same cells agree
// on it no matter how they were scheduled, sharded, merged or dispatched: the
// digest is folded outcome by outcome (see the fingerprint type), so the
// incremental Aggregator seals the identical value a monolithic pass over
// the outcomes computes.
func (r *Report) Fingerprint() string {
	if r.fingerprint != "" {
		return r.fingerprint
	}
	if r.Outcomes == nil && r.FingerprintHex != "" {
		// A summary-only report that lost its sealing Aggregator (e.g. a
		// JSON round trip): the stamped digest is the only faithful one —
		// recomputing over zero outcomes would fabricate a plausible but
		// wrong value.
		return r.FingerprintHex
	}
	fp := newFingerprint()
	for i := range r.Outcomes {
		fp.add(&r.Outcomes[i])
	}
	return fp.finish(r)
}

// JSON renders the full report (summary + per-cell outcomes), stamped with
// its deterministic fingerprint.
func (r *Report) JSON() ([]byte, error) {
	r.FingerprintHex = r.Fingerprint()
	return json.MarshalIndent(r, "", "  ")
}

// WriteText renders a human-readable summary: per-axis tables, the failure
// list, totals. When cellRows is true every cell gets its own row (useful
// for small matrices; sweeps with hundreds of cells usually want the
// aggregates only). Summary-only reports (nil Outcomes) render the
// aggregate tables alone.
func (r *Report) WriteText(w io.Writer, cellRows bool) {
	name := r.Name
	if name == "" {
		name = "matrix"
	}
	fmt.Fprintf(w, "# %s: %d cells, %d consensus, %d failed, %d errors",
		name, r.Cells, r.Consensus, r.Cells-r.Consensus-r.Errors, r.Errors)
	if r.Expected > 0 {
		fmt.Fprintf(w, ", %d/%d matched the paper", r.Expected-r.Mismatches, r.Expected)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "# %d workers, %.2fs wall, %d msgs, %d wire bytes\n\n",
		r.Parallelism, float64(r.WallNS)/1e9, r.TotalMessages, r.TotalBytes)

	for _, axis := range []string{"graph", "mode", "net", "byz", "seed"} {
		stats := r.Axes[axis]
		if len(stats) < 2 {
			continue
		}
		fmt.Fprintf(w, "## by %s\n\n", axis)
		fmt.Fprintf(w, "| %s | cells | consensus | agree | valid | integr | term | errors |\n|---|---|---|---|---|---|---|---|\n", axis)
		for _, st := range stats {
			fmt.Fprintf(w, "| %s | %d | %d | %d | %d | %d | %d | %d |\n",
				st.Value, st.Cells, st.Consensus, st.Agreement, st.Validity, st.Integrity, st.Termination, st.Errors)
		}
		fmt.Fprintln(w)
	}

	if r.Outcomes == nil {
		return
	}

	if cellRows {
		fmt.Fprintln(w, "| cell | verdict | failure | virtual | msgs | bytes |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|")
		for i := range r.Outcomes {
			o := &r.Outcomes[i]
			verdict := "✓"
			switch {
			case o.Err != "":
				verdict = "error"
			case !o.Consensus:
				verdict = "✗"
			}
			fail := o.FailureMode
			if fail == "" {
				fail = "—"
			}
			if o.Err != "" {
				fail = o.Err
			}
			fmt.Fprintf(w, "| `%s` | %s | %s | %s | %d | %d |\n",
				o.ID, verdict, fail, o.VirtualNS, o.Messages, o.Bytes)
		}
		fmt.Fprintln(w)
		return
	}

	var failed []string
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		switch {
		case o.Err != "":
			failed = append(failed, fmt.Sprintf("- `%s`: error: %s", o.ID, o.Err))
		case o.Match != nil && !*o.Match:
			failed = append(failed, fmt.Sprintf("- `%s`: measured %t, paper predicts %t", o.ID, o.Consensus, *o.Expect))
		case o.Match == nil && !o.Consensus:
			failed = append(failed, fmt.Sprintf("- `%s`: %s", o.ID, o.FailureMode))
		}
	}
	if len(failed) > 0 {
		fmt.Fprintln(w, "## cells without consensus / diverging from the paper")
		fmt.Fprintln(w)
		fmt.Fprintln(w, strings.Join(failed, "\n"))
		fmt.Fprintln(w)
	}
}
