package matrix

import (
	"maps"
	"reflect"
	"testing"

	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

// TestCountedTailMatchesSimulation holds the counted tail to the traced run,
// which simulates every event: cell by cell, an untraced run must read the
// same traffic (messages, bytes, per kind), Elapsed, verdicts and
// per-process outcomes. It covers the standard, adversary, probabilistic
// and chaos sweeps, and pins where the tail engages — on at least half the
// probabilistic cells, on no cell that injects faults (the chaos sweep's
// uninjected baseline is a clean cell), never in a traced run — so that a
// fast path which stops engaging, or engages where it must not, fails here.
func TestCountedTailMatchesSimulation(t *testing.T) {
	for _, c := range []struct {
		name  string
		sweep func([]int64) (CellSource, error)
		seeds []int64
		// minShare is the least share of cells that must count their tail.
		minShare float64
	}{
		{name: "standard", sweep: StandardSweep, seeds: Seeds(1, 3)},
		{name: "adversary", sweep: AdversarySweep, seeds: Seeds(1, 2)},
		{name: "probabilistic", sweep: ProbabilisticSweep, seeds: Seeds(1, 2), minShare: 0.5},
		{name: "probabilistic-late-seeds", sweep: ProbabilisticSweep, seeds: Seeds(9001, 9002), minShare: 0.5},
		{name: "chaos", sweep: ChaosSweep, seeds: Seeds(1, 1)},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			src, err := c.sweep(c.seeds)
			if err != nil {
				t.Fatal(err)
			}
			var counted, traced scenario.Runner
			n := 0
			first, last := sim.Time(-1), sim.Time(0)
			for i := 0; i < src.Len(); i++ {
				p := src.Cell(i).Params
				comp, err := p.Compile()
				if err != nil {
					t.Fatal(err)
				}
				got, err := counted.Run(comp, p.Seed, false)
				if err != nil {
					t.Fatal(err)
				}
				want, err := traced.Run(comp, p.Seed, true)
				if err != nil {
					t.Fatal(err)
				}
				if want.CountedFrom != 0 {
					t.Fatalf("%s: traced run counted its tail from %v", got.Name, want.CountedFrom)
				}
				if got.Messages != want.Messages || got.Bytes != want.Bytes || !maps.Equal(got.ByKind, want.ByKind) {
					t.Errorf("%s (counted from %v): traffic %d msgs, %d bytes, %v; simulated %d msgs, %d bytes, %v",
						got.Name, got.CountedFrom, got.Messages, got.Bytes, got.ByKind, want.Messages, want.Bytes, want.ByKind)
				}
				if got.Elapsed != want.Elapsed || got.Termination != want.Termination || got.Agreement != want.Agreement ||
					got.Validity != want.Validity || got.Integrity != want.Integrity || !reflect.DeepEqual(got.PerProcess, want.PerProcess) {
					t.Errorf("%s (counted from %v): outcome differs from the simulated one", got.Name, got.CountedFrom)
				}
				if got.CountedFrom > 0 && p.Faults.Enabled() {
					t.Errorf("%s: injects faults, yet counted its tail from %v", got.Name, got.CountedFrom)
				}
				if got.CountedFrom > 0 {
					n++
					if first < 0 || got.CountedFrom < first {
						first = got.CountedFrom
					}
					last = max(last, got.CountedFrom)
				}
			}
			t.Logf("%d of %d cells counted their tail, from %v to %v", n, src.Len(), max(first, 0), last)
			if float64(n) < c.minShare*float64(src.Len()) {
				t.Errorf("%d of %d cells counted their tail, want at least %.0f%%", n, src.Len(), 100*c.minShare)
			}
		})
	}
}
