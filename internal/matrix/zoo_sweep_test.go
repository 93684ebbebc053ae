package matrix

import (
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

// TestFingerprintIdentityWorstPlacement asserts monolithic ≡ incremental ≡
// sharded-then-merged on a byz=worst sweep: the worst-case placement search
// runs inside Compile, so every execution mode and every worker must resolve
// the identical placement for the identical graph. Worst-placed cells legitimately fail to terminate; the short horizon
// bounds their event volume, not the assertion.
func TestFingerprintIdentityWorstPlacement(t *testing.T) {
	a := Axes{
		Name:   "worst-sweep",
		Graphs: []graph.Def{def(t, "fig1b"), def(t, "kosr:sink=5,nonsink=3,k=2,extra=0.15")},
		Modes:  []core.Mode{core.ModeKnownF},
		Nets:   []scenario.NetParams{{Kind: scenario.NetSync}},
		Byz: []scenario.AutoByz{
			{Kind: scenario.ByzSilent, Count: 2, Place: scenario.PlaceTail},
			{Kind: scenario.ByzSilent, Count: 2, Place: scenario.PlaceWorst},
		},
		Seeds:   Seeds(1, 2),
		Horizon: 5 * sim.Second,
	}
	src, err := a.Source()
	if err != nil {
		t.Fatal(err)
	}
	runAllModes(t, "worst-sweep", src)
}

// TestZooSweepSerialParallelIdentical crosses every adversary-zoo behavior
// with the worker pool: the serial and parallel reports must carry the same
// fingerprint. This is the matrix-level guard against per-run Byzantine state
// (the colluding group's shared pool) leaking across cells through Runner or
// compile-cache reuse.
func TestZooSweepSerialParallelIdentical(t *testing.T) {
	a := Axes{
		Name:   "zoo-sweep",
		Graphs: []graph.Def{def(t, "fig1b")},
		Modes:  []core.Mode{core.ModeKnownF},
		Nets: []scenario.NetParams{
			{Kind: scenario.NetSync},
			{Kind: scenario.NetPartial, GST: 500 * sim.Millisecond},
		},
		Byz: []scenario.AutoByz{
			{Kind: scenario.ByzDelay, Count: 1, Place: scenario.PlaceTail},
			{Kind: scenario.ByzSelectiveSilent, Count: 1, Place: scenario.PlaceTail},
			{Kind: scenario.ByzEquivPD, Count: 1, Place: scenario.PlaceTail},
			{Kind: scenario.ByzCollude, Count: 2, Place: scenario.PlaceTail},
			{Kind: scenario.ByzSilent, Count: 1, Place: scenario.PlaceWorst},
		},
		Seeds:   Seeds(1, 2),
		Horizon: 5 * sim.Second,
	}
	src, err := a.Source()
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(src, Options{Parallelism: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(src, Options{Parallelism: 4, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial.Fingerprint(), parallel.Fingerprint(); s != p {
		t.Fatalf("serial and parallel zoo sweeps diverge:\n  serial   %s\n  parallel %s", s, p)
	}
	for i := range serial.Outcomes {
		if serial.Outcomes[i].Err != "" {
			t.Fatalf("cell %s errored: %s", serial.Outcomes[i].ID, serial.Outcomes[i].Err)
		}
	}
}
