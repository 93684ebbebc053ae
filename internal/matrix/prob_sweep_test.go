package matrix

import (
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

// TestFingerprintIdentityProbabilisticSweep asserts monolithic ≡
// incremental ≡ sharded-then-merged on the probabilistic sweep: every cell
// builds its graph from (family, n, density, seed), so the identity holds
// only if generation, compile caching, and the bitset search are all
// deterministic per cell regardless of worker scheduling or which shard a
// cell lands in.
func TestFingerprintIdentityProbabilisticSweep(t *testing.T) {
	src, err := ProbabilisticSweep(Seeds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	runAllModes(t, "probabilistic, seeds 1:1", src)
}

// TestProbabilisticSweepSerialParallelIdentical crosses the probabilistic
// families with the worker pool: serial and parallel runs must carry the
// same fingerprint, guarding against shared-RNG or compile-cache state
// leaking between concurrently built random graphs.
func TestProbabilisticSweepSerialParallelIdentical(t *testing.T) {
	src, err := ProbabilisticSweep(Seeds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(src, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(src, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial.Fingerprint(), parallel.Fingerprint(); s != p {
		t.Fatalf("serial and parallel probabilistic sweeps diverge:\n  serial   %s\n  parallel %s", s, p)
	}
	for _, o := range serial.Outcomes {
		if o.Err != "" {
			t.Fatalf("cell %s errored: %s", o.ID, o.Err)
		}
	}
}

// TestProbabilisticWorstPlacementMatchesBruteForce cross-checks the swept
// byz=worst placement on an ER cell against kosr.WorstPlacement run directly
// on the identical built graph: the compile pipeline must select exactly the
// adversarial subset the brute-force grading does, or the "worst case"
// column of the emergence report would be quietly optimistic.
func TestProbabilisticWorstPlacementMatchesBruteForce(t *testing.T) {
	d, err := graph.ParseDef("er:n=10,p=0.5")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		for f := 1; f <= 2; f++ {
			p := scenario.Params{
				Graph:   d,
				Mode:    core.ModeKnownF,
				F:       f,
				Auto:    scenario.AutoByz{Kind: scenario.ByzSilent, Count: f, Place: scenario.PlaceWorst},
				Net:     scenario.NetParams{Kind: scenario.NetSync},
				Horizon: 5 * sim.Second,
				Seed:    seed,
			}
			c, err := p.Compile()
			if err != nil {
				t.Fatalf("seed %d f=%d: %v", seed, f, err)
			}
			b, err := d.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := kosr.WorstPlacement(b.G, f)
			if err != nil {
				t.Fatalf("seed %d f=%d: WorstPlacement: %v", seed, f, err)
			}
			if len(c.Byz) != want.Byz.Len() {
				t.Fatalf("seed %d f=%d: compiled %d byz, brute force %d", seed, f, len(c.Byz), want.Byz.Len())
			}
			for id := range c.Byz {
				if !want.Byz.Has(id) {
					t.Fatalf("seed %d f=%d: compiled placement has %d, brute force chose %s",
						seed, f, id, want.Byz)
				}
			}
		}
	}
}
