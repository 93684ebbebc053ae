package matrix

import (
	"testing"
)

// TestFingerprintIdentityChaosSweep asserts monolithic ≡ incremental ≡
// sharded-then-merged on the chaos sweep: every cell injects loss,
// duplication, reorder, partitions and churn from the engine's seeded RNG,
// so the identity holds only if injection is fully deterministic per cell
// regardless of worker scheduling, which shard a cell lands in, or whether
// its compile cache entry was shared.
func TestFingerprintIdentityChaosSweep(t *testing.T) {
	src, err := ChaosSweep(Seeds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	runAllModes(t, "chaos, seeds 1:1", src)
}

// TestChaosSweepSerialParallelIdentical crosses fault injection with the
// worker pool: serial and parallel runs must carry the same fingerprint,
// guarding against injected-fault RNG state leaking between concurrently
// executing cells.
func TestChaosSweepSerialParallelIdentical(t *testing.T) {
	src, err := ChaosSweep(Seeds(1, 1))
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
		t.Fatalf("serial and parallel chaos sweeps diverge:\n  serial   %s\n  parallel %s", s, p)
	}
	for _, o := range serial.Outcomes {
		if o.Err != "" {
			t.Fatalf("cell %s errored: %s", o.ID, o.Err)
		}
	}
}

// TestChaosSweepDegradationMonotone reads the pure loss ladder out of the
// chaos sweep — f=1 cells with no partition and no churn, so the loss rate
// is the only thing varying — and asserts the graded-property degradation
// curve: at every loss step each of the four consensus properties holds in
// at most as many cells as at the step below, the uninjected baseline is
// perfect, and the curve's endpoints are pinned exactly (the sweep is
// deterministic, so these are exact values, not statistics). The f=2 arm of
// the sweep is the negative control — both graph families satisfy the
// paper's knowledge requirements only for f=1, so f=2 cells fail clean and
// injected alike and are excluded from the curve.
func TestChaosSweepDegradationMonotone(t *testing.T) {
	src, err := ChaosSweep(Seeds(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	losses := []float64{0, 0.05, 0.15, 0.3}
	idx := make(map[float64]int, len(losses))
	for i, l := range losses {
		idx[l] = i
	}
	type counts struct{ total, agr, val, integ, term int }
	curve := make([]counts, len(losses))
	for i, o := range rep.Outcomes {
		if o.Err != "" {
			t.Fatalf("cell %s errored: %s", o.ID, o.Err)
		}
		p := src.Cell(i).Params
		if p.F != 1 || len(p.Faults.Partitions) > 0 || len(p.Faults.Churn) > 0 {
			continue
		}
		j, ok := idx[p.Faults.Loss]
		if !ok {
			t.Fatalf("cell %s has unexpected loss rate %v", o.ID, p.Faults.Loss)
		}
		c := &curve[j]
		c.total++
		if o.Agreement {
			c.agr++
		}
		if o.Validity {
			c.val++
		}
		if o.Integrity {
			c.integ++
		}
		if o.Termination {
			c.term++
		}
	}
	for j, c := range curve {
		t.Logf("loss=%.2f: agreement %d/%d validity %d/%d integrity %d/%d termination %d/%d",
			losses[j], c.agr, c.total, c.val, c.total, c.integ, c.total, c.term, c.total)
		if c.total != 4 {
			t.Fatalf("loss=%.2f ladder has %d cells, want 4 (2 graphs × 2 seeds)", losses[j], c.total)
		}
		if j == 0 {
			continue
		}
		prev := curve[j-1]
		if c.agr > prev.agr || c.val > prev.val || c.integ > prev.integ || c.term > prev.term {
			t.Fatalf("degradation curve not monotone at loss=%.2f: %+v after %+v", losses[j], c, prev)
		}
	}
	base, worst := curve[0], curve[len(curve)-1]
	if base.agr != 4 || base.val != 4 || base.integ != 4 || base.term != 4 {
		t.Fatalf("uninjected baseline imperfect: %+v", base)
	}
	// Exact pinned endpoint: at 30%% loss the hardened protocol keeps the
	// safety properties in every cell but no cell terminates within the 10s
	// horizon.
	if worst.agr != 4 || worst.val != 4 || worst.integ != 4 || worst.term != 0 {
		t.Fatalf("loss=0.3 endpoint moved: %+v (want safety 4/4, termination 0/4)", worst)
	}
}
