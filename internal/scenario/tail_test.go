package scenario

import (
	"math/rand"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/sim"
)

// TestJitterBoundsMatchSim pins the counted tail's delay bounds to what the
// jittered network models draw: every draw lies within them, and for small
// bounds both ends are drawn.
func TestJitterBoundsMatchSim(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []sim.Time{-3, 0, 1, 2, 3, 4, 5, 8, 5 * sim.Millisecond} {
		lo, hi := jitterBounds(d)
		seen := map[sim.Time]bool{}
		for i := 0; i < 2000; i++ {
			for _, net := range []sim.NetworkModel{sim.Synchronous{Delta: d}, sim.PartialSync{GST: 0, Delta: d}} {
				got := max(net.Delay(1, 2, sim.Second, rng), 0) // Send clamps a negative delay to 0
				if got < lo || got > hi {
					t.Fatalf("Delta %d: %T drew %d, outside [%d, %d]", d, net, got, lo, hi)
				}
				seen[got] = true
			}
		}
		if d < 10 && (!seen[lo] || !seen[hi]) {
			t.Errorf("Delta %d: 4,000 draws never reached an end of [%d, %d]", d, lo, hi)
		}
	}
}

// TestQuiescenceCheckAllocatesNothing runs a cell that counts its tail, then
// repeats the check that passed on the paused engine: it must pass again,
// count the same, and allocate nothing.
func TestQuiescenceCheckAllocatesNothing(t *testing.T) {
	p := Params{
		Graph: graph.Def{Kind: graph.DefFigure, Figure: "fig1b"},
		Mode:  core.ModeKnownF,
		F:     -1,
		Byz:   map[model.ID]ByzSpec{8: {Kind: ByzSilent}},
		Net:   NetParams{Kind: NetSync},
		Seed:  1,
	}
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var r Runner
	res, err := r.Run(c, p.Seed, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.CountedFrom == 0 {
		t.Fatal("the cell simulated every event; want a counted tail")
	}
	tl := &r.tail
	want := [3]int64{tl.getPDs, tl.setPDs, tl.bytes}
	end := res.Elapsed + sim.Second
	allocs := testing.AllocsPerRun(20, func() {
		if !tl.quiescent(r.engine, res.CountedFrom, end) {
			t.Fatal("a repeated check on the paused engine failed")
		}
	})
	if got := [3]int64{tl.getPDs, tl.setPDs, tl.bytes}; got != want {
		t.Fatalf("repeated check counted %v, the run %v", got, want)
	}
	if allocs != 0 {
		t.Fatalf("a quiescence check allocates %.0f objects, want 0", allocs)
	}
}
