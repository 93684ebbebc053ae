package scenario

import (
	"runtime"
	"testing"
	"weak"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/graph"
)

// storeBound is the most keyrings a key store holds: two generations of
// cryptox's 128.
const storeBound = 2 * 128

// TestRunKeysReleasedAndBounded pins where a run's crypto state lives: in
// its Runner's key store. Two Runners on one seed get registries of their
// own over equal keys; the registries a Runner created become garbage with
// it; and a Runner that outlives 300 seeds holds at most storeBound of them.
func TestRunKeysReleasedAndBounded(t *testing.T) {
	def, err := graph.ParseDef("fig1b")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Params{Graph: def, Mode: core.ModeKnownF, F: -1, Net: NetParams{Kind: NetSync}}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run := func(r *Runner, seed int64) *cryptox.Registry {
		t.Helper()
		res, err := r.Run(c, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consensus() {
			t.Fatalf("seed %d: no consensus", seed)
		}
		_, reg, err := r.keyStore().Keyring(seed+1, c.ids)
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}

	var a, b Runner
	regA, regB := run(&a, 1), run(&b, 1)
	if regA == regB {
		t.Fatal("two Runners on one seed share a registry")
	}
	signersB, _, err := b.keyStore().Keyring(2, c.ids)
	if err != nil {
		t.Fatal(err)
	}
	id := c.ids[0]
	msg := []byte("signed through the other Runner's store")
	if !regA.Verify(id, msg, signersB[id].Sign(msg)) {
		t.Fatal("the Runners' keyrings for one seed hold different keys")
	}

	// Released: a dropped Runner takes its registries along.
	dropped := func() []weak.Pointer[cryptox.Registry] {
		var r Runner
		var ws []weak.Pointer[cryptox.Registry]
		for seed := int64(1); seed <= 3; seed++ {
			ws = append(ws, weak.Make(run(&r, seed)))
		}
		return ws
	}()
	runtime.GC()
	for i, w := range dropped {
		if w.Value() != nil {
			t.Errorf("seed %d: the registry outlived its Runner", i+1)
		}
	}

	// Bounded: one Runner over 300 seeds.
	var r Runner
	ws := make([]weak.Pointer[cryptox.Registry], 300)
	for i := range ws {
		ws[i] = weak.Make(run(&r, int64(i+1)))
	}
	runtime.GC()
	live := 0
	for _, w := range ws {
		if w.Value() != nil {
			live++
		}
	}
	if ws[len(ws)-1].Value() == nil {
		t.Fatal("the last seed's registry is gone while its Runner lives")
	}
	runtime.KeepAlive(&r)
	if live > storeBound {
		t.Fatalf("one Runner over %d seeds keeps %d registries (bound %d)", len(ws), live, storeBound)
	}
	t.Logf("registries alive after %d seeds on one Runner: %d (bound %d)", len(ws), live, storeBound)
}
