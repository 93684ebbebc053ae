package matrix

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/scenario"
)

// uncachedOutcome replicates the pre-compile-cache per-cell execution path:
// a fresh compile and a fresh one-shot Compiled.Run per cell —
// no compile cache, no per-worker scratch reuse. The transparency tests pin
// the cached pipeline to this reference byte for byte.
func uncachedOutcome(c Cell, trace bool) Outcome {
	p := c.Params
	out := Outcome{
		Index: c.Index,
		ID:    p.ID(),
		Graph: p.Graph.String(),
		Mode:  p.Mode.String(),
		Net:   p.Net.Label(),
		Byz:   p.ByzLabel(),
		F:     p.F,
		Seed:  p.Seed,
	}
	var res *scenario.Result
	compiled, err := p.Compile()
	if err == nil {
		res, err = compiled.Run(p.Seed, trace)
	}
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Consensus = res.Consensus()
	out.Agreement = res.Agreement
	out.Validity = res.Validity
	out.Integrity = res.Integrity
	out.Termination = res.Termination
	out.FailureMode = res.FailureMode()
	out.VirtualNS = res.Elapsed
	out.Messages = res.Messages
	out.Bytes = res.Bytes
	out.TraceDigest = res.TraceDigest
	out.TraceEvents = res.TraceEvents
	if c.Expect != nil {
		want := c.Expect.Consensus
		match := want == out.Consensus
		out.Expect, out.Match = &want, &match
	}
	return out
}

// assertCacheTransparent runs src through the cached worker-pool pipeline
// and through the uncached per-cell reference, with tracing on, and asserts
// the outcomes — including per-cell event-trace digests — and the report
// fingerprints are identical. This is the cache-is-observably-transparent
// contract: compile caching, keyring caching, signature memoization and
// engine reuse may only change how fast a cell runs, never any bit of what
// it produces.
func assertCacheTransparent(t *testing.T, name string, src CellSource) {
	t.Helper()
	cached, err := Run(src, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	cached.Name = name

	agg := NewAggregator(true)
	for i := 0; i < src.Len(); i++ {
		if err := agg.Add(i, uncachedOutcome(src.Cell(i), true)); err != nil {
			t.Fatal(err)
		}
	}
	uncached := agg.Report(cached.Parallelism)
	uncached.Name = name

	for i := range cached.Outcomes {
		got, want := cached.Outcomes[i], uncached.Outcomes[i]
		got.WallNS, want.WallNS = 0, 0 // the one nondeterministic field
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %d diverges under caching:\n  cached:   %+v\n  uncached: %+v", i, got, want)
		}
		if got.TraceEvents == 0 && got.Err == "" {
			t.Fatalf("cell %d recorded no trace events — transparency check is vacuous", i)
		}
	}
	if g, w := cached.Fingerprint(), uncached.Fingerprint(); g != w {
		t.Fatalf("cached fingerprint %s != uncached %s", g[:16], w[:16])
	}
}

// TestCompileCacheTransparentStandardSweep pins cached ≡ uncached on the
// standard sweep: figure and generator graph families, two network models,
// clean and Byzantine placements, two seeds — the regime where the compile
// cache hits across seeds and the keyring cache hits across same-seed cells.
func TestCompileCacheTransparentStandardSweep(t *testing.T) {
	src, err := StandardSweep(Seeds(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	assertCacheTransparent(t, "standard sweep, seeds 1:2", src)
}

// TestCompileCacheTransparentExtendedKOSR pins cached ≡ uncached on a
// generated extended-k-OSR sweep, where every cell's graph is built from its
// own seed — every compile is a cache miss with a distinct CompileKey, and
// the cache must stay exactly as transparent.
func TestCompileCacheTransparentExtendedKOSR(t *testing.T) {
	a := Axes{
		Name:   "extended-transparency",
		Graphs: []graph.Def{def(t, "extended:core=4,noncore=2,extra=0.2")},
		Modes:  []core.Mode{core.ModeUnknownF},
		Nets:   []scenario.NetParams{{Kind: scenario.NetSync}},
		Seeds:  Seeds(1, 6),
	}
	src, err := a.Source()
	if err != nil {
		t.Fatal(err)
	}
	assertCacheTransparent(t, "extended-transparency", src)
}

// TestCompileCacheTransparentRuntimeErrors pins transparency on the error
// path the cache must not contaminate: a seed sweep whose cells all fail at
// run time (a Byzantine kind Validate and Compile accept but Run rejects)
// must produce per-cell error messages naming each cell's own seed — not
// the seed of the cell that populated the cache entry.
func TestCompileCacheTransparentRuntimeErrors(t *testing.T) {
	base := scenario.Params{
		Graph: def(t, "fig1b"),
		Mode:  core.ModeKnownF,
		F:     -1,
		Byz:   map[model.ID]scenario.ByzSpec{2: {Kind: scenario.ByzKind(99)}},
	}
	src, err := SeedSweep(base, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertCacheTransparent(t, "runtime-errors", src)
	rep, err := Run(src, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != src.Len() {
		t.Fatalf("%d of %d cells errored, want all", rep.Errors, src.Len())
	}
	for i, o := range rep.Outcomes {
		want := fmt.Sprintf("seed=%d", o.Seed)
		if !strings.Contains(o.Err, want) {
			t.Fatalf("cell %d error %q does not name its own seed (%s) — cached name leaked across seeds", i, o.Err, want)
		}
	}
}

// TestCompileKeySharing pins the cache-key contract from both sides: a seed
// sweep over a figure graph shares one CompileKey (compile once, run many),
// while a seed sweep over a random family keys each cell by the graph its
// seed builds (never a stale hit).
func TestCompileKeySharing(t *testing.T) {
	fig := scenario.Params{Graph: def(t, "fig1b"), Mode: core.ModeKnownF, F: -1}
	figA, figB := fig, fig
	figA.Seed, figB.Seed = 1, 2
	if figA.CompileKey() != figB.CompileKey() {
		t.Fatalf("figure-family seed sweep split the compile cache:\n  %s\n  %s", figA.CompileKey(), figB.CompileKey())
	}

	gen := scenario.Params{Graph: def(t, "kosr:sink=5,nonsink=3,k=2,extra=0.15"), Mode: core.ModeKnownF, F: -1}
	genA, genB := gen, gen
	genA.Seed, genB.Seed = 1, 2
	if genA.CompileKey() == genB.CompileKey() {
		t.Fatal("random-family cells with different build seeds share a compile key (stale graph reuse)")
	}
	genB.GraphSeed = 1 // pin the graph: now only the sim seed differs
	if genA.CompileKey() != genB.CompileKey() {
		t.Fatal("random-family cells with identical build seeds must share a compile key")
	}

	// Byzantine parameter contents (not just counts) must split the key.
	byzA, byzB := fig, fig
	byzA.Byz = map[model.ID]scenario.ByzSpec{4: {Kind: scenario.ByzFakePD, ClaimedPD: model.NewIDSet(1, 2, 3)}}
	byzB.Byz = map[model.ID]scenario.ByzSpec{4: {Kind: scenario.ByzFakePD, ClaimedPD: model.NewIDSet(1, 2)}}
	if byzA.CompileKey() == byzB.CompileKey() {
		t.Fatal("different claimed PDs share a compile key")
	}

	// A free-form name must not be able to mimic other key sections: a name
	// crafted to spell out another cell's values section must not collide
	// with the cell that genuinely carries those values.
	crafted, genuine := fig, fig
	crafted.Name = `x|val1="a"`
	genuine.Name = "x"
	genuine.Values = map[model.ID]model.Value{1: model.Value("a")}
	if crafted.CompileKey() == genuine.CompileKey() {
		t.Fatal("crafted name collides with a different cell's compile key (unescaped name injection)")
	}
}
