package scenario

import (
	"strings"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/sim"
)

// compileTestParams is a representative compiled-path scenario: fig1b with
// the worked example's Byzantine process.
func compileTestParams() Params {
	return Params{
		Graph: graph.Def{Kind: graph.DefFigure, Figure: "fig1b"},
		Mode:  core.ModeKnownF,
		F:     -1,
		Byz: map[model.ID]ByzSpec{
			4: {Kind: ByzFakePD, ClaimedPD: model.NewIDSet(1, 2, 3)},
		},
		Net:  NetParams{Kind: NetSync},
		Seed: 31,
	}
}

// TestCompiledRunMatchesParamsRun pins compile-once-run-many to the one-shot
// path: one Compiled re-run by one Runner across seeds gives, seed for seed,
// the graded outcome, traffic counters, trace digest and name of a fresh
// Params.Run, traced (runTraced).
func TestCompiledRunMatchesParamsRun(t *testing.T) {
	p := compileTestParams()
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var r Runner
	for _, seed := range []int64{31, 32, 33} {
		q := p
		q.Seed = seed
		want, err := runTraced(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Run(c, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		if got.TraceDigest != want.TraceDigest || got.TraceEvents != want.TraceEvents {
			t.Fatalf("seed %d: compiled run diverges from Params.Run: %s/%d vs %s/%d",
				seed, got.TraceDigest[:16], got.TraceEvents, want.TraceDigest[:16], want.TraceEvents)
		}
		if got.Consensus() != want.Consensus() || got.Messages != want.Messages ||
			got.Bytes != want.Bytes || got.Elapsed != want.Elapsed {
			t.Fatalf("seed %d: compiled run graded differently", seed)
		}
		if got.Name != want.Name {
			t.Fatalf("seed %d: compiled run named %q, Params.Run %q", seed, got.Name, want.Name)
		}
	}
}

// TestCompiledIsReusableAcrossRunners asserts a single Compiled may be run
// by independent Runners (the per-worker sharing pattern) without one run
// contaminating another: interleaved runs under different seeds reproduce
// the digests of isolated runs.
func TestCompiledIsReusableAcrossRunners(t *testing.T) {
	p := compileTestParams()
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	digest := func(r *Runner, seed int64) string {
		res, err := r.Run(c, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		return res.TraceDigest
	}
	var solo Runner
	wantA, wantB := digest(&solo, 1), digest(&solo, 2)
	var r1, r2 Runner
	if d := digest(&r1, 1); d != wantA {
		t.Fatalf("runner 1 seed 1 diverged: %s vs %s", d[:16], wantA[:16])
	}
	if d := digest(&r2, 2); d != wantB {
		t.Fatalf("runner 2 seed 2 diverged: %s vs %s", d[:16], wantB[:16])
	}
	if d := digest(&r1, 2); d != wantB {
		t.Fatalf("runner 1 re-used for seed 2 diverged: %s vs %s", d[:16], wantB[:16])
	}
}

// TestCompileDefaultsApplied pins the execution defaults: Params with no net
// and no horizon compile to sync/5ms with a 60s horizon, and run to consensus.
func TestCompileDefaultsApplied(t *testing.T) {
	p := Params{Graph: graph.Def{Kind: graph.DefFigure, Figure: "fig1b"}, Mode: core.ModeKnownF, F: -1, Seed: 3}
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Horizon != 60*sim.Second {
		t.Fatalf("compiled horizon %v, want 60s", c.Horizon)
	}
	if c.Net != (sim.Synchronous{Delta: 5 * sim.Millisecond}) {
		t.Fatalf("compiled net model %#v, want sync/5ms", c.Net)
	}
	res, err := c.Run(p.Seed, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consensus() {
		t.Fatalf("defaulted run failed: %s", res.FailureMode())
	}
}

// TestAsyncCompilesSlow pins the one rule for the gossip and poll periods:
// every NetAsync cell compiles with them stretched, since the adversarial
// scheduler never lets such a run end and the default periods would fire
// until the horizon; sync and partial cells keep the module defaults (zero).
// The cells are every paper row plus a bare cell of each network kind, the
// shape cupsim's flags and the Simulate facade compile.
func TestAsyncCompilesSlow(t *testing.T) {
	var cells []Params
	for _, e := range AllExperiments() {
		cells = append(cells, e.Params)
	}
	for _, kind := range []NetKind{NetSync, NetPartial, NetAsync} {
		cells = append(cells, Params{Graph: figDef("fig1b"), Mode: core.ModeKnownF, F: -1, Net: NetParams{Kind: kind}})
	}
	async := 0
	for _, p := range cells {
		c, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		var period, poll sim.Time
		if p.Net.Kind == NetAsync {
			period, poll = 500*sim.Millisecond, 2*sim.Second
			async++
		}
		if c.Discovery.Period != period || c.PollPeriod != poll {
			t.Errorf("%s (%s): discovery period %v, poll period %v; want %v, %v",
				p.nameOrID(), p.Net.Kind, c.Discovery.Period, c.PollPeriod, period, poll)
		}
	}
	if async < 4 {
		t.Fatalf("only %d async cells checked", async)
	}
}

// cellAllocBudget gates the per-cell steady-state allocation count of the
// compiled fast path (the per-cell analogue of the engine's
// TestEventPathAllocsSteadyState). Before the Compile → Run split and the
// discovery/crypto hot-path work this cell allocated ~75,000 objects per run
// (measured at the PR-3 tree: per-request SETPDS re-encoding, per-record
// unmarshalling, per-cell keygen, fresh engine and maps); the compiled path
// brought it to ~6,000, the incremental sink/core search engine to ~1,700,
// peeling components on the CSR instead of a Digraph apiece to 1,538, and
// keeping delivered payloads instead of copying them (the replay memo, the
// pending buffers; one record per simulated process, not two) to 1,484. The
// count is deterministic; the budget sits 20 % over it, so it trips on a
// regression of any one of the mechanisms.
const cellAllocBudget = 1_780

// TestCompiledRunAllocsSteadyState gates the fast path's allocation win from
// both sides: under the absolute budget above, and never worse than the
// uncached Params.Run path for the same cell.
func TestCompiledRunAllocsSteadyState(t *testing.T) {
	p := compileTestParams()
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var r Runner
	if _, err := r.Run(c, p.Seed, false); err != nil {
		t.Fatal(err)
	}
	cached := testing.AllocsPerRun(5, func() {
		if _, err := r.Run(c, p.Seed, false); err != nil {
			t.Fatal(err)
		}
	})
	uncached := testing.AllocsPerRun(5, func() {
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/run: cached %.0f, uncached %.0f (budget %d)", cached, uncached, cellAllocBudget)
	if cached > cellAllocBudget {
		t.Fatalf("steady-state compiled run allocates %.0f objects (budget %d) — the per-cell fast path regressed", cached, cellAllocBudget)
	}
	if cached > uncached {
		t.Fatalf("compiled run allocates more (%.0f) than the uncached path (%.0f)", cached, uncached)
	}
}

// TestCompileRejectsStrayProcessIDs pins that an explicit Byzantine
// assignment or proposal for a process the built graph does not have fails
// to compile — a typo'd ID used to yield a fault-free run that read as an
// adversarial one — while the same keys on real nodes compile.
func TestCompileRejectsStrayProcessIDs(t *testing.T) {
	base := Params{Graph: graph.Def{Kind: graph.DefFigure, Figure: "fig1b"}, Mode: core.ModeKnownF, F: -1} // processes 1–8
	for _, tc := range []struct {
		name   string
		byz    map[model.ID]ByzSpec
		values map[model.ID]model.Value
		want   string // "" = compiles
	}{
		{name: "node byz and value", byz: map[model.ID]ByzSpec{4: {Kind: ByzSilent}}, values: map[model.ID]model.Value{8: model.Value("x")}},
		{name: "stray silent", byz: map[model.ID]ByzSpec{99: {Kind: ByzSilent}}, want: "byzantine process p99 not in graph"},
		{name: "stray among nodes", byz: map[model.ID]ByzSpec{4: {Kind: ByzSilent}, 9: {Kind: ByzFakePD}}, want: "byzantine process p9 not in graph"},
		{name: "stray owner of behaviour fields", byz: map[model.ID]ByzSpec{
			12: {Kind: ByzSelectiveSilent, AnswerTo: model.NewIDSet(1, 2), Withhold: model.NewIDSet(3), ClaimedPD: model.NewIDSet(1)},
		}, want: "byzantine process p12 not in graph"},
		{name: "stray as-correct", byz: map[model.ID]ByzSpec{0: {Kind: ByzAsCorrect}}, want: "byzantine process p0 not in graph"},
		{name: "stray value", values: map[model.ID]model.Value{99: model.Value("x")}, want: "proposal of process p99 not in graph"},
	} {
		p := base
		p.Byz, p.Values = tc.byz, tc.values
		_, err := p.Compile()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// A caller's own graph goes through the same check.
	p := Params{Name: "stray", Byz: map[model.ID]ByzSpec{99: {Kind: ByzSilent}}}
	if _, err := p.CompileGraph(graph.BuiltGraph{G: graph.Fig1b().G}); err == nil || !strings.Contains(err.Error(), "byzantine process p99 not in graph") {
		t.Errorf("CompileGraph: error %v, want the stray Byzantine process named", err)
	}
}
