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
		Byz: map[model.ID]ByzParams{
			4: {Kind: ByzFakePD, ClaimedPD: []model.ID{1, 2, 3}},
		},
		Net:  NetParams{Kind: NetSync},
		Seed: 31,
	}
}

// TestCompiledRunMatchesSpecRun pins the Compile → Run pipeline to the
// classic Spec path: same graded outcome, traffic counters and trace digest,
// whether the Compiled is run once or re-run by one Runner across seeds.
func TestCompiledRunMatchesSpecRun(t *testing.T) {
	p := compileTestParams()
	p.Trace = true
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var r Runner
	for _, seed := range []int64{31, 32, 33} {
		q := p
		q.Seed = seed
		spec, err := q.Spec()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Run(c, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		if got.TraceDigest != want.TraceDigest || got.TraceEvents != want.TraceEvents {
			t.Fatalf("seed %d: compiled run diverges from spec run: %s/%d vs %s/%d",
				seed, got.TraceDigest[:16], got.TraceEvents, want.TraceDigest[:16], want.TraceEvents)
		}
		if got.Consensus() != want.Consensus() || got.Messages != want.Messages ||
			got.Bytes != want.Bytes || got.Elapsed != want.Elapsed {
			t.Fatalf("seed %d: compiled run graded differently", seed)
		}
		if got.Name != want.Name {
			t.Fatalf("seed %d: compiled run named %q, spec run %q", seed, got.Name, want.Name)
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

// TestSpecDefaultsApplied pins applyDefaults through both entry points: a
// Spec with no net and no horizon runs under sync/5ms with a 60s horizon
// (the historical Run defaults), and Params.Spec fills the same values.
func TestSpecDefaultsApplied(t *testing.T) {
	fig := graph.Fig1b()
	res, err := Run(Spec{Name: "defaults", Graph: fig.G, Mode: core.ModeKnownF, F: fig.F, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consensus() {
		t.Fatalf("defaulted run failed: %s", res.FailureMode())
	}
	spec, err := (Params{Graph: graph.Def{Kind: graph.DefFigure, Figure: "fig1b"}, Mode: core.ModeKnownF, F: -1, Seed: 3}).Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Horizon != 60*sim.Second {
		t.Fatalf("Params.Spec horizon %v, want 60s", spec.Horizon)
	}
	if spec.Net == nil {
		t.Fatal("Params.Spec left the net model nil")
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
// uncached Spec-then-Run path for the same cell.
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
		spec, err := p.Spec()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(spec); err != nil {
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
		byz    map[model.ID]ByzParams
		values map[model.ID]model.Value
		want   string // "" = compiles
	}{
		{name: "node byz and value", byz: map[model.ID]ByzParams{4: {Kind: ByzSilent}}, values: map[model.ID]model.Value{8: model.Value("x")}},
		{name: "stray silent", byz: map[model.ID]ByzParams{99: {Kind: ByzSilent}}, want: "byzantine process p99 not in graph"},
		{name: "stray among nodes", byz: map[model.ID]ByzParams{4: {Kind: ByzSilent}, 9: {Kind: ByzFakePD}}, want: "byzantine process p9 not in graph"},
		{name: "stray owner of behaviour fields", byz: map[model.ID]ByzParams{
			12: {Kind: ByzSelectiveSilent, AnswerTo: []model.ID{1, 2}, Withhold: []model.ID{3}, AltRecipients: []model.ID{4}, ClaimedPD: []model.ID{1}},
		}, want: "byzantine process p12 not in graph"},
		{name: "stray as-correct", byz: map[model.ID]ByzParams{0: {Kind: ByzAsCorrect}}, want: "byzantine process p0 not in graph"},
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
	// Hand-written Specs go through the same check.
	spec := Spec{Name: "stray", Graph: graph.Fig1b().G, Byz: map[model.ID]ByzSpec{99: {Kind: ByzSilent}}}
	if _, err := spec.Compile(); err == nil || !strings.Contains(err.Error(), "byzantine process p99 not in graph") {
		t.Errorf("Spec.Compile: error %v, want the stray Byzantine process named", err)
	}
}
