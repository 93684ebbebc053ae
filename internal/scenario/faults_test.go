package scenario

import (
	"strings"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/sim"
)

func fig1bDef(t *testing.T) graph.Def {
	t.Helper()
	def, err := graph.ParseDef("fig1b")
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// chaosParams is the baseline chaos cell the tests perturb: fig1b under
// BFT-CUP with a mixed link-fault load.
func chaosParams(seed int64) Params {
	return Params{
		Graph: graph.Def{Kind: graph.DefFigure, Figure: "fig1b"},
		Mode:  core.ModeKnownF,
		F:     -1,
		Net:   NetParams{Kind: NetSync},
		Seed:  seed,
		Faults: FaultParams{
			Loss:    0.1,
			Dup:     0.05,
			Reorder: 2 * sim.Millisecond,
		},
	}
}

func TestFaultParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		f    FaultParams
	}{
		{"loss-negative", FaultParams{Loss: -0.1}},
		{"loss-one", FaultParams{Loss: 1}},
		{"dup-negative", FaultParams{Dup: -0.5}},
		{"dup-one", FaultParams{Dup: 1.5}},
		{"reorder-negative", FaultParams{Reorder: -1}},
		{"partition-empty-window", FaultParams{Partitions: []PartitionWindow{{From: 5, Until: 5}}}},
		{"partition-negative-from", FaultParams{Partitions: []PartitionWindow{{From: -1, Until: 5}}}},
		{"partition-empty-group", FaultParams{Partitions: []PartitionWindow{
			{From: 0, Until: 5, Groups: [][]model.ID{{1}, {}}},
		}}},
		{"partition-dup-member", FaultParams{Partitions: []PartitionWindow{
			{From: 0, Until: 5, Groups: [][]model.ID{{1, 2}, {2, 3}}},
		}}},
		{"churn-negative-crash", FaultParams{Churn: []ChurnEvent{{ID: 1, CrashAt: -1}}}},
		{"churn-restart-before-crash", FaultParams{Churn: []ChurnEvent{{ID: 1, CrashAt: 10, RestartAt: 5}}}},
		{"churn-duplicate-id", FaultParams{Churn: []ChurnEvent{
			{ID: 1, CrashAt: 10}, {ID: 1, CrashAt: 20},
		}}},
	}
	for _, tc := range cases {
		if err := tc.f.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.f)
		}
	}
	ok := FaultParams{
		Loss:       0.3,
		Dup:        0.1,
		Reorder:    sim.Millisecond,
		Partitions: []PartitionWindow{{From: 0, Until: 100, Groups: [][]model.ID{{1, 2}, {3}}}},
		Churn:      []ChurnEvent{{ID: 1, CrashAt: 50, RestartAt: 80, Wipe: true}, {ID: 2, CrashAt: 10}},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate rejected a well-formed axis: %v", err)
	}
}

// TestParamsValidateRejectsBadNetTiming covers the satellite: negative
// net-timing knobs must fail loudly instead of being silently replaced by
// the defaults.
func TestParamsValidateRejectsBadNetTiming(t *testing.T) {
	base := chaosParams(1)
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"negative-horizon", func(p *Params) { p.Horizon = -sim.Second }},
		{"negative-delta", func(p *Params) { p.Net.Delta = -sim.Millisecond }},
		{"negative-gst", func(p *Params) { p.Net.GST = -sim.Second }},
		{"bad-faults", func(p *Params) { p.Faults.Loss = 2 }},
	}
	for _, tc := range cases {
		p := base
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the parameters", tc.name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("baseline rejected: %v", err)
	}
}

func TestFaultLabelAndParsers(t *testing.T) {
	if got := (FaultParams{}).Label(); got != "" {
		t.Fatalf("zero axis label %q, want empty", got)
	}
	f := FaultParams{
		Loss:    0.15,
		Dup:     0.075,
		Reorder: 2 * sim.Millisecond,
		Partitions: []PartitionWindow{
			{From: 100 * sim.Millisecond, Until: 400 * sim.Millisecond},
			{From: sim.Second, Until: 2 * sim.Second, Groups: [][]model.ID{{1, 2}, {3, 4}}},
		},
		Churn: []ChurnEvent{
			{ID: 8, CrashAt: 100 * sim.Millisecond},
			{ID: 2, CrashAt: 150 * sim.Millisecond, RestartAt: 500 * sim.Millisecond, Wipe: true},
		},
	}
	label := f.Label()
	for _, want := range []string{"loss=0.15", "dup=0.075", "reorder=2.0ms", "part=", ":half", "1,2|3,4", "churn=8@", "churn=2@", ":wipe"} {
		if !strings.Contains(label, want) {
			t.Errorf("label %q missing %q", label, want)
		}
	}

	w, err := ParsePartition("100ms-400ms")
	if err != nil || w.From != 100*sim.Millisecond || w.Until != 400*sim.Millisecond || w.Groups != nil {
		t.Fatalf("ParsePartition auto-half: %+v, %v", w, err)
	}
	w, err = ParsePartition("1s-2s:1,2|3,4")
	if err != nil || len(w.Groups) != 2 || w.Groups[0][1] != 2 || w.Groups[1][0] != 3 {
		t.Fatalf("ParsePartition groups: %+v, %v", w, err)
	}
	for _, bad := range []string{"", "100ms", "x-y", "1s-2s:1,a"} {
		if _, err := ParsePartition(bad); err == nil {
			t.Errorf("ParsePartition accepted %q", bad)
		}
	}

	c, err := ParseChurn("8@100ms")
	if err != nil || c.ID != 8 || c.CrashAt != 100*sim.Millisecond || c.RestartAt != 0 || c.Wipe {
		t.Fatalf("ParseChurn down-forever: %+v, %v", c, err)
	}
	c, err = ParseChurn("2@150ms+500ms:wipe")
	if err != nil || c.ID != 2 || c.RestartAt != 500*sim.Millisecond || !c.Wipe {
		t.Fatalf("ParseChurn wiped restart: %+v, %v", c, err)
	}
	for _, bad := range []string{"", "2", "x@1s", "2@1s+500ms:nuke", "2@zz"} {
		if _, err := ParseChurn(bad); err == nil {
			t.Errorf("ParseChurn accepted %q", bad)
		}
	}
}

// TestCompileKeyFaultSection pins the only-when-set contract: a zero fault
// axis leaves CompileKey byte-free of any fault section (so every pre-fault
// cache key, fingerprint and label is unchanged), while distinct active axes
// produce distinct keys.
func TestCompileKeyFaultSection(t *testing.T) {
	clean := chaosParams(1)
	clean.Faults = FaultParams{}
	if key := clean.CompileKey(); strings.Contains(key, "faults") {
		t.Fatalf("zero-fault CompileKey mentions faults: %s", key)
	}
	if lbl := clean.Labels().Net; strings.Contains(lbl, "faults") {
		t.Fatalf("zero-fault net label mentions faults: %s", lbl)
	}

	a := chaosParams(1)
	b := chaosParams(1)
	b.Faults.Loss = 0.2
	keys := map[string]string{
		"clean": clean.CompileKey(),
		"a":     a.CompileKey(),
		"b":     b.CompileKey(),
	}
	seen := make(map[string]string)
	for name, key := range keys {
		if prev, dup := seen[key]; dup {
			t.Fatalf("%s and %s share a CompileKey: %s", prev, name, key)
		}
		seen[key] = name
	}
	if lbl := a.Labels().Net; !strings.Contains(lbl, "+faults(") {
		t.Fatalf("active fault axis missing from net label: %s", lbl)
	}
}

func TestCompileRejectsBadChurn(t *testing.T) {
	p := chaosParams(1)
	p.Faults.Churn = []ChurnEvent{{ID: 99, CrashAt: 100 * sim.Millisecond}}
	if _, err := p.Compile(); err == nil || !strings.Contains(err.Error(), "not in graph") {
		t.Fatalf("churn of unknown process compiled: %v", err)
	}

	p = chaosParams(1)
	p.Byz = map[model.ID]ByzSpec{8: {Kind: ByzSilent}}
	p.Faults.Churn = []ChurnEvent{{ID: 8, CrashAt: 100 * sim.Millisecond, RestartAt: 500 * sim.Millisecond, Wipe: true}}
	if _, err := p.Compile(); err == nil || !strings.Contains(err.Error(), "Byzantine") {
		t.Fatalf("wiped churn of a Byzantine process compiled: %v", err)
	}
	// A non-wiping crash of a Byzantine process is legal (the adversary
	// losing a member is a weaker adversary, not a semantic conflict).
	p.Faults.Churn[0].Wipe = false
	if _, err := p.Compile(); err != nil {
		t.Fatalf("plain churn of a Byzantine process rejected: %v", err)
	}
}

// TestFaultScenarioDeterministic runs one chaos cell (loss, dup, reorder, a
// partition window and wiped churn all active) twice from fresh state and
// once more on a reused Runner: all three must produce byte-identical trace
// digests — the determinism contract fault injection must preserve.
func TestFaultScenarioDeterministic(t *testing.T) {
	p := chaosParams(3)
	p.Faults.Partitions = []PartitionWindow{{From: 100 * sim.Millisecond, Until: 300 * sim.Millisecond}}
	p.Faults.Churn = []ChurnEvent{{ID: 2, CrashAt: 150 * sim.Millisecond, RestartAt: 500 * sim.Millisecond, Wipe: true}}

	digest := func(r *Runner, c *Compiled, seed int64) string {
		t.Helper()
		res, err := r.Run(c, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.TraceDigest == "" {
			t.Fatal("no trace digest")
		}
		return res.TraceDigest
	}

	c1, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var r1, r2 Runner
	d1 := digest(&r1, c1, p.Seed)
	d2 := digest(&r2, c2, p.Seed)
	d3 := digest(&r1, c1, p.Seed) // reused engine scratch
	if d1 != d2 || d1 != d3 {
		t.Fatalf("chaos trace digests diverge:\n  fresh      %s\n  fresh      %s\n  reused     %s", d1, d2, d3)
	}
	if do := digest(&r2, c2, p.Seed+1); do == d1 {
		t.Fatalf("different seeds share a chaos trace digest: %s", do)
	}
}

// TestHardenedBeatsUnhardenedUnderLoss is the pinned A/B regression of the
// protocol hardening: fig1b at 25% message loss, seed 4, compiled once and
// run with Compiled.Hardened as compiled and flipped off. Full-set gossip
// re-sends every record each round, so the unhardened run recovers from loss
// too, but at a fixed cadence; the hardened profile (GETPDS backoff + PBFT
// decide-note replies) decides on under a third of the messages, well under
// a virtual second. Both runs are fully deterministic, so this is an
// exact pin, not a statistical claim.
func TestHardenedBeatsUnhardenedUnderLoss(t *testing.T) {
	p := Params{
		Graph:  fig1bDef(t),
		Mode:   core.ModeKnownF,
		F:      -1,
		Net:    NetParams{Kind: NetSync},
		Seed:   4,
		Faults: FaultParams{Loss: 0.25},
	}
	hard, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !hard.Hardened {
		t.Fatal("an active fault axis compiled without the hardened profile")
	}
	unhardened := *hard
	unhardened.Hardened = false

	seedRes, err := unhardened.Run(p.Seed, false)
	if err != nil {
		t.Fatal(err)
	}
	if !seedRes.Consensus() {
		t.Fatalf("unhardened protocol failed under 25%% loss: %s (elapsed %v)", seedRes.FailureMode(), seedRes.Elapsed)
	}
	hardRes, err := hard.Run(p.Seed, false)
	if err != nil {
		t.Fatal(err)
	}
	if !hardRes.Consensus() {
		t.Fatalf("hardened protocol failed under 25%% loss: %s (elapsed %v)", hardRes.FailureMode(), hardRes.Elapsed)
	}
	if 3*hardRes.Messages >= seedRes.Messages {
		t.Fatalf("hardened protocol sent %d messages, want under a third of the unhardened run's %d", hardRes.Messages, seedRes.Messages)
	}
	if hardRes.Elapsed >= sim.Second {
		t.Fatalf("hardened protocol took %v, want < 1 virtual second", hardRes.Elapsed)
	}
	t.Logf("unhardened: %v, %d msgs; hardened: %v, %d msgs", seedRes.Elapsed, seedRes.Messages, hardRes.Elapsed, hardRes.Messages)
}

// TestChurnCrashForeverGradedCrashFaulty: a process crashed without restart
// is excluded from the correct set — the others terminate and the run is
// graded a success, with the crashed process reported undecided.
func TestChurnCrashForeverGradedCrashFaulty(t *testing.T) {
	p := chaosParams(1)
	// Crash during discovery — a clean fig1b cell decides around 35ms, so
	// the crash must land before the protocol completes.
	p.Faults = FaultParams{Churn: []ChurnEvent{{ID: 8, CrashAt: 10 * sim.Millisecond}}}
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(p.Seed, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consensus() {
		t.Fatalf("consensus failed with one crash-faulty process: %s", res.FailureMode())
	}
	if res.PerProcess[8].Decided {
		t.Fatalf("process 8 decided after crashing at 10ms (decided at %v)", res.PerProcess[8].DecidedAt)
	}
	for _, id := range []model.ID{1, 2, 3} {
		if !res.PerProcess[id].Decided {
			t.Fatalf("process %v did not decide", id)
		}
	}
}

// TestChurnRestartDecides pins restart semantics end to end, in both
// persistence modes: the churned process must come back, rejoin the
// protocol and decide the agreed value, and a wiped re-decision of the same
// value must not be graded as an integrity violation.
func TestChurnRestartDecides(t *testing.T) {
	for _, wipe := range []bool{false, true} {
		p := chaosParams(1)
		// Process 2 is a sink member: crashing it mid-discovery stalls its
		// committee, so the run can only terminate through the restart path.
		p.Faults = FaultParams{Churn: []ChurnEvent{
			{ID: 2, CrashAt: 10 * sim.Millisecond, RestartAt: 500 * sim.Millisecond, Wipe: wipe},
		}}
		c, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(p.Seed, false)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consensus() {
			t.Fatalf("wipe=%t: consensus failed under crash/restart churn: %s", wipe, res.FailureMode())
		}
		pr := res.PerProcess[2]
		if !pr.Decided {
			t.Fatalf("wipe=%t: restarted process 2 never decided", wipe)
		}
		if pr.DecidedAt < 500*sim.Millisecond {
			t.Fatalf("wipe=%t: process 2 decided at %v, before its 500ms restart", wipe, pr.DecidedAt)
		}
		if pr1 := res.PerProcess[1]; !pr1.Value.Equal(pr.Value) {
			t.Fatalf("wipe=%t: restarted process decided %q, others %q", wipe, pr.Value, pr1.Value)
		}
	}
}
