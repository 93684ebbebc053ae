package scenario

import (
	"math/rand"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/sim"
)

// allByzKinds is the complete adversary zoo, in declaration order.
var allByzKinds = []ByzKind{
	ByzSilent, ByzFakePD, ByzEquivPD, ByzAsCorrect,
	ByzDelay, ByzSelectiveSilent, ByzCollude,
}

// zooParams builds one traced conformance cell: the given behavior placed on
// the fig1b tail under the given network model. Collusion gets two members
// (a one-member group never shares anything).
func zooParams(kind ByzKind, net NetParams) Params {
	count := 1
	if kind == ByzCollude {
		count = 2
	}
	return Params{
		Graph:   graph.Def{Kind: graph.DefFigure, Figure: "fig1b"},
		Mode:    core.ModeKnownF,
		F:       -1,
		Auto:    AutoByz{Kind: kind, Count: count, Place: PlaceTail},
		Net:     net,
		Horizon: 10 * sim.Second,
		Seed:    5,
	}
}

// TestZooConformance runs every adversary-zoo behavior under all three
// network models and pins trace-digest determinism three ways: a fresh
// pipeline run, and two further runs of the same Compiled through one shared
// Runner. The shared-Runner reruns are the regression net for per-run
// Byzantine state — a colluding group accidentally carried in the Compiled
// (or leaking through the Runner's scratch) would replay the previous run's
// pooled records and shift the trace.
func TestZooConformance(t *testing.T) {
	nets := []NetParams{
		{Kind: NetSync},
		{Kind: NetPartial, GST: 2 * sim.Second},
		{Kind: NetAsync},
	}
	var shared Runner
	for _, kind := range allByzKinds {
		for _, net := range nets {
			kind, net := kind, net
			t.Run(kind.String()+"/"+net.Kind.String(), func(t *testing.T) {
				p := zooParams(kind, net)
				c, err := p.Compile()
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := c.Run(p.Seed, true)
				if err != nil {
					t.Fatal(err)
				}
				if fresh.TraceEvents == 0 {
					t.Fatal("trace recorded no events")
				}
				digest, events := fresh.TraceDigest, fresh.TraceEvents
				for i := 0; i < 2; i++ {
					res, err := shared.Run(c, p.Seed, true)
					if err != nil {
						t.Fatal(err)
					}
					if res.TraceDigest != digest || res.TraceEvents != events {
						t.Fatalf("shared-runner rerun %d diverged: %s (%d events) vs fresh %s (%d events)",
							i, res.TraceDigest, res.TraceEvents, digest, events)
					}
				}
			})
		}
	}
}

// conformanceGraphs returns the graph families the forgery default must hold
// on.
func conformanceGraphs(t *testing.T) map[string]*graph.Digraph {
	t.Helper()
	out := make(map[string]*graph.Digraph)
	for _, fig := range graph.AllFigures() {
		out[fig.Name] = fig.G
	}
	out["complete:7"] = graph.CompleteGraph(1, 2, 3, 4, 5, 6, 7)
	rng := rand.New(rand.NewSource(11))
	kg, _, err := graph.GenKOSR(rng, graph.GenSpec{SinkSize: 5, NonSinkSize: 3, K: 2, ExtraEdgeP: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	out["kosr:gen"] = kg
	return out
}

// TestForgedClaimNeverMatchesRealPD is the regression test for the FakePD
// nil-claim bug: the default claim must be an actual forgery — different from
// the process's real out-set — for every process of every graph family, and
// must reproduce the Section III worked example on fig1b (process 4 claims
// {1,2,3}).
func TestForgedClaimNeverMatchesRealPD(t *testing.T) {
	for name, g := range conformanceGraphs(t) {
		for _, id := range g.Nodes() {
			claim := ForgedClaim(g, id)
			if claim.Len() == 0 {
				t.Fatalf("%s p%d: empty forged claim", name, uint64(id))
			}
			if claim.Equal(g.OutSet(id)) {
				t.Fatalf("%s p%d: forged claim %v equals the real out-set", name, uint64(id), claim)
			}
		}
	}
	fig := graph.Fig1b()
	// The Section III shape — claim the three lowest-ID other processes —
	// on a tail node whose real edges point elsewhere ({5,6,7} for p8).
	if got := ForgedClaim(fig.G, 8); !got.Equal(model.NewIDSet(1, 2, 3)) {
		t.Fatalf("fig1b p8 forged claim %v, want {1,2,3}", got)
	}
	// p4's real out-set IS {1,2,3}, so the pattern alone would be honest;
	// the self-edge fallback must kick in (no real PD contains its owner).
	if got := ForgedClaim(fig.G, 4); !got.Equal(model.NewIDSet(1, 2, 3, 4)) {
		t.Fatalf("fig1b p4 forged claim %v, want the self-edge fallback {1,2,3,4}", got)
	}
}

// TestFakePDNilClaimAdvertisesForgery pins the fixed default at the behavior
// level: a fake-pd process with no explicit claim must run exactly as if
// ForgedClaim had been passed explicitly — and differently from a process
// honestly advertising its real out-set (the old, buggy default).
func TestFakePDNilClaimAdvertisesForgery(t *testing.T) {
	base := func() Params {
		return Params{
			Graph:   graph.Def{Kind: graph.DefFigure, Figure: "fig1b"},
			Mode:    core.ModeKnownF,
			F:       -1,
			Net:     NetParams{Kind: NetSync},
			Horizon: 10 * sim.Second,
			Seed:    7,
		}
	}
	digest := func(t *testing.T, p Params) string {
		t.Helper()
		res, err := runTraced(p)
		if err != nil {
			t.Fatal(err)
		}
		return res.TraceDigest
	}
	fig := graph.Fig1b()

	nilClaim := base()
	nilClaim.Byz = map[model.ID]ByzSpec{4: {Kind: ByzFakePD}}

	explicitForged := base()
	explicitForged.Byz = map[model.ID]ByzSpec{4: {Kind: ByzFakePD, ClaimedPD: ForgedClaim(fig.G, 4)}}

	honest := base()
	honest.Byz = map[model.ID]ByzSpec{4: {Kind: ByzFakePD, ClaimedPD: fig.G.OutSet(4).Clone()}}

	dNil, dForged, dHonest := digest(t, nilClaim), digest(t, explicitForged), digest(t, honest)
	if dNil != dForged {
		t.Fatalf("nil claim (%s) diverges from explicit ForgedClaim (%s)", dNil, dForged)
	}
	if dNil == dHonest {
		t.Fatal("nil claim still runs as the honest out-set — the forgery default regressed")
	}
}

// TestPlaceWorstMatchesSearch asserts the byz=worst axis value resolves to
// exactly the subset the placement search reports, and that the resulting
// cells carry the behavior on those processes.
func TestPlaceWorstMatchesSearch(t *testing.T) {
	p := Params{
		Graph: graph.Def{Kind: graph.DefFigure, Figure: "fig1b"},
		Mode:  core.ModeKnownF,
		F:     -1,
		Auto:  AutoByz{Kind: ByzSilent, Count: 2, Place: PlaceWorst},
		Seed:  1,
	}
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// The kosr-level test pins WorstPlacement(fig1b, 2) = {1,2}; the compiled
	// scenario must place exactly those.
	want := model.NewIDSet(1, 2)
	got := model.NewIDSet()
	for id, spec := range c.Byz {
		got.Add(id)
		if spec.Kind != ByzSilent {
			t.Fatalf("placed p%d with kind %v, want silent", uint64(id), spec.Kind)
		}
	}
	if !got.Equal(want) {
		t.Fatalf("byz=worst placed %v, want %v", got, want)
	}
	if p.ByzLabel() != "silent×2@worst" {
		t.Fatalf("axis label %q, want silent×2@worst", p.ByzLabel())
	}
}

// TestParseAutoByz round-trips the axis syntax, including the ASCII spelling
// and the error paths.
func TestParseAutoByz(t *testing.T) {
	good := map[string]AutoByz{
		"none":                    {},
		"":                        {},
		"silent×2@worst":          {Kind: ByzSilent, Count: 2, Place: PlaceWorst},
		"silentx2@worst":          {Kind: ByzSilent, Count: 2, Place: PlaceWorst},
		"delay×1":                 {Kind: ByzDelay, Count: 1, Place: PlaceTail},
		"collude×3@sink":          {Kind: ByzCollude, Count: 3, Place: PlaceSink},
		"selective-silent×1@tail": {Kind: ByzSelectiveSilent, Count: 1, Place: PlaceTail},
	}
	for in, want := range good {
		got, err := ParseAutoByz(in)
		if err != nil {
			t.Fatalf("ParseAutoByz(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("ParseAutoByz(%q) = %+v, want %+v", in, got, want)
		}
		if in != "" && got.String() != AutoByz(want).String() {
			t.Fatalf("round-trip %q → %q", in, got.String())
		}
	}
	for _, in := range []string{"silent", "×2", "silent×0", "silent×2@nowhere", "ghost×1"} {
		if _, err := ParseAutoByz(in); err == nil {
			t.Fatalf("ParseAutoByz(%q) accepted", in)
		}
	}
	// Every kind at every placement renders and parses back.
	for _, kind := range allByzKinds {
		for place := PlaceFigure; place <= PlaceWorst; place++ {
			want := AutoByz{Kind: kind, Count: 2, Place: place}
			if got, err := ParseAutoByz(want.String()); err != nil || got != want {
				t.Errorf("ParseAutoByz(%q) = %+v, %v; want %+v", want.String(), got, err, want)
			}
		}
	}
	if got := (AutoByz{Kind: 9, Count: 1, Place: 9}).String(); got != "byz(9)×1@place(9)" {
		t.Errorf("out-of-range AutoByz renders %q", got)
	}
}
