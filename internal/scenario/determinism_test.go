package scenario

import (
	"fmt"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/sim"
)

// traceParams builds one tracing run per network model: the regression net
// for "identical seeds yield byte-identical executions" across every
// communication assumption the simulator implements.
func traceParams(net NetParams, horizon sim.Time) Params {
	return Params{
		Graph: graph.Def{Kind: graph.DefFigure, Figure: "fig1b"},
		Mode:  core.ModeKnownF,
		F:     -1,
		Byz: map[model.ID]ByzSpec{
			4: {Kind: ByzFakePD, ClaimedPD: model.NewIDSet(1, 2, 3)},
		},
		Net:           net,
		Horizon:       horizon,
		Seed:          99,
		SlowDiscovery: net.Kind == NetAsync,
		Trace:         true,
	}
}

// TestTraceDeterminismAcrossNetModels asserts that running the same Params
// twice produces byte-identical event traces and decision transcripts (equal
// streaming SHA-256 digests over every delivered message, timer and
// decision) under all three network models, and that changing the seed
// actually changes the trace.
func TestTraceDeterminismAcrossNetModels(t *testing.T) {
	nets := []NetParams{
		{Kind: NetSync},
		{Kind: NetPartial, GST: 2 * sim.Second},
		{Kind: NetAsync},
	}
	for _, net := range nets {
		net := net
		t.Run(net.Kind.String(), func(t *testing.T) {
			horizon := 60 * sim.Second
			if net.Kind == NetAsync {
				horizon = 20 * sim.Second // non-terminating; bound the event volume
			}
			p := traceParams(net, sim.Time(horizon))
			a, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			// Params.Run recompiles: determinism must survive full
			// reconstruction, not just re-running a shared Compiled.
			b, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			if a.TraceEvents == 0 {
				t.Fatal("trace recorded no events")
			}
			if a.TraceDigest != b.TraceDigest || a.TraceEvents != b.TraceEvents {
				t.Fatalf("same seed diverged: %s (%d events) vs %s (%d events)",
					a.TraceDigest, a.TraceEvents, b.TraceDigest, b.TraceEvents)
			}
			if transcript(a) != transcript(b) {
				t.Fatalf("decision transcripts diverge:\n%s\nvs\n%s", transcript(a), transcript(b))
			}

			p.Seed = 100
			c, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			if c.TraceDigest == a.TraceDigest {
				t.Fatal("different seeds produced identical traces (RNG not wired through?)")
			}
		})
	}
}

// transcript renders the per-process decisions deterministically.
func transcript(r *Result) string {
	out := ""
	ids := make([]model.ID, 0, len(r.PerProcess))
	for id := range r.PerProcess {
		ids = append(ids, id)
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	for _, id := range ids {
		pr := r.PerProcess[id]
		out += fmt.Sprintf("%d:%t:%s:%d\n", uint64(id), pr.Decided, pr.Value, pr.DecidedAt)
	}
	return out
}

// TestCompileGraphMatchesCompile asserts that a caller holding its own graph
// (CompileGraph, with the threshold given explicitly) gets the run Compile
// gives for the def of the same graph (threshold resolved from the figure):
// same trace digest, graded outcome and traffic counters.
func TestCompileGraphMatchesCompile(t *testing.T) {
	p := Params{
		Graph: graph.Def{Kind: graph.DefFigure, Figure: "fig1b"},
		Mode:  core.ModeKnownF,
		F:     -1,
		Byz: map[model.ID]ByzSpec{
			4: {Kind: ByzFakePD, ClaimedPD: model.NewIDSet(1, 2, 3)},
		},
		Net:     NetParams{Kind: NetSync},
		Horizon: 60 * sim.Second,
		Seed:    22,
		Trace:   true,
	}
	b, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	fig := graph.Fig1b()
	hand := p
	hand.Graph, hand.F = graph.Def{}, fig.F
	c, err := hand.CompileGraph(graph.BuiltGraph{G: fig.G})
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Run(hand.Seed, hand.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceDigest != b.TraceDigest || a.Verdict() != b.Verdict() || a.Messages != b.Messages || a.Bytes != b.Bytes || a.Elapsed != b.Elapsed {
		t.Fatalf("hand-built graph diverges from its def: %v/%d/%d/%d vs %v/%d/%d/%d",
			a.Verdict(), a.Messages, a.Bytes, a.Elapsed, b.Verdict(), b.Messages, b.Bytes, b.Elapsed)
	}
	if _, err := hand.CompileGraph(graph.BuiltGraph{}); err == nil {
		t.Fatal("CompileGraph accepted a BuiltGraph without a graph")
	}
}

// TestTraceDeterminismProbabilisticFamilies extends the byte-identical-trace
// regression to the unplanted random families: the graph itself is now part
// of the seeded randomness, so determinism must hold through generation →
// compile → run, a recompiled scenario must reproduce the digest exactly,
// and a different seed must change both the graph and the trace. (The
// compile cache keys er/geo/sf cells by build seed; a same-key different-
// graph bug would surface here as a digest mismatch.)
func TestTraceDeterminismProbabilisticFamilies(t *testing.T) {
	for _, gs := range []string{"er:n=12,p=0.3", "geo:n=12,r=0.45", "sf:n=12,m=2"} {
		gs := gs
		t.Run(gs, func(t *testing.T) {
			def, err := graph.ParseDef(gs)
			if err != nil {
				t.Fatal(err)
			}
			p := Params{
				Graph:   def,
				Mode:    core.ModeKnownF,
				F:       1,
				Net:     NetParams{Kind: NetSync},
				Horizon: 30 * sim.Second,
				Seed:    7,
				Trace:   true,
			}
			a, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			if a.TraceEvents == 0 {
				t.Fatal("trace recorded no events")
			}
			if a.TraceDigest != b.TraceDigest || a.TraceEvents != b.TraceEvents {
				t.Fatalf("same seed diverged: %s (%d events) vs %s (%d events)",
					a.TraceDigest, a.TraceEvents, b.TraceDigest, b.TraceEvents)
			}
			if transcript(a) != transcript(b) {
				t.Fatalf("decision transcripts diverge:\n%s\nvs\n%s", transcript(a), transcript(b))
			}
			p.Seed = 8
			c, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			if c.TraceDigest == a.TraceDigest {
				t.Fatal("different seeds produced identical traces (graph seed not wired through?)")
			}
		})
	}
}
