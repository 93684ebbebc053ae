package matrix

import (
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/scenario"
)

// TestInsecureSweepDivergesDeterministically pins the -insecure contract:
// the insecure suite changes no protocol decision (same consensus outcomes,
// no errors), is deterministic (two insecure runs fingerprint identically),
// and is fingerprint-incomparable with the secure suite (message bytes
// differ) — which is why the CLIs rename insecure sweeps instead of letting
// their fingerprints sit next to anchor numbers.
func TestInsecureSweepDivergesDeterministically(t *testing.T) {
	base := scenario.Params{
		Graph: graph.Def{Kind: graph.DefFigure, Figure: "fig1b"},
		Mode:  core.ModeKnownF,
		F:     -1,
	}
	src, err := SeedSweep(base, Seeds(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	run := func(s CellSource) *Report {
		rep, err := Run(s, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors > 0 {
			t.Fatalf("%d errored cells", rep.Errors)
		}
		return rep
	}
	secure := run(src)
	ins1 := run(insecure(src))
	ins2 := run(insecure(src))
	if ins1.Fingerprint() != ins2.Fingerprint() {
		t.Fatalf("insecure sweep is not deterministic:\n  %s\n  %s", ins1.Fingerprint(), ins2.Fingerprint())
	}
	if ins1.Fingerprint() == secure.Fingerprint() {
		t.Fatalf("insecure and secure sweeps share fingerprint %s — the suite swap changed nothing?", secure.Fingerprint())
	}
	if ins1.Consensus != secure.Consensus {
		t.Fatalf("insecure suite changed protocol outcomes: %d consensus cells, secure had %d", ins1.Consensus, secure.Consensus)
	}
	for i := range secure.Outcomes {
		if secure.Outcomes[i].Consensus != ins1.Outcomes[i].Consensus {
			t.Fatalf("cell %d: consensus %v secure, %v insecure", i, secure.Outcomes[i].Consensus, ins1.Outcomes[i].Consensus)
		}
	}
}
