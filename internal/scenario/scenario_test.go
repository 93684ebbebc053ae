package scenario

import (
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/sim"
)

// Every experiment in the paper-reproduction suite must match the paper's
// predicted verdict. This is the repository's headline test.
func TestAllExperimentsMatchPaper(t *testing.T) {
	for _, exp := range AllExperiments() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			res, err := exp.Params.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Consensus(); got != exp.Expect.Consensus {
				t.Fatalf("verdict %v (termination=%v agreement=%v validity=%v integrity=%v), paper predicts consensus=%v\nnote: %s",
					got, res.Termination, res.Agreement, res.Validity, res.Integrity, exp.Expect.Consensus, exp.Expect.Note)
			}
		})
	}
}

// The Fig 2c run must reproduce Theorem 7's exact split: {1,2,3} decide v,
// {6,7,8} decide u, with disjoint committees.
func TestFig2cSplitDetails(t *testing.T) {
	for _, exp := range Fig2() {
		if exp.ID != "fig2c/naive" && exp.ID != "fig2c/bft-cupft" {
			continue
		}
		res, err := exp.Params.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Agreement {
			t.Fatalf("%s: expected an agreement violation", exp.ID)
		}
		for _, id := range []model.ID{1, 2, 3} {
			pr := res.PerProcess[id]
			if !pr.Decided || !pr.Value.Equal(model.Value("v")) {
				t.Fatalf("%s: %v decided %q, want v", exp.ID, id, pr.Value)
			}
		}
		for _, id := range []model.ID{6, 7, 8} {
			pr := res.PerProcess[id]
			if !pr.Decided || !pr.Value.Equal(model.Value("u")) {
				t.Fatalf("%s: %v decided %q, want u", exp.ID, id, pr.Value)
			}
		}
		if c1, c8 := res.PerProcess[1].Committee, res.PerProcess[8].Committee; c1.Intersect(c8).Len() != 0 {
			t.Fatalf("%s: committees overlap: %v %v", exp.ID, c1, c8)
		}
	}
}

// Fig 3a's false sink must be exactly the set the paper names.
func TestFig3aFalseSinkDetails(t *testing.T) {
	exp := Fig3()[1] // fig3a/bft-cupft
	res, err := exp.Params.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Agreement {
		t.Fatal("expected an agreement violation on fig3a")
	}
	want := model.NewIDSet(1, 2, 3, 4, 5, 6, 7)
	if got := res.PerProcess[2].Committee; !got.Equal(want) {
		t.Fatalf("false committee = %v, want %v", got, want)
	}
	if got := res.PerProcess[8].Committee; !got.Equal(model.NewIDSet(5, 7, 8)) {
		t.Fatalf("true sink committee = %v, want {5,7,8}", got)
	}
	// The false sink has g=2, strictly above the true sink's g=1 — the exact
	// reason C1 (maximum connectivity) was introduced.
	if res.PerProcess[2].G != 2 || res.PerProcess[8].G != 1 {
		t.Fatalf("g values = %d, %d; want 2, 1", res.PerProcess[2].G, res.PerProcess[8].G)
	}
}

// Fig 4a/4b: every correct process (member or not) must report the same
// committee and decide the same value.
func TestFig4CommitteeAgreement(t *testing.T) {
	for _, exp := range Fig4() {
		if !exp.Expect.Consensus {
			continue
		}
		res, err := exp.Params.Run()
		if err != nil {
			t.Fatal(err)
		}
		var committee model.IDSet
		for id, pr := range res.PerProcess {
			if pr.Byzantine || !pr.Decided {
				continue
			}
			if committee == nil {
				committee = pr.Committee
			} else if !committee.Equal(pr.Committee) {
				t.Fatalf("%s: %v committee %v differs from %v", exp.ID, id, pr.Committee, committee)
			}
		}
		if committee == nil {
			t.Fatalf("%s: nobody decided", exp.ID)
		}
	}
}

// PD equivocation by the Byzantine sink member must not break Fig 1b.
func TestFig1bWithEquivocatingPD(t *testing.T) {
	res, err := Params{
		Name:  "fig1b/equiv",
		Graph: figDef("fig1b"),
		Mode:  core.ModeKnownF,
		F:     -1,
		Byz: map[model.ID]ByzSpec{4: {
			Kind:      ByzEquivPD,
			ClaimedPD: model.NewIDSet(1, 2, 3),
			AltPD:     model.NewIDSet(1, 2),
		}},
		Horizon: 60 * sim.Second,
		Seed:    99,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Termination || !res.Agreement || !res.Validity {
		t.Fatalf("equivocating PD broke consensus: %+v", res.FailureMode())
	}
}

// Byzantine processes running the correct protocol (the Fig 3 adversary
// strategy) must be harmless on a valid graph.
func TestFig4aWithAsCorrectByz(t *testing.T) {
	res, err := Params{
		Name:    "fig4a/as-correct",
		Graph:   figDef("fig4a"),
		Mode:    core.ModeUnknownF,
		Byz:     map[model.ID]ByzSpec{4: {Kind: ByzAsCorrect}},
		Horizon: 60 * sim.Second,
		Seed:    100,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Termination || !res.Agreement {
		t.Fatalf("as-correct Byzantine broke consensus: %s", res.FailureMode())
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := (Params{Name: "empty"}).Run(); err == nil {
		t.Fatal("empty graph def accepted")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Termination: true, Agreement: true, Validity: true, Integrity: true}
	if r.Verdict() != "✓" || r.FailureMode() != "" {
		t.Fatalf("clean verdict wrong: %q %q", r.Verdict(), r.FailureMode())
	}
	r2 := &Result{Termination: true, Agreement: false, Validity: true, Integrity: true}
	if r2.Verdict() != "✗" || r2.FailureMode() != "agreement violated" {
		t.Fatalf("violation verdict wrong: %q %q", r2.Verdict(), r2.FailureMode())
	}
	r3 := &Result{Termination: false, Agreement: true, Validity: true, Integrity: true}
	if r3.FailureMode() != "no termination" {
		t.Fatalf("termination verdict wrong: %q", r3.FailureMode())
	}
	r4 := &Result{Termination: true, Agreement: true, Validity: false, Integrity: true}
	if r4.FailureMode() != "validity violated" {
		t.Fatalf("validity verdict wrong: %q", r4.FailureMode())
	}
	r5 := &Result{Termination: true, Agreement: true, Validity: true, Integrity: false}
	if r5.Verdict() != "✗" || r5.FailureMode() != "integrity violated" {
		t.Fatalf("integrity verdict wrong: %q %q", r5.Verdict(), r5.FailureMode())
	}
}

// Determinism at the scenario level: same Params, same result.
func TestScenarioDeterminism(t *testing.T) {
	p := Fig1()[1].Params
	a, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Messages != b.Messages || a.Bytes != b.Bytes || a.Elapsed != b.Elapsed {
		t.Fatalf("runs differ: %d/%d/%d vs %d/%d/%d", a.Messages, a.Bytes, a.Elapsed, b.Messages, b.Bytes, b.Elapsed)
	}
}
