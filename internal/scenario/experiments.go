package scenario

import (
	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/sim"
)

// Expect records the paper's predicted outcome for an experiment, so the
// harness can print paper-vs-measured rows.
type Expect struct {
	Consensus bool   // ✓ (consensus solved) or ✗
	Note      string // which property fails and why, per the paper
}

// Experiment pairs a scenario with the paper's prediction.
type Experiment struct {
	ID string // e.g. "table1/partial/bft-cupft" or "fig2c"
	// Params describes the run (Params.Run executes it); Name is the ID.
	Params Params
	// Expect is the paper's prediction for the experiment.
	Expect Expect
}

const (
	defHorizon = 120 * sim.Second
)

func figDef(name string) graph.Def { return graph.Def{Kind: graph.DefFigure, Figure: name} }

// build names every experiment's Params after its ID. The tables are static
// data; a row that cannot compile fails the package tests, which run every one.
func build(exps []Experiment) []Experiment {
	for i := range exps {
		exps[i].Params.Name = exps[i].ID
	}
	return exps
}

// permissionedParams is the known-n-known-f column: complete graph on seven
// processes, f = 2, two silent Byzantine members.
func permissionedParams(net NetParams, horizon sim.Time, seed int64) Params {
	return Params{
		Graph: graph.Def{Kind: graph.DefComplete, N: 7},
		Mode:  core.ModePermissioned,
		F:     2,
		Byz: map[model.ID]ByzSpec{
			3: {Kind: ByzSilent},
			6: {Kind: ByzSilent},
		},
		Net:     net,
		Horizon: horizon,
		Seed:    seed,
	}
}

// bftCUPParams is the unknown-n-known-f column: Fig 1b, f = 1, Byzantine 4
// advertising the false PD {1,2,3} from the paper's worked example.
func bftCUPParams(net NetParams, horizon sim.Time, seed int64) Params {
	return Params{
		Graph: figDef("fig1b"),
		Mode:  core.ModeKnownF,
		F:     -1,
		Byz: map[model.ID]ByzSpec{
			4: {Kind: ByzFakePD, ClaimedPD: model.NewIDSet(1, 2, 3)},
		},
		Net:     net,
		Horizon: horizon,
		Seed:    seed,
	}
}

// bftCUPFTParams is the unknown-n-unknown-f column: Fig 4a with silent
// Byzantine 4; no process receives f.
func bftCUPFTParams(net NetParams, horizon sim.Time, seed int64) Params {
	return Params{
		Graph: figDef("fig4a"),
		Mode:  core.ModeUnknownF,
		Byz: map[model.ID]ByzSpec{
			4: {Kind: ByzSilent},
		},
		Net:     net,
		Horizon: horizon,
		Seed:    seed,
	}
}

func slow(p Params) Params {
	p.SlowDiscovery = true
	return p
}

// Table1 returns the nine cells of Table I: three knowledge models × three
// communication models. The async row uses the adversarial scheduler as a
// witness of [24]'s impossibility (observed non-termination by the horizon).
func Table1() []Experiment {
	sync := NetParams{Kind: NetSync}
	partial := NetParams{Kind: NetPartial, GST: 2 * sim.Second}
	async := NetParams{Kind: NetAsync}
	yes := Expect{Consensus: true}
	no := Expect{Consensus: false, Note: "deterministic consensus impossible in asynchrony [24]; adversarial schedule shows non-termination"}
	return build([]Experiment{
		{"table1/sync/known-n-known-f", permissionedParams(sync, defHorizon, 7), yes},
		{"table1/sync/unknown-n-known-f", bftCUPParams(sync, defHorizon, 11), yes},
		{"table1/sync/unknown-n-unknown-f", bftCUPFTParams(sync, defHorizon, 13), yes},
		{"table1/partial/known-n-known-f", permissionedParams(partial, defHorizon, 7), yes},
		{"table1/partial/unknown-n-known-f", bftCUPParams(partial, defHorizon, 11), yes},
		{"table1/partial/unknown-n-unknown-f", bftCUPFTParams(partial, defHorizon, 13), yes},
		{"table1/async/known-n-known-f", slow(permissionedParams(async, 60*sim.Second, 7)), no},
		{"table1/async/unknown-n-known-f", slow(bftCUPParams(async, 60*sim.Second, 11)), no},
		{"table1/async/unknown-n-unknown-f", slow(bftCUPFTParams(async, 60*sim.Second, 13)), no},
	})
}

// Fig1 returns the two Fig. 1 experiments: the invalid graph (1a) where the
// silent bridge process splits the system into islands that decide
// independently, and the valid graph (1b) where BFT-CUP solves consensus.
func Fig1() []Experiment {
	return build([]Experiment{
		{
			"fig1a",
			Params{
				Graph: figDef("fig1a"), Mode: core.ModeKnownF, F: -1,
				Byz: map[model.ID]ByzSpec{4: {Kind: ByzSilent}},
				Net: NetParams{Kind: NetSync},
				// Both islands decide quickly; the violation is immediate.
				Horizon: 60 * sim.Second, Seed: 21,
			},
			Expect{Consensus: false, Note: "graph violates Theorem 1; the two knowledge islands decide independently (Agreement violated)"},
		},
		{
			"fig1b",
			Params{
				Graph: figDef("fig1b"), Mode: core.ModeKnownF, F: -1,
				Byz:     map[model.ID]ByzSpec{4: {Kind: ByzFakePD, ClaimedPD: model.NewIDSet(1, 2, 3)}},
				Net:     NetParams{Kind: NetSync},
				Horizon: 60 * sim.Second, Seed: 22,
			},
			Expect{Consensus: true, Note: "graph satisfies Theorem 1; sink {1,2,3,4} identified despite the Byzantine PD claim"},
		},
	})
}

// Fig2 returns the Theorem 7 construction: systems A and B solve consensus
// on their own; the merged system AB — all correct, requirements of the
// BFT-CUP model satisfied with f=0, but f unknown — violates Agreement under
// the indistinguishability schedule for every no-f rule (and for a wrong f).
func Fig2() []Experiment {
	abNet := NetParams{
		Kind:       NetPartial,
		GST:        30 * sim.Second,
		FastGroups: []model.IDSet{model.NewIDSet(1, 2, 3), model.NewIDSet(6, 7, 8)},
	}
	sameU := map[model.ID]model.Value{}
	for _, id := range []model.ID{5, 6, 7, 8} {
		sameU[id] = model.Value("u")
	}
	sameV := map[model.ID]model.Value{}
	for _, id := range []model.ID{1, 2, 3, 4} {
		sameV[id] = model.Value("v")
	}
	abValues := map[model.ID]model.Value{}
	for id, v := range sameV {
		abValues[id] = v
	}
	for id, v := range sameU {
		abValues[id] = v
	}
	return build([]Experiment{
		{
			"fig2a",
			Params{
				Graph: figDef("fig2a"), Mode: core.ModeKnownF, F: -1,
				Byz:    map[model.ID]ByzSpec{4: {Kind: ByzSilent}},
				Values: sameV, Net: NetParams{Kind: NetSync}, Horizon: 60 * sim.Second, Seed: 31,
			},
			Expect{Consensus: true, Note: "system A decides v"},
		},
		{
			"fig2b",
			Params{
				Graph: figDef("fig2b"), Mode: core.ModeKnownF, F: -1,
				Byz:    map[model.ID]ByzSpec{5: {Kind: ByzSilent}},
				Values: sameU, Net: NetParams{Kind: NetSync}, Horizon: 60 * sim.Second, Seed: 32,
			},
			Expect{Consensus: true, Note: "system B decides u"},
		},
		{
			"fig2c/naive",
			Params{
				Graph: figDef("fig2c"), Mode: core.ModeNaive,
				Values: abValues, Net: abNet, Horizon: 90 * sim.Second, Seed: 33,
			},
			Expect{Consensus: false, Note: "Theorem 7: {1,2,3} decide v, {6,7,8} decide u"},
		},
		{
			"fig2c/bft-cupft",
			Params{
				Graph: figDef("fig2c"), Mode: core.ModeUnknownF,
				Values: abValues, Net: abNet, Horizon: 90 * sim.Second, Seed: 34,
			},
			Expect{Consensus: false, Note: "AB is 1-OSR but not extended (two maximal sinks): the Core algorithm splits too"},
		},
		{
			"fig2c/wrong-f",
			Params{
				Graph: figDef("fig2c"), Mode: core.ModeKnownF, F: 1,
				Values: abValues, Net: abNet, Horizon: 90 * sim.Second, Seed: 35,
			},
			Expect{Consensus: false, Note: "a wrong threshold (f=1, real f=0) reproduces the same split"},
		},
	})
}

// Fig3 returns the false-sink experiment: on Fig 3a (valid 2-OSR, Byzantine
// 1 behaving correctly, links of {5,7,8} slow) the non-sink members
// {1,2,3,4,6} satisfy isSink(2, ·, {5,7}) and decide independently of the
// true sink {5,7,8}.
func Fig3() []Experiment {
	net := NetParams{
		Kind:       NetPartial,
		GST:        30 * sim.Second,
		FastGroups: []model.IDSet{model.NewIDSet(1, 2, 3, 4, 6), model.NewIDSet(5, 7, 8)},
	}
	expect := Expect{Consensus: false, Note: "false sink {1,2,3,4,6}∪{5,7} (connectivity 3) outranks the true sink {5,7,8} (connectivity 2)"}
	mk := func(mode core.Mode) Params {
		return Params{
			Graph: figDef("fig3a"), Mode: mode,
			Byz:     map[model.ID]ByzSpec{1: {Kind: ByzAsCorrect}},
			Net:     net,
			Horizon: 90 * sim.Second,
			Seed:    41,
		}
	}
	return build([]Experiment{
		{"fig3a/naive", mk(core.ModeNaive), expect},
		{"fig3a/bft-cupft", mk(core.ModeUnknownF), expect},
	})
}

// Fig4 returns the BFT-CUPFT possibility experiments on both extended k-OSR
// graphs, plus the broken variant of Fig 4a without its added links.
func Fig4() []Experiment {
	return build([]Experiment{
		{
			"fig4a",
			Params{
				Graph: figDef("fig4a"), Mode: core.ModeUnknownF,
				Byz:     map[model.ID]ByzSpec{4: {Kind: ByzSilent}},
				Net:     NetParams{Kind: NetSync},
				Horizon: 60 * sim.Second,
				Seed:    51,
			},
			Expect{Consensus: true, Note: "core {1,2,3,4} identified everywhere; sink of the full graph differs from the core"},
		},
		{
			"fig4a/all-correct",
			Params{
				Graph: figDef("fig4a"), Mode: core.ModeUnknownF,
				Net:     NetParams{Kind: NetSync},
				Horizon: 60 * sim.Second,
				Seed:    52,
			},
			Expect{Consensus: true, Note: "same core with the Byzantine seat occupied by a correct process"},
		},
		{
			"fig4a/without-added-links",
			Params{
				Graph: figDef("fig4a-without-added-links"), Mode: core.ModeUnknownF,
				Byz: map[model.ID]ByzSpec{4: {Kind: ByzSilent}},
				Net: NetParams{
					Kind:      NetPartial,
					GST:       30 * sim.Second,
					SlowTouch: model.NewIDSet(5),
				},
				Horizon: 90 * sim.Second,
				Seed:    53,
			},
			Expect{Consensus: false, Note: "without 6→3 and 7→2, {6,7,8}∪{5} ties the core's connectivity: {5,6,7,8} can decide independently when 5 is slow"},
		},
		{
			"fig4b",
			Params{
				Graph: figDef("fig4b"), Mode: core.ModeUnknownF,
				Byz: map[model.ID]ByzSpec{
					4: {Kind: ByzSilent},
					9: {Kind: ByzSilent},
				},
				Net:     NetParams{Kind: NetSync},
				Horizon: 60 * sim.Second,
				Seed:    54,
			},
			Expect{Consensus: true, Note: "core = sink = {8..15}; f = 2 tolerated without any process knowing it"},
		},
	})
}

// AllExperiments returns every experiment in presentation order.
func AllExperiments() []Experiment {
	var out []Experiment
	out = append(out, Table1()...)
	out = append(out, Fig1()...)
	out = append(out, Fig2()...)
	out = append(out, Fig3()...)
	out = append(out, Fig4()...)
	return out
}
