package scenario

import (
	"fmt"

	"github.com/bftcup/bftcup/internal/byz"
	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/discovery"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// This file is the only place a compiled cell becomes reactors and the only
// place a decision log becomes a Result. Every way of running a cell — the
// simulator (Runner.Run), a live cluster (RunLive), one live node (LiveNode:
// a cupd daemon, and each process of the root package's System) — is "make
// a runtime, assemble, drive, grade" over it, so a new zoo kind, grading
// rule or key suite is written once and the sim≡live twin cannot drift.

// stack is what assembly needs beyond the compiled cell: the run's key
// material, the protocol durations (virtual for the simulator,
// LiveDurations for a live run), where searchers come from, where each
// decided slot goes and — set by LiveNode only — how many slots a node
// chains and on which proposals.
type stack struct {
	c                       *Compiled
	signers                 map[model.ID]cryptox.Signer
	reg                     cryptox.Verifier
	disc                    discovery.Config
	pbftTimeout, pollPeriod rt.Time
	searcher                func() kosr.Search
	decide                  func(id model.ID, slot uint64, v model.Value)
	slots                   uint64
	proposalFor             func(slot uint64) model.Value
}

// newStack takes the run's key material — the Ed25519 keyring for seed+1
// from the run's key store — around the given durations.
func (c *Compiled) newStack(keys *cryptox.Keys, seed int64, disc discovery.Config, pbftTimeout, pollPeriod rt.Time) (stack, error) {
	s := stack{c: c, disc: disc, pbftTimeout: pbftTimeout, pollPeriod: pollPeriod}
	var err error
	s.signers, s.reg, err = keys.Keyring(seed+1, c.ids)
	return s, err
}

// proposal is the process's proposed value: the cell's, or "v<id>".
func (s *stack) proposal(id model.ID) model.Value {
	if v, ok := s.c.Values[id]; ok {
		return v
	}
	return model.Value(fmt.Sprintf("v%d", id))
}

// node builds a correct node for one process. Besides assemble, LiveNode
// calls it, and the simulator for the replacement reactor of a wiped churn
// restart.
func (s *stack) node(id model.ID, value model.Value) *core.Node {
	c := s.c
	cfg := core.Config{
		Mode:          c.Mode,
		F:             c.F,
		PD:            c.Graph.OutSet(id).Clone(),
		Proposal:      value,
		Discovery:     s.disc,
		PBFTTimeout:   s.pbftTimeout,
		PollPeriod:    s.pollPeriod,
		Slots:         s.slots,
		ProposalFor:   s.proposalFor,
		OnSlotDecided: func(slot uint64, v model.Value) { s.decide(id, slot, v) },
		Hardened:      c.Hardened,
	}
	if c.Mode != core.ModePermissioned {
		cfg.Searcher = s.searcher()
	}
	return core.NewNode(s.signers[id], s.reg, cfg, nil)
}

// assemble builds every process's reactor in ID order — a correct node, or
// the zoo behaviour the cell assigns — hands it to add, and fills the log's
// proposals, nodes and correct set.
func (s *stack) assemble(log *runLog, add func(model.ID, rt.Reactor) error) error {
	c := s.c
	// Colluding-group state is mutable run state, so it is built here per
	// run, never stored in the (goroutine-shared, immutable) Compiled.
	// Members join in sorted ID order before any runtime starts — the group
	// record list is part of every member's replies from the first round.
	var collusion *byz.Collusion
	var colluders map[model.ID]*byz.Colluder
	for _, id := range c.ids {
		if bspec, ok := c.Byz[id]; ok && bspec.Kind == ByzCollude {
			if collusion == nil {
				collusion = byz.NewCollusion(s.reg, s.disc)
				colluders = make(map[model.ID]*byz.Colluder)
			}
			colluders[id] = collusion.AddMember(s.signers[id], resolveClaim(c, id, bspec), bspec.Withhold)
		}
	}

	for _, id := range c.ids {
		value := s.proposal(id)
		log.proposals[id] = value

		bspec, isByz := c.Byz[id]
		if !isByz {
			log.correct.Add(id)
		}
		var reactor rt.Reactor
		if !isByz || bspec.Kind == ByzAsCorrect {
			n := s.node(id, value)
			log.nodes[id] = n
			reactor = n
		} else if reactor = s.zoo(id, bspec, colluders[id]); reactor == nil {
			return fmt.Errorf("unknown byz kind %v", bspec.Kind)
		}
		if err := add(id, reactor); err != nil {
			return err
		}
	}
	return nil
}

// zoo builds the Byzantine reactor of one process (nil for an unknown kind);
// colluder is its seat in the run's colluding group, if it has one.
func (s *stack) zoo(id model.ID, bspec ByzSpec, colluder *byz.Colluder) rt.Reactor {
	signer := s.signers[id]
	switch bspec.Kind {
	case ByzSilent:
		return byz.Silent{}
	case ByzFakePD:
		return byz.NewFakePD(signer, s.reg, resolveClaim(s.c, id, bspec), s.disc)
	case ByzEquivPD:
		alt := bspec.AltPD
		if alt == nil {
			alt = model.NewIDSet()
		}
		var choose func(model.ID) bool
		if bspec.AltRecipients != nil {
			choose = bspec.AltRecipients.Has
		}
		return byz.NewPDEquivocator(signer, s.reg, resolveClaim(s.c, id, bspec), alt, choose, s.disc)
	case ByzDelay:
		return byz.NewDelayer(signer, s.reg, resolveClaim(s.c, id, bspec), s.disc, bspec.HoldRounds)
	case ByzSelectiveSilent:
		return byz.NewSelectiveSilent(signer, s.reg, resolveClaim(s.c, id, bspec), bspec.AnswerTo, s.disc)
	case ByzCollude:
		return colluder
	default:
		return nil
	}
}

// runLog is a run's decision log: what assemble and the decide callbacks
// write and grade reads. The Runner keeps one and clears it between runs.
type runLog struct {
	proposals     map[model.ID]model.Value
	nodes         map[model.ID]*core.Node
	correct       model.IDSet
	decisions     map[model.ID]model.Value
	decidedAt     map[model.ID]rt.Time
	doubleDecided model.IDSet
	// decidedCorrect counts first decisions by correct processes, so the
	// termination check is one comparison instead of a set scan.
	decidedCorrect int
}

// reset empties the log, allocating its maps on first use.
func (l *runLog) reset() {
	if l.proposals == nil {
		l.proposals = make(map[model.ID]model.Value)
		l.nodes = make(map[model.ID]*core.Node)
		l.correct = model.NewIDSet()
		l.decisions = make(map[model.ID]model.Value)
		l.decidedAt = make(map[model.ID]rt.Time)
		l.doubleDecided = model.NewIDSet()
	}
	clear(l.proposals)
	clear(l.nodes)
	clear(l.correct)
	clear(l.decisions)
	clear(l.decidedAt)
	clear(l.doubleDecided)
	l.decidedCorrect = 0
}

// record logs one decide callback at time at (virtual units) and reports
// whether it was the process's first decision.
func (l *runLog) record(id model.ID, v model.Value, at rt.Time) bool {
	if prev, dup := l.decisions[id]; dup {
		// A wiped restart legitimately re-runs agreement; only a
		// *conflicting* second decision is an integrity violation.
		if !prev.Equal(v) {
			l.doubleDecided.Add(id)
		}
		return false
	}
	l.decisions[id] = v
	l.decidedAt[id] = at
	if l.correct.Has(id) {
		l.decidedCorrect++
	}
	return true
}

// allCorrectDecided is the termination condition (vacuously true with no
// correct process).
func (l *runLog) allCorrectDecided() bool { return l.decidedCorrect == l.correct.Len() }

// grade fills res — PerProcess, the four properties and Elapsed — from the
// log. terminated is whether every correct process decided within the
// horizon.
func (l *runLog) grade(c *Compiled, res *Result, terminated bool) {
	res.Termination = terminated
	res.Agreement, res.Validity, res.Integrity = true, true, true
	for id := range l.doubleDecided {
		if l.correct.Has(id) {
			res.Integrity = false
		}
	}
	var last rt.Time
	var agreed model.Value
	first := true
	for _, id := range c.ids {
		_, isByz := c.Byz[id]
		pr := ProcessResult{Byzantine: isByz}
		if n, ok := l.nodes[id]; ok {
			if cand, ok := n.Committee(); ok {
				pr.Committee = cand.Members()
				pr.G = cand.G
			}
		}
		if v, ok := l.decisions[id]; ok {
			pr.Decided, pr.Value, pr.DecidedAt = true, v, l.decidedAt[id]
		}
		res.PerProcess[id] = pr

		if !l.correct.Has(id) || !pr.Decided {
			continue
		}
		last = max(last, pr.DecidedAt)
		if first {
			agreed, first = pr.Value, false
		} else if !agreed.Equal(pr.Value) {
			res.Agreement = false
		}
		proposed := false
		for _, p := range l.proposals {
			if p.Equal(pr.Value) {
				proposed = true
				break
			}
		}
		if !proposed {
			res.Validity = false
		}
	}
	res.Elapsed = last
	if !terminated {
		res.Elapsed = c.Horizon
	}
}
