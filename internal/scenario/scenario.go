// Package scenario assembles full systems — a knowledge connectivity graph,
// a fault assignment, a network model, a protocol mode — runs them on the
// deterministic simulator (Runner.Run) or the real runtime (RunLive) and
// grades the outcome against the consensus properties (Agreement, Validity,
// Integrity, Termination); assemble.go is the one assembly and grading path
// both share. There is one description of a run, Params (plain data); one
// materialisation of it, Compiled; and one executor, Runner.Run — Params →
// Compiled → Run. Every table and figure of the paper is expressed as one or
// more Params (see experiments.go).
package scenario

import (
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/sim"
)

// ByzKind selects a Byzantine behavior.
type ByzKind int

// Byzantine behaviors available to scenarios.
const (
	// ByzSilent never sends a message.
	ByzSilent ByzKind = iota
	// ByzFakePD gossips a chosen (possibly false) own PD; silent otherwise.
	ByzFakePD
	// ByzEquivPD claims different PDs to different peers.
	ByzEquivPD
	// ByzAsCorrect runs the correct protocol while counting against f —
	// the adversary strategy of the Fig. 3 narrative.
	ByzAsCorrect
	// ByzDelay relays honest discovery content with Byzantine timing: every
	// GETPDS reply is held for HoldRounds discovery periods.
	ByzDelay
	// ByzSelectiveSilent runs honest discovery toward AnswerTo only and is
	// completely silent toward everyone else.
	ByzSelectiveSilent
	// ByzCollude joins a per-run colluding group: members share collected
	// records, advertise forged PDs for each other and censor the record
	// owners in Withhold from their replies.
	ByzCollude
)

// ByzKinds spells every Byzantine behavior, in declaration order.
var ByzKinds = model.Names[ByzKind]{
	{"silent", ByzSilent}, {"fake-pd", ByzFakePD}, {"equiv-pd", ByzEquivPD}, {"as-correct", ByzAsCorrect},
	{"delay", ByzDelay}, {"selective-silent", ByzSelectiveSilent}, {"collude", ByzCollude},
}

// String implements fmt.Stringer.
func (k ByzKind) String() string { return model.NameOf(ByzKinds, k, "byz") }

// ParseByzKind parses a ByzKind's String form.
func ParseByzKind(s string) (ByzKind, error) { return ByzKinds.Parse("byzantine kind", s) }

// ByzSpec describes one Byzantine process: explicitly in Params.Byz, and in
// Compiled.Byz with the automatic placements filled in beside the explicit
// ones. Every behavior-shaping field is plain data, so Params.CompileKey
// covers all of them — which is what lets the matrix layer's compile cache
// treat equal keys as interchangeable. A nil set picks the kind's default.
type ByzSpec struct {
	// Kind selects the behavior.
	Kind ByzKind
	// ClaimedPD is the advertised PD for the discovery-active behaviors.
	// Nil picks the kind's default: the graph's real out-set for ByzDelay /
	// ByzSelectiveSilent (those attacks distort timing and reach, not
	// content) and ForgedClaim for ByzFakePD / ByzEquivPD / ByzCollude
	// (claiming the truth would make the "fake" PD a no-op).
	ClaimedPD model.IDSet
	// AltPD is record B for ByzEquivPD, which even-numbered peers receive.
	AltPD model.IDSet
	// HoldRounds is how many discovery periods ByzDelay holds each reply
	// (values < 1 are floored to 1).
	HoldRounds int
	// AnswerTo is the peer subset ByzSelectiveSilent communicates with (nil
	// behaves like ByzSilent).
	AnswerTo model.IDSet
	// Withhold lists third-party record owners a ByzCollude member censors
	// from the group's replies (the group pools the union).
	Withhold model.IDSet
}

// ProcessResult is the outcome at one process.
type ProcessResult struct {
	// Byzantine marks the process as faulty in the scenario.
	Byzantine bool
	// Decided / Value / DecidedAt describe the decision, if one was reached.
	Decided   bool
	Value     model.Value
	DecidedAt sim.Time
	// Committee / G are the committee candidate the process adopted.
	Committee model.IDSet
	G         int
}

// Result grades a run.
type Result struct {
	// Name echoes the scenario; PerProcess holds each process's outcome.
	Name        string
	PerProcess  map[model.ID]ProcessResult
	Termination bool // every correct process decided within the horizon
	Agreement   bool // no two correct processes decided differently
	Validity    bool // every decided value was proposed by some process
	Integrity   bool // no correct process decided more than once
	// Messages / Bytes / ByKind are the simulator's traffic counters.
	Messages int64
	Bytes    int64
	ByKind   map[byte]int64
	// Dropped counts the sends a live run discarded on full outbound queues
	// (netrt.Cluster.Dropped) and Rejected the streams it closed for what
	// they carried (netrt.Cluster.Rejected); the simulator has neither.
	Dropped  int64
	Rejected int64
	// Elapsed is the virtual time of the last correct decision (or the
	// horizon when Termination fails).
	Elapsed sim.Time
	// TraceDigest / TraceEvents are set when the run was traced: a SHA-256
	// over the canonical encoding of every delivered event and decision.
	TraceDigest string
	TraceEvents int64
	// CountedFrom is the virtual time from which the simulator counted the
	// run's quiescent tail instead of simulating it (tail.go); 0 when every
	// event was simulated, as in every traced run. The counts above include
	// the tail either way.
	CountedFrom sim.Time
	// Coalesced counts the sends an untraced run left unqueued as replays
	// (sim.Metrics.Coalesced): a measure of simulation skipped, like
	// CountedFrom, and likewise in no outcome, stream or fingerprint. The
	// counts above include these sends.
	Coalesced int64
}

// Consensus reports whether all four consensus properties held.
func (r *Result) Consensus() bool {
	return r.Termination && r.Agreement && r.Validity && r.Integrity
}

// Verdict renders ✓/✗ in the style of the paper's Table I.
func (r *Result) Verdict() string {
	if r.Consensus() {
		return "✓"
	}
	return "✗"
}

// FailureMode names what went wrong (empty for a clean run).
func (r *Result) FailureMode() string {
	switch {
	case !r.Agreement:
		return "agreement violated"
	case !r.Validity:
		return "validity violated"
	case !r.Integrity:
		return "integrity violated"
	case !r.Termination:
		return "no termination"
	default:
		return ""
	}
}
