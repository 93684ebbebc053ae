// Package scenario assembles full systems — a knowledge connectivity graph,
// a fault assignment, a network model, a protocol mode — runs them on the
// deterministic simulator (Runner.Run) or the real runtime (RunLive) and
// grades the outcome against the consensus properties (Agreement, Validity,
// Integrity, Termination); assemble.go is the one assembly and grading path
// both share. Every table and figure of the paper is expressed as one or
// more Specs (see experiments.go).
package scenario

import (
	"fmt"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/discovery"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/sim"
)

// ByzKind selects a Byzantine behavior.
type ByzKind int

// Byzantine behaviors available to specs.
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

// String implements fmt.Stringer.
func (k ByzKind) String() string {
	switch k {
	case ByzSilent:
		return "silent"
	case ByzFakePD:
		return "fake-pd"
	case ByzEquivPD:
		return "equiv-pd"
	case ByzAsCorrect:
		return "as-correct"
	case ByzDelay:
		return "delay"
	case ByzSelectiveSilent:
		return "selective-silent"
	case ByzCollude:
		return "collude"
	default:
		return fmt.Sprintf("byz(%d)", int(k))
	}
}

// ByzSpec configures one Byzantine process. All behavior-shaping fields are
// plain data (sets and integers) so a spec has a canonical serialized
// identity — Params.CompileKey covers every one of them, which is what lets
// the matrix layer's compile cache treat equal keys as interchangeable.
type ByzSpec struct {
	// Kind selects the behavior.
	Kind ByzKind
	// ClaimedPD is the advertised PD for the discovery-active behaviors.
	// Nil picks the kind's default: the graph's real out-set for ByzDelay /
	// ByzSelectiveSilent (those attacks distort timing and reach, not
	// content) and ForgedClaim for ByzFakePD / ByzEquivPD / ByzCollude
	// (claiming the truth would make the "fake" PD a no-op).
	ClaimedPD model.IDSet
	// AltPD is record B for ByzEquivPD.
	AltPD model.IDSet
	// AltRecipients is the peer set that receives AltPD under ByzEquivPD.
	// Nil falls back to ChooseAlt (and then to the even-ID default). Unlike
	// ChooseAlt it is data, visible to CompileKey.
	AltRecipients model.IDSet
	// ChooseAlt selects which peers receive AltPD. Functions have no
	// canonical identity, so hand-written Specs may use it but Params cannot;
	// AltRecipients wins when both are set.
	ChooseAlt func(model.ID) bool
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

// Spec is a full experiment description.
type Spec struct {
	// Name labels the experiment in results and errors.
	Name string
	// Graph is the knowledge connectivity graph; correct processes use its
	// out-edges as their PDs.
	Graph *graph.Digraph
	// Mode selects the committee-identification protocol.
	Mode core.Mode
	// F is handed to processes in ModeKnownF / ModePermissioned.
	F int
	// Byz assigns Byzantine behaviors to processes.
	Byz map[model.ID]ByzSpec
	// Values maps processes to proposals; missing entries default to "v<id>".
	Values map[model.ID]model.Value
	// Net is the network model the engine runs under.
	Net sim.NetworkModel
	// Horizon bounds the run; Termination is judged against it.
	Horizon sim.Time
	// Seed drives the engine RNG and key generation.
	Seed int64

	// Discovery tunes Algorithm 1; PBFTTimeout and PollPeriod override the
	// committee protocol's base view timeout and the non-member polling
	// interval (zero keeps the defaults).
	Discovery   discovery.Config
	PBFTTimeout sim.Time
	PollPeriod  sim.Time

	// Insecure swaps the Ed25519 keyring for the cryptox insecure suite (see
	// Params.Insecure for the comparability caveat).
	Insecure bool

	// Faults is the chaos fault-injection axis (see Params.Faults). Compile
	// folds the link-level faults into Net as a sim.FaultyNetwork wrapper —
	// Net must therefore be the bare model, not pre-wrapped — and each Run
	// schedules the churn crash/restart points on the engine.
	Faults FaultParams

	// Trace, when set, records every delivered event and every decision into
	// a streaming digest (Result.TraceDigest) for determinism assertions.
	Trace bool
}

// ProcessResult is the outcome at one process.
type ProcessResult struct {
	// Byzantine marks the process as faulty in the spec.
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
	// Name echoes the spec; PerProcess holds each process's outcome.
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
	// (netrt.Cluster.Dropped); the simulator has no such queue.
	Dropped int64
	// Elapsed is the virtual time of the last correct decision (or the
	// horizon when Termination fails).
	Elapsed sim.Time
	// TraceDigest / TraceEvents are set when Spec.Trace was on: a SHA-256
	// over the canonical encoding of every delivered event and decision.
	TraceDigest string
	TraceEvents int64
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

// Run executes a spec. It is a thin shim over the Compile → Run pipeline
// (see compile.go): the Spec's defaults are filled, the seed-independent
// parts wrapped in a Compiled, and a fresh Runner executes it — so one-shot
// callers and the compile-once-run-many sweep path cannot diverge. The
// returned Result is independently owned (safe to retain).
func Run(spec Spec) (*Result, error) {
	c, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	return c.Run(spec.Seed, spec.Trace)
}
