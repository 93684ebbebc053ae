// Package rt defines the Runtime abstraction the BFT-CUP protocol stack is
// written against: a node-local view of time, randomness, message transmission
// and timer scheduling, plus the reactor callbacks a runtime drives. The
// protocol layers (core, discovery, pbft, byz) import only this package;
// which world they run in is the runtime's business:
//
//   - internal/sim implements it as a deterministic discrete-event engine
//     over a virtual clock (identical seeds ⇒ byte-identical traces), and
//   - internal/netrt implements it over real transports — length-prefixed
//     frames on TCP or net.Pipe, goroutines, monotonic wall clocks.
//
// The same core.Node therefore runs unchanged under the simulator, an
// in-process pipe cluster, or a cmd/cupd daemon on a real socket, which
// makes the simulator a deterministic twin of the deployable system: any
// divergence in verdicts between the two runtimes on one scenario is a bug in
// one of the twins, and the twin tests in internal/scenario assert exactly
// that.
//
// # The contract a runtime must honor
//
// Serialization. A runtime never calls a reactor concurrently: Init, Receive,
// Timer (and Restart) are strictly serialized per reactor. Reactors are
// single-threaded state machines and hold no locks.
//
// Payload ownership. A payload is written before it is first sent and never
// again, by anyone. Send hands the slice over: the runtime may keep, queue and
// share it without copying, so the caller may go on reading and re-sending it
// (a broadcast loop, a cached reply) but never writes to its backing array
// again. Receive gets a read-only slice, possibly the sender's own memory and
// shared with every other recipient, and may keep it past the callback
// without copying. Whoever wants different bytes — a Byzantine relay included
// — builds a new payload. Simulated processes share one address space, so a
// violation corrupts another process silently:
// TestPayloadsNeverWrittenAfterSend in internal/scenario is the detector.
//
// Best-effort channels. Send is fire-and-forget. Sending to an unknown,
// crashed, or unreachable process silently drops — the channel abstraction
// does not acknowledge — and the protocol layers are written to tolerate
// loss (retransmission is the protocol's job, not the runtime's).
//
// Replays. A reactor may declare payloads that a second delivery of cannot
// change (ReplayInert); a runtime may then skip such a replay. The
// declaration is the reactor's, per payload, and costs nothing to ignore.
//
// Timers and crashes. SetTimer schedules a Timer callback after a relative
// delay. Pending timers die with a crash: a runtime that supports
// crash/restart (the simulator's churn schedule, a daemon being restarted)
// delivers no timer set by a previous incarnation, while messages — which
// live in the network, not the process — may still arrive after a restart.
// A restarted reactor re-arms its own timers from Restart (see Restartable).
//
// Determinism. Now and Rand are node-local and runtime-owned. Under the
// simulator both are deterministic (virtual clock, seeded RNG) and every
// random protocol decision MUST come from Rand — never from wall clocks,
// map iteration order, or goroutine scheduling — which is what keeps traces
// byte-identical across runs and machines. Real runtimes map Now to a
// monotonic clock and seed Rand per node; protocol code cannot tell the
// difference, and must not try.
package rt

import (
	"fmt"
	"math/rand"

	"github.com/bftcup/bftcup/internal/model"
)

// Time is a node-local timestamp or duration in nanoseconds. Under the
// simulator it is virtual time since the start of the run; under a real
// runtime it is monotonic time since the node booted. Protocol code only ever
// compares and adds Times, so the difference is invisible to it.
type Time int64

// Convenient durations.
const (
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders the duration human-readably ("2.00s", "14.3ms").
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.2fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.1fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Reactor is a deterministic, single-threaded protocol state machine. The
// runtime — simulated or real — serializes all callbacks.
type Reactor interface {
	// Init runs once before any event is delivered.
	Init(ctx Context)
	// Receive delivers a message from another process. The payload is
	// read-only and may be shared with the sender and other recipients; it
	// never changes, so the reactor may keep it without copying.
	Receive(ctx Context, from model.ID, payload []byte)
	// Timer fires a timer set via Context.SetTimer.
	Timer(ctx Context, tag uint64)
}

// Context is the runtime-side interface a reactor uses to act on the world:
// send, timer scheduling, clock and node-local randomness.
type Context interface {
	// ID returns the process this context belongs to.
	ID() model.ID
	// Now returns the current node-local time.
	Now() Time
	// Send transmits payload to the given process, best-effort (see the
	// package comment). The slice is handed over, not copied: the caller may
	// read it and send it again, but must never write to it afterwards.
	Send(to model.ID, payload []byte)
	// SetTimer schedules Timer(tag) after d.
	SetTimer(d Time, tag uint64)
	// Rand is the node-local RNG (use only inside the reactor's own
	// callbacks). Deterministic under the simulator.
	Rand() *rand.Rand
}

// Restartable is an optional Reactor extension for processes that can resume
// from persisted state after a crash — the runtime's crash/restart hook. A
// restart without state wipe calls Restart (falling back to Init when the
// reactor does not implement it); the reactor re-arms whatever timers it
// needs, because pending timers from before the crash are gone.
type Restartable interface {
	Restart(ctx Context)
}

// ReplayInert is an optional Reactor extension for processes to which some
// payloads are inert on replay: once Receive has been handed a payload the
// reactor declares inert, handing it the same slice from the same sender
// again — at any later point, whatever was delivered in between — changes
// nothing it holds or does (no state, no send, no timer). A merge that is
// idempotent, as Algorithm 1's SETPDS is, qualifies; a request that is
// answered, as GETPDS is, does not. The answer for a payload must not change
// during a run.
//
// A runtime may use the declaration to drop such a replay instead of
// delivering it: the simulator, when untraced and fault-free, does not queue
// a send whose slice the same sender already has queued or delivered to the
// same recipient no later (internal/sim, "Hot path"). Since a payload is
// never written once sent, the same memory at the same length is the same
// bytes.
type ReplayInert interface {
	ReplayInert(payload []byte) bool
}
