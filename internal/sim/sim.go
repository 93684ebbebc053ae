// Package sim is a deterministic discrete-event simulator for message-passing
// protocols. Processes are Reactors driven by three callbacks (Init, Receive,
// Timer); the engine owns a virtual clock, a seeded RNG and a network model
// that assigns per-message delivery delays. Identical seeds and inputs yield
// identical traces, which the experiments and benchmarks rely on.
//
// The network models implement the paper's three communication assumptions:
// synchronous, partially synchronous (explicit GST and δ, with optional slow
// link classes used to build the Theorem 7 indistinguishability schedules)
// and an adversarial asynchronous scheduler whose delays grow with time,
// exhibiting the non-termination that [24] proves unavoidable.
//
// # Hot path
//
// The engine is written to be allocation-free in steady state: events are
// one-cache-line records in a recycled slab, queued in a hierarchical timing
// wheel — a fine wheel of 32.8 µs buckets over the open 67 ms period and the
// next, a far wheel of 67 ms buckets over the 137 s after that, a binary heap
// for what lies beyond (see the queue constants) — and a crowded bucket is
// sorted by a two-pass radix sort on its events' 15-bit offsets, not through
// a comparator; a message is the slice its sender passed to Send, carried
// in the event record — never copied or pooled — and processes are found
// through a dense model.IDIndex, not a Go map. Delivery order is (at, seq) —
// virtual time, then FIFO — and nothing else about the queue is observable.
// The RNG behind Context.Rand and NetworkModel.Delay is a splitmix64 source
// wrapped in math/rand, a few nanoseconds per draw with no per-engine table
// allocation.
//
// An untraced run that injects no faults and schedules no crash or restart
// coalesces replays: a send to a recipient that declares the payload
// rt.ReplayInert is counted in Metrics, draws its delay and takes its seq,
// but is not queued when the same sender has the same slice (memory and
// length) queued or delivered to that recipient no later (Send, replayed).
// Its delivery would have changed nothing, so every other event, count and
// draw is as it was; Metrics.Coalesced counts these sends. Algorithm 1
// re-sends one SETPDS slice per period until a record arrives, and the
// partial-synchrony cells deliver all of them at GST, so this is about 40 %
// of a standard sweep's SETPDS. A traced run queues everything: its digest
// hashes every delivery, and it is the oracle the untraced one is held to.
//
// The zero-copy delivery contract (internal/rt, "Payload ownership"): Receive
// gets the sender's backing array, shared with a broadcast's other recipients
// and a FaultInjector's duplicates; nobody writes to it after Send (the
// detector is internal/scenario's TestPayloadsNeverWrittenAfterSend), so a
// reactor may keep it.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// The runtime abstraction (Time, Reactor, Context, Restartable) lives in
// internal/rt; the engine is one implementation of it. Time and its
// durations keep sim.* aliases, the same types, so virtual times read alike
// in either spelling.

// Time is virtual nanoseconds since the start of the run.
type Time = rt.Time

// Convenient virtual durations.
const (
	Microsecond = rt.Microsecond
	Millisecond = rt.Millisecond
	Second      = rt.Second
)

// NetworkModel assigns a delivery delay to each message.
type NetworkModel interface {
	// Delay is called once per message at send time.
	Delay(from, to model.ID, now Time, rng *rand.Rand) Time
}

// Metrics accumulates network counters for the experiment tables. They
// count the sends the engine simulated, and only those: where a caller stops
// a run early and credits the traffic of its rest (internal/scenario's
// counted tail), the credit goes to its own result, never into Metrics.
type Metrics struct {
	// Messages counts every accepted Send.
	Messages int64
	// Bytes totals the payload bytes of every accepted Send.
	Bytes int64
	// Coalesced counts the accepted sends the engine did not queue because
	// the recipient had the same slice from the same sender due no later (see
	// Send). They are in Messages, Bytes and the kind counts all the same;
	// this says only how much simulation an untraced run skipped.
	Coalesced int64
	// byKind counts messages per leading payload byte (the wire kind).
	// An array, not a map: the per-message increment is on the hot path.
	byKind [256]int64
}

// ByKind returns a snapshot of the per-kind message counts (only kinds with
// at least one message appear).
func (m *Metrics) ByKind() map[byte]int64 {
	out := make(map[byte]int64)
	for k, v := range m.byKind {
		if v != 0 {
			out[byte(k)] = v
		}
	}
	return out
}

type eventKind uint8

const (
	evMessage eventKind = iota
	evTimer
	evCrash
	evRestart
)

// event is one scheduled delivery: a record in the engine's slab, exactly one
// cache line (TestEventRecordFitsCacheLine). tgt is the recipient's index in
// Engine.procs, so delivery looks nothing up; body is the slice the sender
// passed to Send. next links the records of one wheel bucket, and the free slots.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among same-time events
	src  uint64 // evMessage: sender ID; evTimer: tag; evCrash/evRestart: index into Engine.controls
	body []byte // evMessage
	tgt  int32
	next int32
	gen  uint32 // evTimer: the target's incarnation at scheduling time
	kind eventKind
}

// The event queue is a two-level timing wheel in front of a heap. Virtual time
// is cut into fine buckets of 1<<bucketShift ns and coarse periods of
// 1<<coarseShift ns; C is the coarse period of the open bucket. The fine wheel
// (wheelBuckets slots) holds the fine buckets of C and C+1 after the open one,
// the far wheel (farBuckets slots, one per coarse period) holds C+2 …
// C+1+farBuckets, the heap whatever lies beyond. When C advances, the far
// bucket that becomes C+1 cascades into the fine wheel. The constants decide
// only which tier an event waits in, never the order, so they are not
// tunables: 32.8 µs fine buckets keep the sweeps' Δ-bounded deliveries (Δ =
// 5 ms) and discovery period (20 ms) at a few events a bucket, and 67 ms × 2,048
// = 137 s of far wheel holds the pre-GST backlog of a 2 s GST (ARCHITECTURE.md,
// "The determinism contract").
const (
	bucketShift  = 15
	coarseShift  = 26
	wheelBuckets = 2 << (coarseShift - bucketShift) // two coarse periods: 4,096
	farBuckets   = 2048
	// crowded is the largest bucket sorted by insertion; a larger one is radix
	// sorted (sortCrowded).
	crowded = 24
)

// qkey is what the sorted tiers hold: (at, seq) and the event's slab slot.
type qkey struct {
	at   Time
	seq  uint64
	slot int32
}

// before orders keys by (at, seq): virtual time first, FIFO within a tick.
func (k qkey) before(o qkey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// Engine drives a set of reactors over a virtual clock.
type Engine struct {
	now Time
	seq uint64
	// procs is in AddProcess order, index maps an ID to its position there.
	procs []*proc
	index model.IDIndex
	order []model.ID
	net   NetworkModel
	// injector is net's FaultInjector view, cached so the zero-fault send
	// path pays one nil check instead of a per-message type assertion.
	injector FaultInjector
	rng      *rand.Rand
	metrics  *Metrics
	trace    *Trace
	started  bool
	// coalesce is set at start when replays may be left unqueued: the run is
	// untraced, injects no faults and schedules no crash or restart. replays
	// is then the open-addressed table of each (sender, recipient) pair's
	// last queued replay-inert payload, len a power of two or zero, with
	// replayN slots in use; it keeps its size across Reset.
	coalesce bool
	replays  []replay
	replayN  int

	// The pending events. Records live in slab (slot 0 is the nil slot, free
	// heads the recycled ones) and wait in the tier their bucket b = at >>
	// bucketShift, of coarse period c = coarseOf(b), selects: b <= cur in
	// run, the open bucket's keys, sorted when it was opened and consumed from
	// runPos; c <= C+1 in the fine wheel, where heads[b%wheelBuckets] starts
	// a list through event.next and occ has a bit per non-empty bucket; c <=
	// C+1+farBuckets in the far wheel, the same with farHeads[c%farBuckets]
	// and farOcc, except that a far list is oldest first and farTails holds
	// its last record (read only behind a non-zero head); later ones in over,
	// a binary min-heap of keys. Every advance of C moves what each tier now
	// covers down a tier, so the ranges stay disjoint and pops follow (at,
	// seq). spare is the crowded-bucket sort's scratch.
	slab     []event
	free     int32
	run      []qkey
	runPos   int
	spare    []qkey
	cur      int64
	heads    [wheelBuckets]int32
	occ      [wheelBuckets / 64]uint64
	farHeads [farBuckets]int32
	farTails [farBuckets]int32
	farOcc   [farBuckets / 64]uint64
	over     []qkey

	// preCrashed holds Crash marks issued before AddProcess.
	preCrashed model.IDSet

	// controls are scheduled crash/restart points, pushed as events at start.
	controls []control
}

// control is one scheduled crash or restart (the churn schedule). Controls
// registered before start are resolved and pushed as events when the run
// begins; controls naming IDs that were never added are ignored.
type control struct {
	at          Time
	id          model.ID
	restart     bool
	replacement rt.Reactor // restart only: non-nil swaps the reactor (wiped state)
}

// proc is one process, and the Context its reactor is handed.
type proc struct {
	engine  *Engine
	id      model.ID
	idx     int32 // position in Engine.procs
	reactor rt.Reactor
	// inert is reactor's rt.ReplayInert view, nil when it declares none.
	inert   rt.ReplayInert
	crashed bool
	// gen is the incarnation number, bumped at every crash. Timer events
	// carry the gen they were scheduled under and are dropped on mismatch:
	// a process's pending timers die with it, while in-flight messages —
	// which live in the network, not the process — survive a restart.
	gen uint32
}

// NewEngine creates an engine with the given network model and seed.
func NewEngine(net NetworkModel, seed int64) *Engine {
	inj, _ := net.(FaultInjector)
	return &Engine{
		slab:     make([]event, 1), // slot 0 is the nil slot
		net:      net,
		injector: inj,
		rng:      newRand(seed),
		metrics:  &Metrics{},
	}
}

// Reset returns the engine to its just-constructed state under a new network
// model and seed, retaining the capacity of the event slab, the queue's tiers
// and the process table — the allocations a fresh NewEngine would repeat. A
// sweep worker running thousands of cells resets one engine instead of
// constructing one per cell; a reset engine is indistinguishable from a new
// one (pinned by the scenario-level cached-vs-uncached fingerprint tests).
func (e *Engine) Reset(net NetworkModel, seed int64) {
	clear(e.slab) // pending messages must not keep their payloads from the GC
	e.slab, e.free = e.slab[:1], 0
	e.run, e.runPos, e.cur = e.run[:0], 0, 0
	clear(e.heads[:])
	clear(e.occ[:])
	clear(e.farHeads[:])
	clear(e.farOcc[:])
	e.over = e.over[:0]
	clear(e.procs)
	e.procs = e.procs[:0]
	e.index.Reset()
	e.order = e.order[:0]
	e.now, e.seq = 0, 0
	e.net = net
	e.injector, _ = net.(FaultInjector)
	e.rng = newRand(seed)
	*e.metrics = Metrics{}
	e.trace = nil
	e.started = false
	e.coalesce = false
	if e.replayN > 0 {
		clear(e.replays) // and let the payloads they name go
		e.replayN = 0
	}
	e.preCrashed = nil
	e.controls = e.controls[:0]
}

// Metrics returns the accumulated network counters.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// AddProcess registers a reactor under an ID. Must be called before Run.
func (e *Engine) AddProcess(id model.ID, r rt.Reactor) error {
	if e.started {
		return fmt.Errorf("sim: AddProcess(%v) after start", id)
	}
	if _, added := e.index.Insert(id); !added {
		return fmt.Errorf("sim: duplicate process %v", id)
	}
	p := &proc{engine: e, id: id, idx: int32(len(e.procs)), reactor: r}
	p.inert, _ = r.(rt.ReplayInert)
	if e.preCrashed.Has(id) {
		p.crashed = true
	}
	e.procs = append(e.procs, p)
	e.order = append(e.order, id)
	return nil
}

// Crash stops delivering events to and from the given process. It may be
// called before the process is added; the mark is applied at registration.
func (e *Engine) Crash(id model.ID) {
	if i, ok := e.index.Lookup(id); ok {
		p := e.procs[i]
		p.crashed = true
		p.gen++
		return
	}
	if e.preCrashed == nil {
		e.preCrashed = model.NewIDSet()
	}
	e.preCrashed.Add(id)
}

// ScheduleCrash crashes the process at virtual time at. The process runs
// normally (including Init) until then; messages in flight to it at the
// moment of the crash are dropped at delivery time, and its pending timers
// die with it. Must be called before the run starts.
func (e *Engine) ScheduleCrash(id model.ID, at Time) {
	e.controls = append(e.controls, control{at: at, id: id})
}

// ScheduleRestart revives a crashed process at virtual time at. With a nil
// replacement the process resumes with its state persisted: the original
// reactor's Restart is called (Init, if it does not implement Restartable).
// A non-nil replacement models a wiped restart — the process comes back as a
// fresh reactor (same ID, empty state) and replacement.Init runs. Either
// way, in-flight messages sent before the crash that arrive after the
// restart are delivered; timers from the previous incarnation are not.
// Must be called before the run starts. Restarting a live process is a
// no-op.
func (e *Engine) ScheduleRestart(id model.ID, at Time, replacement rt.Reactor) {
	e.controls = append(e.controls, control{at: at, id: id, restart: true, replacement: replacement})
}

func (e *Engine) start() {
	if e.started {
		return
	}
	e.started = true
	e.coalesce = e.trace == nil && e.injector == nil && len(e.controls) == 0
	// Control events go in first: at equal times a crash/restart precedes
	// the messages and timers scheduled by Init (deterministic either way;
	// this order is the documented one).
	for i := range e.controls {
		ctl := &e.controls[i]
		tgt, ok := e.index.Lookup(ctl.id)
		if !ok {
			continue
		}
		kind := evCrash
		if ctl.restart {
			kind = evRestart
		}
		ev := e.push(ctl.at)
		ev.kind, ev.tgt, ev.src = kind, int32(tgt), uint64(i)
	}
	slices.Sort(e.order)
	for _, id := range e.order {
		i, _ := e.index.Lookup(id)
		if p := e.procs[i]; !p.crashed {
			p.reactor.Init(p)
		}
	}
}

// Step processes the next event. It returns false when the event queue is
// empty. An event dropped on arrival ends the step too, so a caller's horizon
// check runs before the next one.
func (e *Engine) Step() bool {
	e.start()
	if _, ok := e.peek(); !ok {
		return false
	}
	ev := e.popEvent()
	e.now = ev.at
	p := e.procs[ev.tgt]
	// A crashed process is delivered nothing, and a timer with a stale gen
	// was set by a previous incarnation: pending timers die with a crash,
	// even if the process restarts before they would have fired.
	if (ev.kind == evMessage || ev.kind == evTimer) && p.crashed || ev.kind == evTimer && ev.gen != p.gen {
		return true
	}
	if e.trace != nil {
		e.trace.record(&ev, p.id)
	}
	switch ev.kind {
	case evMessage:
		p.reactor.Receive(p, model.ID(ev.src), ev.body)
	case evTimer:
		p.reactor.Timer(p, ev.src)
	case evCrash:
		if !p.crashed {
			p.crashed = true
			p.gen++
		}
	case evRestart:
		if p.crashed {
			p.crashed = false
			if repl := e.controls[ev.src].replacement; repl != nil {
				p.reactor = repl
				p.inert, _ = repl.(rt.ReplayInert)
				p.reactor.Init(p)
			} else if r, ok := p.reactor.(rt.Restartable); ok {
				r.Restart(p)
			} else {
				p.reactor.Init(p)
			}
		}
	}
	return true
}

// RunUntil processes events until cond() holds (checked after every event),
// the horizon passes, or the queue drains. It reports whether cond was met.
func (e *Engine) RunUntil(cond func() bool, horizon Time) bool {
	e.start()
	if cond() {
		return true
	}
	for {
		head, ok := e.peek()
		if !ok {
			return cond()
		}
		if head.at > horizon {
			return false
		}
		e.Step()
		if cond() {
			return true
		}
	}
}

// Run processes events until the horizon passes or the queue drains.
func (e *Engine) Run(horizon Time) {
	e.RunUntil(func() bool { return false }, horizon)
}

// push queues an event at the given time — slab slot taken, FIFO sequence
// number assigned, filed in its tier — and returns the otherwise zero record
// for the caller to fill in place, which it must before it pushes again.
// Recycled slots make the steady state allocation-free. Bucket numbers stay
// below 2^48, so no window test can overflow however close at is to the end
// of time.
func (e *Engine) push(at Time) *event {
	slot := e.free
	if slot != 0 {
		e.free = e.slab[slot].next
	} else {
		if len(e.slab) > math.MaxInt32 {
			panic("sim: more than 2^31 pending events")
		}
		e.slab = append(e.slab, event{})
		slot = int32(len(e.slab) - 1)
	}
	ev := &e.slab[slot]
	ev.at, ev.seq, ev.next = at, e.seq, 0
	e.seq++
	if b := bucketOf(at); b > e.cur {
		e.file(slot, b)
		return ev
	}
	// A late push into the open bucket is placed from the tail: its seq is
	// the largest, so among equal times that is one comparison. A full run
	// first drops its consumed half, or a bucket that never empties would
	// grow it for ever.
	if len(e.run) == cap(e.run) && 2*e.runPos >= len(e.run) {
		e.run = e.run[:copy(e.run, e.run[e.runPos:])]
		e.runPos = 0
	}
	e.run = append(e.run, qkey{at, ev.seq, slot})
	sortedInsert(e.run, e.runPos, len(e.run)-1)
	return ev
}

// bucketOf returns the number of the bucket that holds at.
func bucketOf(at Time) int64 { return int64(at >> bucketShift) }

// coarseOf returns the coarse period of bucket b.
func coarseOf(b int64) int64 { return b >> (coarseShift - bucketShift) }

// file queues the event in slot, whose bucket b lies after the open one, in
// the tier that holds b.
func (e *Engine) file(slot int32, b int64) {
	switch c, open := coarseOf(b), coarseOf(e.cur); {
	case c <= open+1:
		e.link(slot, b)
	case c <= open+1+farBuckets:
		// Appended, so that the cascade, relinking the list head first into
		// the fine wheel, leaves each fine list newest first like a push.
		i := uint(c) % farBuckets
		e.slab[slot].next = 0
		if e.farHeads[i] == 0 {
			e.farHeads[i] = slot
			e.farOcc[i/64] |= 1 << (i % 64)
		} else {
			e.slab[e.farTails[i]].next = slot
		}
		e.farTails[i] = slot
	default:
		ev := &e.slab[slot]
		h := append(e.over, qkey{ev.at, ev.seq, slot})
		i := len(h) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !h[i].before(h[parent]) {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
		e.over = h
	}
}

// link pushes the event onto fine bucket b's list.
func (e *Engine) link(slot int32, b int64) {
	i := uint(b) % wheelBuckets
	e.slab[slot].next = e.heads[i]
	e.heads[i] = slot
	e.occ[i/64] |= 1 << (i % 64)
}

// sortedInsert moves run[i] down to its place among the sorted run[lo:i].
func sortedInsert(run []qkey, lo, i int) {
	k := run[i]
	for ; i > lo && k.before(run[i-1]); i-- {
		run[i] = run[i-1]
	}
	run[i] = k
}

// peek returns the key of the earliest pending event (min on (at, seq)),
// opening the next bucket when the open one is spent; false when none is left.
func (e *Engine) peek() (qkey, bool) {
	if e.runPos < len(e.run) || e.refill() {
		return e.run[e.runPos], true
	}
	return qkey{}, false
}

// refill opens the next non-empty bucket: its list becomes the sorted run.
func (e *Engine) refill() bool {
	b, ok := nextSet(e.occ[:], e.cur+1)
	if !ok {
		// Idle gap: slide the window up to the next occupied far bucket, or
		// to the heap minimum, whose bucket is then the first occupied one.
		if c, ok := nextSet(e.farOcc[:], coarseOf(e.cur)+2); ok {
			e.advance(c<<(coarseShift-bucketShift) - 1)
		} else if len(e.over) > 0 {
			e.advance(bucketOf(e.over[0].at) - 1)
		} else {
			return false
		}
		b, _ = nextSet(e.occ[:], e.cur+1)
	}
	i := uint(b) % wheelBuckets
	for slot := e.heads[i]; slot != 0; slot = e.slab[slot].next {
		ev := &e.slab[slot]
		e.run = append(e.run, qkey{ev.at, ev.seq, slot})
	}
	e.heads[i] = 0
	e.occ[i/64] &^= 1 << (i % 64)
	e.advance(b)
	// The list is newest first (a cascade keeps it so); reversed it is in seq
	// order, which is sorted already where times tie — and throughout when
	// one constant delay filled the bucket.
	slices.Reverse(e.run)
	if len(e.run) <= crowded {
		sortKeys(e.run) // nearly every bucket: a handful of keys, placed directly
	} else if !slices.IsSortedFunc(e.run, cmpKeys) {
		e.sortCrowded(Time(b) << bucketShift)
	}
	return true
}

// sortCrowded sorts the run of a crowded bucket, the one starting at start:
// a stable radix sort on the 15-bit offset at − start, its low byte and then
// its high bits, each pass a counting sort into the other buffer. Being
// stable it keeps each group of equal times in the run's order, which is seq
// order where the bucket's list was filled by pushes alone (newest first,
// the run its reverse); a far list the overflow heap refilled is in (at,
// seq) order instead, so each group of equal times is then put in seq order.
func (e *Engine) sortCrowded(start Time) {
	var lo [1 << 8]int32
	var hi [1 << (bucketShift - 8)]int32
	for _, k := range e.run {
		off := uint32(k.at - start)
		lo[off&0xff]++
		hi[off>>8]++
	}
	prefixSums(lo[:])
	prefixSums(hi[:])
	n := len(e.run)
	tmp := slices.Grow(e.spare[:0], n)[:n]
	for _, k := range e.run {
		b := uint32(k.at-start) & 0xff
		tmp[lo[b]] = k
		lo[b]++
	}
	for _, k := range tmp {
		b := uint32(k.at-start) >> 8
		e.run[hi[b]] = k
		hi[b]++
	}
	e.spare = tmp
	for i := 0; i < n; {
		j := i + 1
		for j < n && e.run[j].at == e.run[i].at {
			j++
		}
		if j-i > 1 {
			sortKeys(e.run[i:j])
		}
		i = j
	}
}

// prefixSums turns counts into each bucket's first index.
func prefixSums(counts []int32) {
	var sum int32
	for i, c := range counts {
		counts[i] = sum
		sum += c
	}
}

// sortKeys sorts keys on (at, seq): by insertion when there are few.
func sortKeys(keys []qkey) {
	if len(keys) <= crowded {
		for i := 1; i < len(keys); i++ {
			sortedInsert(keys, 0, i)
		}
		return
	}
	slices.SortFunc(keys, cmpKeys)
}

// cmpKeys orders keys by (at, seq) for the slices package.
func cmpKeys(a, b qkey) int {
	if a.before(b) {
		return -1
	}
	return 1 // seq is unique: no two keys are equal
}

// nextSet returns the first number n >= from whose slot is marked in occ, the
// bitmap of a wheel of len(occ)*64 slots: a scan a word at a time, once
// around from from's bit. Every marked number lies within one turn of from.
func nextSet(occ []uint64, from int64) (int64, bool) {
	size := uint(len(occ)) * 64
	start := uint(from) % size
	for d := uint(0); d < size; {
		i := (start + d) % size
		if word := occ[i/64] >> (i % 64); word != 0 {
			return from + int64(d+uint(bits.TrailingZeros64(word))), true
		}
		d += 64 - i%64
	}
	return 0, false
}

// advance makes b the open bucket. When that moves C, the far bucket that
// becomes C+1 cascades into the fine wheel, and the heap keys the far wheel
// now covers move out of the heap. No other far bucket can fall into the fine
// wheel: C moves one period, or jumps to just below the first occupied far
// bucket, or past an empty far wheel to the heap minimum.
func (e *Engine) advance(b int64) {
	open := coarseOf(b)
	moved := open != coarseOf(e.cur)
	e.cur = b
	if !moved {
		return
	}
	i := uint(open+1) % farBuckets
	for slot := e.farHeads[i]; slot != 0; {
		next := e.slab[slot].next
		e.link(slot, bucketOf(e.slab[slot].at))
		slot = next
	}
	e.farHeads[i] = 0
	e.farOcc[i/64] &^= 1 << (i % 64)
	for len(e.over) > 0 && coarseOf(bucketOf(e.over[0].at)) <= open+1+farBuckets {
		k := e.popOver()
		e.file(k.slot, bucketOf(k.at))
	}
}

// PendingKind says what a queued event is.
type PendingKind uint8

// The kinds of queued event.
const (
	PendingMessage PendingKind = iota // a message to To carrying Payload
	PendingTimer                      // a timer To set with Tag
	PendingControl                    // a scheduled crash or restart of To
)

// Pending describes one queued event for WalkPending. Payload is the queued
// slice itself: a visitor reads it and neither writes nor keeps it. A timer
// set by an incarnation that has crashed since, or an event for a crashed
// process, is reported as queued: delivery drops it.
type Pending struct {
	At      Time
	Kind    PendingKind
	To      model.ID
	Tag     uint64
	Payload []byte
}

// WalkPending calls visit on every queued event, each exactly once and in no
// particular order, until visit returns false; it reports whether the walk
// went through the whole queue. It reads the four tiers — the open run, the
// fine wheel, the far wheel and the overflow heap — and changes nothing, so a
// run paused between events (RunUntil) goes on exactly as it would have.
func (e *Engine) WalkPending(visit func(Pending) bool) bool {
	for _, k := range e.run[e.runPos:] {
		if !visit(e.pending(k.slot)) {
			return false
		}
	}
	if !e.walkWheel(e.occ[:], e.heads[:], visit) || !e.walkWheel(e.farOcc[:], e.farHeads[:], visit) {
		return false
	}
	for _, k := range e.over {
		if !visit(e.pending(k.slot)) {
			return false
		}
	}
	return true
}

// walkWheel is WalkPending over one wheel: the list of each bucket occ marks.
func (e *Engine) walkWheel(occ []uint64, heads []int32, visit func(Pending) bool) bool {
	for w, word := range occ {
		for ; word != 0; word &= word - 1 {
			for slot := heads[w*64+bits.TrailingZeros64(word)]; slot != 0; slot = e.slab[slot].next {
				if !visit(e.pending(slot)) {
					return false
				}
			}
		}
	}
	return true
}

// pending describes the queued event in slot.
func (e *Engine) pending(slot int32) Pending {
	ev := &e.slab[slot]
	p := Pending{At: ev.at, To: e.procs[ev.tgt].id}
	switch ev.kind {
	case evMessage:
		p.Kind, p.Payload = PendingMessage, ev.body
	case evTimer:
		p.Kind, p.Tag = PendingTimer, ev.src
	default:
		p.Kind = PendingControl
	}
	return p
}

// popOver removes and returns the overflow heap's minimum.
func (e *Engine) popOver() qkey {
	h := e.over
	root := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			m = r
		}
		if !h[m].before(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.over = h
	return root
}

// popEvent removes and returns the event peek reported, and frees its slot.
func (e *Engine) popEvent() event {
	slot := e.run[e.runPos].slot
	if e.runPos++; e.runPos == len(e.run) {
		e.run, e.runPos = e.run[:0], 0
	}
	ev := e.slab[slot]
	e.slab[slot] = event{next: e.free} // drop the payload pointer for the GC
	e.free = slot
	return ev
}

func (p *proc) ID() model.ID     { return p.id }
func (p *proc) Now() Time        { return p.engine.now }
func (p *proc) Rand() *rand.Rand { return p.engine.rng }

func (p *proc) Send(to model.ID, payload []byte) {
	e := p.engine
	if p.crashed {
		return
	}
	tgt, ok := e.index.Lookup(to)
	if !ok {
		return
	}
	q := e.procs[tgt]
	if q.crashed || to == p.id {
		return
	}
	m := e.metrics
	m.Messages++
	m.Bytes += int64(len(payload))
	if len(payload) > 0 {
		m.byKind[payload[0]]++
	}
	// Metrics count the send attempt; fault injection decides what the
	// network delivers. 0 copies = dropped/severed, 2 = duplicated. Each
	// copy gets its own delay draw (duplicates may arrive out of order);
	// all of them carry the one slice.
	copies := 1
	if e.injector != nil {
		copies = e.injector.Copies(p.id, to, e.now, e.rng)
		if copies <= 0 {
			return
		}
	}
	for i := 0; i < copies; i++ {
		d := e.net.Delay(p.id, to, e.now, e.rng)
		if d < 0 {
			d = 0
		}
		if e.coalesce && q.inert != nil && len(payload) > 0 && q.inert.ReplayInert(payload) &&
			e.replayed(p.idx, q.idx, payload, e.now+d) {
			e.seq++ // the seq it would have had: every later one stays as it was
			m.Coalesced++
			continue
		}
		ev := e.push(e.now + d)
		ev.kind, ev.src, ev.tgt, ev.body = evMessage, uint64(p.id), q.idx, payload
	}
}

// replay is one (sender, recipient) pair's entry in Engine.replays: the
// replay-inert slice last queued between them, and the earliest time a
// queued copy of it is due.
type replay struct {
	pair  uint64 // 1<<63 | sender index<<32 | recipient index; 0: free slot
	first *byte  // the slice's memory, held so that it is not reused in the run
	n     int
	due   Time
}

// replayed reports whether a send of payload from procs[src] to procs[tgt],
// which declares it replay-inert, due at at may be left unqueued, and
// otherwise notes it as queued. It may when the pair's entry names the same
// slice — memory and length: rt forbids writing a payload once sent — due
// no later than at. That copy is then delivered before this
// one would be (delivery is by (at, seq), and it has the smaller seq), or
// has been, and a crash cannot drop it (coalescing is off under controls),
// so this one would reach a recipient that merged the slice already.
//
// The entry keeps one slice per pair: a sender alternating two slices
// queues every copy, which costs time, never order.
func (e *Engine) replayed(src, tgt int32, payload []byte, at Time) bool {
	if 2*(e.replayN+1) > len(e.replays) {
		e.growReplays()
	}
	pair := 1<<63 | uint64(src)<<32 | uint64(tgt)
	mask := uint64(len(e.replays) - 1)
	i := pairHash(pair) & mask
	for e.replays[i].pair != pair && e.replays[i].pair != 0 {
		i = (i + 1) & mask
	}
	en := &e.replays[i]
	first := &payload[0]
	if en.pair == pair && en.first == first && en.n == len(payload) {
		if en.due <= at {
			return true
		}
		en.due = at // this copy comes first: later ones are measured by it
		return false
	}
	if en.pair == 0 {
		en.pair = pair
		e.replayN++
	}
	en.first, en.n, en.due = first, len(payload), at
	return false
}

// pairHash spreads a pair over the table's index bits (Fibonacci hashing:
// the product's high bits, folded down).
func pairHash(pair uint64) uint64 {
	h := pair * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// growReplays doubles the replay table (16 slots at first) and re-files its
// entries; a table at its run's size is never grown again, so the steady
// state allocates nothing.
func (e *Engine) growReplays() {
	old := e.replays
	e.replays = make([]replay, max(16, 2*len(old)))
	mask := uint64(len(e.replays) - 1)
	for _, en := range old {
		if en.pair == 0 {
			continue
		}
		i := pairHash(en.pair) & mask
		for e.replays[i].pair != 0 {
			i = (i + 1) & mask
		}
		e.replays[i] = en
	}
}

func (p *proc) SetTimer(d Time, tag uint64) {
	if d < 0 {
		d = 0
	}
	e := p.engine
	ev := e.push(e.now + d)
	ev.kind, ev.src, ev.tgt, ev.gen = evTimer, tag, p.idx, p.gen
}
