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
// one-cache-line records in a recycled slab, queued in a calendar wheel of
// 32.8 µs buckets with a binary heap behind it for what lies beyond the
// wheel's 67 ms window (see the queue constants); message bodies are
// reference-counted buffers drawn from a per-engine free list, and
// consecutive sends of byte-identical payloads — the broadcast pattern every
// protocol layer uses — share one interned buffer instead of copying per
// recipient. Delivery order is (at, seq) — virtual time, then FIFO — and
// nothing else about the queue is observable. The RNG behind Context.Rand and
// NetworkModel.Delay is a splitmix64 source wrapped in math/rand, a few
// nanoseconds per draw with no per-engine table allocation.
//
// The zero-copy delivery contract: the payload slice passed to
// Reactor.Receive is only valid for the duration of the callback. A reactor
// that buffers a payload for later must copy it first (forwarding it to
// Context.Send within the callback is fine — the engine re-interns it).
package sim

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// The runtime abstraction (Time, Reactor, Context, Restartable) lives in
// internal/rt; the engine is one implementation of it. The aliases below keep
// the historical sim.* names working — they are the same types, so the engine
// and every reactor written against rt interoperate with zero conversion.

// Time is virtual nanoseconds since the start of the run.
type Time = rt.Time

// Convenient virtual durations.
const (
	Microsecond = rt.Microsecond
	Millisecond = rt.Millisecond
	Second      = rt.Second
)

// Reactor is a deterministic, single-threaded protocol state machine. The
// engine never calls a reactor concurrently.
type Reactor = rt.Reactor

// Context is the runtime-side interface a reactor uses to act on the world.
// The engine's implementation copies (or interns, for repeated broadcasts of
// identical bytes) every Send payload, and silently drops sends to unknown or
// crashed processes.
type Context = rt.Context

// NetworkModel assigns a delivery delay to each message.
type NetworkModel interface {
	// Delay is called once per message at send time.
	Delay(from, to model.ID, now Time, rng *rand.Rand) Time
}

// Metrics accumulates network counters for the experiment tables.
type Metrics struct {
	// Messages counts every accepted Send.
	Messages int64
	// Bytes totals the payload bytes of every accepted Send.
	Bytes int64
	// byKind counts messages per leading payload byte (the wire kind).
	// An array, not a map: the per-message increment is on the hot path.
	byKind [256]int64
}

// KindCount returns how many messages carried the given leading kind byte.
func (m *Metrics) KindCount(k byte) int64 { return m.byKind[k] }

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

// msgBody is a reference-counted payload buffer. Bodies are recycled through
// the engine's free list once every referencing event has been delivered, so
// the steady-state message path allocates nothing; refcounts let repeated
// sends of identical bytes (broadcasts) share one buffer.
type msgBody struct {
	data []byte
	refs int32
}

// event is one scheduled delivery: a record in the engine's slab, exactly one
// cache line (TestEventRecordFitsCacheLine). It carries the resolved *proc, so
// delivery needs no map lookup and the recipient's ID is tgt.id. next links
// the records of one wheel bucket, and the free slots.
type event struct {
	at   Time
	seq  uint64   // tie-breaker: FIFO among same-time events
	from model.ID // evMessage
	tgt  *proc
	body *msgBody // evMessage
	tag  uint64   // evTimer; evCrash/evRestart: index into Engine.controls
	gen  uint32   // evTimer: the target's incarnation at scheduling time
	next int32
	kind eventKind
}

// The event queue is a calendar wheel in front of a heap: virtual time is cut
// into buckets of 1<<bucketShift ns, the wheel holds the wheelBuckets buckets
// after the open one, the heap whatever lies beyond. The constants decide only
// which tier an event waits in, never the order, so they are not tunables:
// 32.8 µs × 2,048 = 67 ms keeps the sweeps' Δ-bounded deliveries (Δ = 5 ms)
// and discovery period (20 ms) in the wheel at a few events a bucket
// (ARCHITECTURE.md, "The determinism contract").
const (
	bucketShift  = 15
	wheelBuckets = 2048
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
	now   Time
	seq   uint64
	procs map[model.ID]*proc
	order []model.ID
	net   NetworkModel
	// injector is net's FaultInjector view, cached so the zero-fault send
	// path pays one nil check instead of a per-message type assertion.
	injector FaultInjector
	rng      *rand.Rand
	metrics  *Metrics
	trace    *Trace
	started  bool

	// The pending events. Records live in slab (slot 0 is the nil slot, free
	// heads the recycled ones) and wait in the tier their bucket b = at >>
	// bucketShift selects: b <= cur in run, the open bucket's keys, sorted
	// when it was opened and consumed from runPos; b <= cur+wheelBuckets in
	// the wheel, where heads[b%wheelBuckets] starts a list through event.next
	// and occ has a bit per non-empty bucket; later ones in over, a binary
	// min-heap of keys. Every advance of cur moves what the window now covers
	// out of over, so the ranges stay disjoint and pops follow (at, seq).
	slab   []event
	free   int32
	run    []qkey
	runPos int
	cur    int64
	heads  [wheelBuckets]int32
	occ    [wheelBuckets / 64]uint64
	over   []qkey

	// bodyFree recycles payload buffers; lastBody interns the most recent one
	// so broadcast loops sending identical bytes share a single buffer.
	bodyFree []*msgBody
	lastBody *msgBody

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
	replacement Reactor // restart only: non-nil swaps the reactor (wiped state)
}

type proc struct {
	id      model.ID
	reactor Reactor
	ctx     *procCtx
	crashed bool
	// gen is the incarnation number, bumped at every crash. Timer events
	// carry the gen they were scheduled under and are dropped on mismatch:
	// a process's pending timers die with it, while in-flight messages —
	// which live in the network, not the process — survive a restart.
	gen uint32
}

// Restartable is an optional Reactor extension for processes that can resume
// from persisted state after a crash. A scheduled restart without a
// replacement reactor calls Restart (falling back to Init when the reactor
// does not implement it); the reactor re-arms whatever timers it needs —
// pending timers from before the crash are gone.
type Restartable = rt.Restartable

// NewEngine creates an engine with the given network model and seed.
func NewEngine(net NetworkModel, seed int64) *Engine {
	inj, _ := net.(FaultInjector)
	return &Engine{
		procs:    make(map[model.ID]*proc),
		slab:     make([]event, 1), // slot 0 is the nil slot
		net:      net,
		injector: inj,
		rng:      newRand(seed),
		metrics:  &Metrics{},
	}
}

// Reset returns the engine to its just-constructed state under a new network
// model and seed, retaining the capacity of the event slab and the queue's
// tiers, the payload buffer pool and the process map — the allocations a
// fresh NewEngine would repeat. Messages still pending give their bodies back
// to the pool. A sweep worker running thousands of cells resets one engine
// instead of constructing one per cell; a reset engine is indistinguishable
// from a new one (pinned by the scenario-level cached-vs-uncached fingerprint
// tests).
func (e *Engine) Reset(net NetworkModel, seed int64) {
	for i := range e.slab {
		// Only pending events hold pointers: a free slot keeps none, and
		// push rewrites whatever else is left beyond the cut.
		if ev := &e.slab[i]; ev.tgt != nil {
			e.releaseBody(ev.body)
			*ev = event{}
		}
	}
	e.slab, e.free = e.slab[:1], 0
	e.run, e.runPos, e.cur = e.run[:0], 0, 0
	clear(e.heads[:])
	clear(e.occ[:])
	e.over = e.over[:0]
	clear(e.procs)
	e.order = e.order[:0]
	e.now = 0
	e.seq = 0
	e.net = net
	e.injector, _ = net.(FaultInjector)
	e.rng = newRand(seed)
	*e.metrics = Metrics{}
	e.trace = nil
	e.started = false
	e.lastBody = nil
	e.preCrashed = nil
	e.controls = e.controls[:0]
}

// Metrics returns the accumulated network counters.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// AddProcess registers a reactor under an ID. Must be called before Run.
func (e *Engine) AddProcess(id model.ID, r Reactor) error {
	if e.started {
		return fmt.Errorf("sim: AddProcess(%v) after start", id)
	}
	if _, dup := e.procs[id]; dup {
		return fmt.Errorf("sim: duplicate process %v", id)
	}
	p := &proc{id: id, reactor: r}
	p.ctx = &procCtx{engine: e, proc: p}
	if e.preCrashed.Has(id) {
		p.crashed = true
	}
	e.procs[id] = p
	e.order = append(e.order, id)
	return nil
}

// Crash stops delivering events to and from the given process. It may be
// called before the process is added; the mark is applied at registration.
func (e *Engine) Crash(id model.ID) {
	if p, ok := e.procs[id]; ok {
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
func (e *Engine) ScheduleRestart(id model.ID, at Time, replacement Reactor) {
	e.controls = append(e.controls, control{at: at, id: id, restart: true, replacement: replacement})
}

func (e *Engine) start() {
	if e.started {
		return
	}
	e.started = true
	// Control events go in first: at equal times a crash/restart precedes
	// the messages and timers scheduled by Init (deterministic either way;
	// this order is the documented one).
	for i := range e.controls {
		ctl := &e.controls[i]
		p, ok := e.procs[ctl.id]
		if !ok {
			continue
		}
		kind := evCrash
		if ctl.restart {
			kind = evRestart
		}
		ev := e.push(ctl.at)
		ev.kind, ev.tgt, ev.tag = kind, p, uint64(i)
	}
	sort.Slice(e.order, func(i, j int) bool { return e.order[i] < e.order[j] })
	for _, id := range e.order {
		p := e.procs[id]
		if !p.crashed {
			p.reactor.Init(p.ctx)
		}
	}
}

// Step processes the next event. It returns false when the event queue is
// empty.
func (e *Engine) Step() bool {
	e.start()
	for {
		if _, ok := e.peek(); !ok {
			return false
		}
		ev := e.popEvent()
		e.now = ev.at
		switch ev.kind {
		case evMessage:
			if ev.tgt.crashed {
				e.releaseBody(ev.body)
				continue
			}
			if e.trace != nil {
				e.trace.record(&ev)
			}
			ev.tgt.reactor.Receive(ev.tgt.ctx, ev.from, ev.body.data)
			e.releaseBody(ev.body)
		case evTimer:
			// A stale gen means the timer was set by a previous incarnation:
			// pending timers die with a crash, even if the process restarts
			// before they would have fired.
			if ev.tgt.crashed || ev.gen != ev.tgt.gen {
				continue
			}
			if e.trace != nil {
				e.trace.record(&ev)
			}
			ev.tgt.reactor.Timer(ev.tgt.ctx, ev.tag)
		case evCrash:
			if e.trace != nil {
				e.trace.record(&ev)
			}
			if !ev.tgt.crashed {
				ev.tgt.crashed = true
				ev.tgt.gen++
			}
		case evRestart:
			if e.trace != nil {
				e.trace.record(&ev)
			}
			if p := ev.tgt; p.crashed {
				p.crashed = false
				if repl := e.controls[ev.tag].replacement; repl != nil {
					p.reactor = repl
					p.reactor.Init(p.ctx)
				} else if r, ok := p.reactor.(Restartable); ok {
					r.Restart(p.ctx)
				} else {
					p.reactor.Init(p.ctx)
				}
			}
		}
		return true
	}
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
	switch b := bucketOf(at); {
	case b <= e.cur:
		// A late push into the open bucket is placed from the tail: its seq
		// is the largest, so among equal times that is one comparison. A full
		// run first drops its consumed half, or a bucket that never empties
		// would grow it for ever.
		if len(e.run) == cap(e.run) && 2*e.runPos >= len(e.run) {
			e.run = e.run[:copy(e.run, e.run[e.runPos:])]
			e.runPos = 0
		}
		e.run = append(e.run, qkey{at, ev.seq, slot})
		sortedInsert(e.run, e.runPos, len(e.run)-1)
	case e.inWindow(b):
		e.link(slot, b)
	default:
		h := append(e.over, qkey{at, ev.seq, slot})
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
	return ev
}

// bucketOf returns the number of the bucket that holds at.
func bucketOf(at Time) int64 { return int64(at >> bucketShift) }

// inWindow reports whether bucket b > cur is one the wheel holds. The last of
// them shares its slot with the open bucket, whose list is already in run.
func (e *Engine) inWindow(b int64) bool { return b <= e.cur+wheelBuckets }

// link pushes the event onto wheel bucket b's list.
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
	b, ok := e.nextOccupied()
	if !ok {
		if len(e.over) == 0 {
			return false
		}
		// Idle gap: slide the window up to the overflow minimum, whose bucket
		// is then the first occupied one.
		e.advance(bucketOf(e.over[0].at) - 1)
		b, _ = e.nextOccupied()
	}
	i := uint(b) % wheelBuckets
	for slot := e.heads[i]; slot != 0; slot = e.slab[slot].next {
		ev := &e.slab[slot]
		e.run = append(e.run, qkey{ev.at, ev.seq, slot})
	}
	e.heads[i] = 0
	e.occ[i/64] &^= 1 << (i % 64)
	e.advance(b)
	// The list is newest first; reversed it is in seq order, which is sorted
	// already where times tie.
	slices.Reverse(e.run)
	if len(e.run) <= 24 {
		// Nearly every bucket: a handful of keys, placed directly.
		for i := 1; i < len(e.run); i++ {
			sortedInsert(e.run, 0, i)
		}
	} else {
		slices.SortFunc(e.run, func(a, b qkey) int {
			if a.before(b) {
				return -1
			}
			return 1 // seq is unique: no two keys are equal
		})
	}
	return true
}

// nextOccupied returns the first non-empty wheel bucket after cur: a scan of
// the bitmap, a word at a time, once around from cur+1's bit.
func (e *Engine) nextOccupied() (int64, bool) {
	start := uint(e.cur+1) % wheelBuckets
	for d := uint(0); d < wheelBuckets; {
		i := (start + d) % wheelBuckets
		if word := e.occ[i/64] >> (i % 64); word != 0 {
			return e.cur + 1 + int64(d+uint(bits.TrailingZeros64(word))), true
		}
		d += 64 - i%64
	}
	return 0, false
}

// advance makes b the open bucket and moves the overflow events the window
// now covers into the wheel.
func (e *Engine) advance(b int64) {
	e.cur = b
	for len(e.over) > 0 && e.inWindow(bucketOf(e.over[0].at)) {
		k := e.popOver()
		e.link(k.slot, bucketOf(k.at))
	}
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
	e.slab[slot] = event{next: e.free} // drop the body/proc pointers for the GC
	e.free = slot
	return ev
}

// acquireBody returns a buffer holding a copy of payload. Consecutive
// acquisitions of byte-identical payloads (broadcast fan-out) share one
// interned buffer via its refcount instead of copying per recipient.
func (e *Engine) acquireBody(payload []byte) *msgBody {
	if lb := e.lastBody; lb != nil && bytes.Equal(lb.data, payload) {
		lb.refs++
		return lb
	}
	var b *msgBody
	if n := len(e.bodyFree); n > 0 {
		b = e.bodyFree[n-1]
		e.bodyFree[n-1] = nil
		e.bodyFree = e.bodyFree[:n-1]
	} else {
		b = &msgBody{}
	}
	b.data = append(b.data[:0], payload...)
	b.refs = 1
	e.lastBody = b
	return b
}

// releaseBody returns a buffer to the free list once its last referencing
// event has been delivered (or dropped).
func (e *Engine) releaseBody(b *msgBody) {
	if b == nil {
		return
	}
	if b.refs--; b.refs > 0 {
		return
	}
	if e.lastBody == b {
		// The buffer is about to be rewritten by its next user; it must no
		// longer satisfy intern hits.
		e.lastBody = nil
	}
	e.bodyFree = append(e.bodyFree, b)
}

// procCtx implements Context for one process.
type procCtx struct {
	engine *Engine
	proc   *proc
}

func (c *procCtx) ID() model.ID     { return c.proc.id }
func (c *procCtx) Now() Time        { return c.engine.now }
func (c *procCtx) Rand() *rand.Rand { return c.engine.rng }

func (c *procCtx) Send(to model.ID, payload []byte) {
	e := c.engine
	if c.proc.crashed {
		return
	}
	tgt, ok := e.procs[to]
	if !ok || tgt.crashed || to == c.proc.id {
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
	// the interned body is shared between copies.
	copies := 1
	if e.injector != nil {
		copies = e.injector.Copies(c.proc.id, to, e.now, e.rng)
		if copies <= 0 {
			return
		}
	}
	for i := 0; i < copies; i++ {
		d := e.net.Delay(c.proc.id, to, e.now, e.rng)
		if d < 0 {
			d = 0
		}
		ev := e.push(e.now + d)
		ev.kind, ev.from, ev.tgt, ev.body = evMessage, c.proc.id, tgt, e.acquireBody(payload)
	}
}

func (c *procCtx) SetTimer(d Time, tag uint64) {
	if d < 0 {
		d = 0
	}
	e := c.engine
	ev := e.push(e.now + d)
	ev.kind, ev.tgt, ev.tag, ev.gen = evTimer, c.proc, tag, c.proc.gen
}
