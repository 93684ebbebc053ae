package sim

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// refHeap is the queue the engine had before the wheel, kept as the oracle:
// a binary min-heap of whole events on (at, seq), seq assigned at push.
type refHeap struct {
	seq uint64
	h   []event
}

func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

func (r *refHeap) push(ev event) {
	ev.seq = r.seq
	r.seq++
	h := append(r.h, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	r.h = h
}

func (r *refHeap) pop() event {
	h := r.h
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
		if r := l + 1; r < n && h[r].before(&h[l]) {
			m = r
		}
		if !h[m].before(&h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	r.h = h
	return root
}

// queuePair drives the engine's queue and the oracle with one script.
type queuePair struct {
	t   *testing.T
	e   *Engine
	ref refHeap
	now Time // at of the last pop: scripts push at now+d, as reactors do
	// walkEvery > 0 has every walkEvery-th pop first hold WalkPending to
	// the oracle's events; pops counts the pops, and tiers marks each tier
	// a checked walk found occupied (bit 0 the open run, 1 the fine wheel,
	// 2 the far wheel, 3 the heap).
	walkEvery, pops int
	tiers           uint8
}

func newQueuePair(t *testing.T) *queuePair {
	return &queuePair{t: t, e: NewEngine(Synchronous{Delta: 1}, 1)}
}

func (q *queuePair) push(at Time) {
	ev := q.e.push(at)
	ev.kind, ev.src = evTimer, q.ref.seq
	q.ref.push(event{at: at, src: q.ref.seq})
}

func (q *queuePair) pending() int { return len(q.ref.h) }

// pop takes one event from both queues and fails the test unless peek, the
// engine's pop and the oracle's pop name the same (at, seq).
func (q *queuePair) pop() {
	q.t.Helper()
	if q.pops++; q.walkEvery > 0 && q.pops%q.walkEvery == 0 {
		q.checkWalk()
	}
	head, ok := q.e.peek()
	if !ok {
		q.t.Fatalf("queue empty with %d events pending in the oracle", q.pending())
	}
	got, want := q.e.popEvent(), q.ref.pop()
	if head.at != got.at || head.seq != got.seq {
		q.t.Fatalf("peek (%d, %d) is not the next pop (%d, %d)", head.at, head.seq, got.at, got.seq)
	}
	if got.at != want.at || got.seq != want.seq || got.src != want.src {
		q.t.Fatalf("pop (at %d, seq %d) differs from the heap's (at %d, seq %d), %d still pending",
			got.at, got.seq, want.at, want.seq, q.pending())
	}
	q.now = got.at
}

func (q *queuePair) drain() {
	q.t.Helper()
	for q.pending() > 0 {
		q.pop()
	}
	if head, ok := q.e.peek(); ok {
		q.t.Fatalf("queue still holds (at %d, seq %d) after the oracle drained", head.at, head.seq)
	}
}

// advanceTo pops through a lone event at the given time, which leaves that
// time's bucket open.
func (q *queuePair) advanceTo(at Time) {
	q.t.Helper()
	q.drain()
	q.push(at)
	q.pop()
}

const (
	bucketWidth = Time(1) << bucketShift
	wheelSpan   = wheelBuckets * bucketWidth
	coarseWidth = Time(1) << coarseShift
	farSpan     = farBuckets * coarseWidth
)

// farWindow returns the first instant of the far wheel's window (period C+2)
// with the queue's present open bucket.
func (q *queuePair) farWindow() Time { return Time(coarseOf(q.e.cur)+2) * coarseWidth }

// TestEventQueueMatchesHeap is the differential test of the four-tier queue
// against the binary heap it replaced: seeded scripts of pushes and pops, one
// per regime the tiers meet, must pop in the same (at, seq) order from both.
func TestEventQueueMatchesHeap(t *testing.T) {
	t.Run("jittered-delta", func(t *testing.T) {
		q, rng := newQueuePair(t), rand.New(rand.NewSource(1))
		for i := 0; i < 200; i++ {
			q.push(jitter(5*Millisecond, rng))
		}
		for i := 0; i < 60000; i++ {
			q.pop()
			// 0–2 successors keep the population wandering around 200.
			for n := rng.Intn(3); n > 0 && q.pending() < 400; n-- {
				q.push(q.now + jitter(5*Millisecond, rng))
			}
			if q.pending() < 100 {
				q.push(q.now + jitter(5*Millisecond, rng))
			}
			if i%500 == 0 {
				q.push(q.now + 20*Millisecond) // the discovery period
			}
		}
		q.drain()
	})

	t.Run("equal-times-fifo", func(t *testing.T) {
		// The AsyncAdversarial broadcast: thousands of events on one instant,
		// in the open bucket, in the fine wheel and in the far wheel.
		q := newQueuePair(t)
		q.advanceTo(Millisecond)
		for i := 0; i < 4000; i++ {
			q.push(q.now)
			q.push(q.now + 30*Millisecond)
			q.push(q.now + 3*Second)
		}
		q.drain()
	})

	t.Run("late-push-into-open-run", func(t *testing.T) {
		q, rng := newQueuePair(t), rand.New(rand.NewSource(3))
		for round := 0; round < 50; round++ {
			base := q.now + 2*bucketWidth - q.now%bucketWidth
			for i := 0; i < 100; i++ {
				q.push(base + Time(rng.Int63n(int64(bucketWidth))))
			}
			for q.pending() > 0 {
				q.pop()
				if rng.Intn(2) == 0 && q.pending() < 300 {
					q.push(q.now) // d = 0: after every equal time already queued
					if room := base + bucketWidth - q.now; room > 1 {
						q.push(q.now + Time(rng.Int63n(int64(room)))) // among the run's later times
					}
				}
			}
		}
		q.drain()
	})

	t.Run("open-run-never-empties", func(t *testing.T) {
		// Two tokens bouncing inside one bucket: the run is never spent, so
		// only compaction keeps it from growing with the event count.
		q := newQueuePair(t)
		q.push(1)
		q.push(2)
		for i := 0; i < 100000; i++ {
			q.pop()
			q.push(q.now) // same instant: the bucket stays open for ever
		}
		if c := cap(q.e.run); c > 64 {
			t.Fatalf("open run grew to %d keys for 2 pending events", c)
		}
		q.drain()
	})

	t.Run("bucket-and-window-boundaries", func(t *testing.T) {
		// Open the bucket whose successor sits in the bitmap's last bit, so
		// the window wraps the bitmap right away; then put events on every
		// edge: first and last nanosecond of buckets, the last bucket within a
		// fine wheel's span and the first beyond it — fine or far wheel,
		// depending on where in its coarse period the open bucket sits — and
		// one later.
		for _, startBucket := range []int64{0, 3*wheelBuckets - 2, 5*wheelBuckets + 62, 7*wheelBuckets + 63} {
			q := newQueuePair(t)
			if startBucket > 0 {
				q.advanceTo(Time(startBucket) * bucketWidth)
			}
			if q.e.cur != startBucket {
				t.Fatalf("open bucket %d, want %d", q.e.cur, startBucket)
			}
			curEnd := Time(startBucket+1) * bucketWidth
			for _, b := range []Time{0, 1, 2, 63, 64, 65, wheelBuckets - 2, wheelBuckets - 1, wheelBuckets, wheelBuckets + 1, 2 * wheelBuckets} {
				for _, off := range []Time{0, 1, bucketWidth - 1} {
					q.push(curEnd + b*bucketWidth + off)
				}
			}
			q.push(curEnd - 1)         // last instant of the open bucket
			q.push(curEnd + wheelSpan) // exactly one fine wheel's span ahead
			q.push(curEnd + wheelSpan - 1)
			q.drain()
		}
	})

	t.Run("far-future-and-idle-gaps", func(t *testing.T) {
		q, rng := newQueuePair(t), rand.New(rand.NewSource(5))
		q.advanceTo(30 * Millisecond)
		for i := 0; i < 16; i++ {
			// 3×now growth: every delivery schedules beyond the fine wheel, so
			// each pop finds it empty and jumps to the next far bucket or, once
			// 3×now passes the far wheel's window, to the heap minimum.
			for n := 0; n < 16; n++ {
				q.push(3 * q.now)
				q.push(3*q.now + Time(rng.Int63n(int64(wheelSpan))))
			}
			q.push(q.now + wheelSpan/2) // and one event the wheel does hold
			for n := 0; n < 20; n++ {
				q.pop()
			}
		}
		q.drain()
		// A long idle gap with far-wheel and heap events on both sides of the
		// window the jump opens.
		q.push(q.now + 1000*wheelSpan)
		q.push(q.now + 1000*wheelSpan + wheelSpan - 1)
		q.push(q.now + 1001*wheelSpan + bucketWidth)
		q.push(q.now + 5000*wheelSpan)
		q.drain()
	})

	t.Run("peek-opens-a-later-bucket", func(t *testing.T) {
		// RunUntil's horizon check peeks without popping. The bucket that
		// opens — after an idle gap, a far one — must not hide what is
		// pushed below it afterwards.
		q, rng := newQueuePair(t), rand.New(rand.NewSource(9))
		q.advanceTo(Millisecond)
		for round := 0; round < 20; round++ {
			q.push(q.now + 10*Second)
			q.e.peek()
			for i := 0; i < 50; i++ {
				q.push(q.now + Time(rng.Int63n(int64(11*Second))))
			}
			q.push(q.now)
			q.drain()
		}
	})

	t.Run("overflow-migrates-under-wheel-traffic", func(t *testing.T) {
		// Back-off timers parked in the far wheel while Δ-band traffic keeps
		// the fine wheel busy: they must surface when the window reaches them,
		// not when the fine wheel next runs dry.
		q, rng := newQueuePair(t), rand.New(rand.NewSource(6))
		for i := 0; i < 50; i++ {
			q.push(jitter(5*Millisecond, rng))
		}
		for i := 0; i < 30000; i++ {
			q.pop()
			q.push(q.now + jitter(5*Millisecond, rng))
			if i%100 == 0 {
				q.push(q.now + wheelSpan + Time(rng.Int63n(int64(wheelSpan))))
			}
		}
		q.drain()
	})

	t.Run("gst-backlog-under-jitter", func(t *testing.T) { lawGSTBacklog(newQueuePair(t)) })
	t.Run("gst-pile", func(t *testing.T) { lawGSTPile(newQueuePair(t)) })
	t.Run("coarse-period-edges", func(t *testing.T) { lawCoarseEdges(t, newQueuePair) })

	t.Run("idle-gap-into-far-bucket", func(t *testing.T) {
		// Events only beyond the fine wheel: each time it runs dry the queue
		// jumps to the first occupied far bucket and cascades it, while
		// near pushes land around and below what the jump opened.
		q, rng := newQueuePair(t), rand.New(rand.NewSource(11))
		q.advanceTo(3 * Millisecond)
		for round := 0; round < 20; round++ {
			for i := 0; i < 40; i++ {
				q.push(q.farWindow() + Time(rng.Int63n(int64(farSpan))))
			}
			q.push(q.farWindow())
			q.push(q.farWindow() + farSpan - 1)
			for q.pending() > 0 {
				q.pop()
				if rng.Intn(3) == 0 {
					q.push(q.now + Time(rng.Int63n(int64(2*coarseWidth))))
				}
			}
		}
		q.drain()
	})

	t.Run("idle-gap-into-heap", func(t *testing.T) { lawIdleGapIntoHeap(newQueuePair(t)) })

	t.Run("crowded-bucket-recycled-slots", func(t *testing.T) {
		// Popping 200 events in slot order leaves the free list newest first,
		// so the next pushes take descending slots while seq ascends: a sort
		// that broke ties by slot (the packed-key sort before the radix sort
		// did) would put groups of equal times in one crowded bucket in
		// reverse seq order, and the tie fix-up — by insertion for the small
		// group, by a full sort for the large ones — must keep FIFO.
		q := newQueuePair(t)
		for i := 0; i < 200; i++ {
			q.push(Millisecond + Time(i))
		}
		q.drain()
		at := q.now + 10*Millisecond
		for i := 0; i < 100; i++ {
			q.push(at)
		}
		for i := 0; i < 10; i++ {
			q.push(at + 1)
		}
		for i := 0; i < 40; i++ {
			q.push(at + 2 + Time(i%2)*64)
		}
		q.drain()
	})

	t.Run("dense-bucket", func(t *testing.T) {
		// 20 k events in one bucket over 512 distinct instants: one big sort
		// with long FIFO runs inside it.
		q, rng := newQueuePair(t), rand.New(rand.NewSource(7))
		base := 10 * bucketWidth
		for i := 0; i < 20000; i++ {
			q.push(base + Time(rng.Int63n(512))*64)
		}
		q.drain()
	})

	t.Run("end-of-time", func(t *testing.T) {
		// Times within a window of math.MaxInt64: no window test may add a
		// span to a time.
		q, rng := newQueuePair(t), rand.New(rand.NewSource(8))
		const end = Time(math.MaxInt64)
		q.advanceTo(end - 3*wheelSpan)
		for i := 0; i < 2000; i++ {
			q.push(q.now + Time(rng.Int63n(int64(end-q.now)+1)))
		}
		q.push(end)
		q.push(end - 1)
		q.push(end)
		for q.pending() > 0 {
			q.pop()
			if q.now < end && rng.Intn(4) == 0 {
				q.push(q.now + Time(rng.Int63n(int64(end-q.now)+1)))
			}
		}
		q.drain()
	})

	t.Run("random-scripts", func(t *testing.T) {
		delays := []func(*rand.Rand, Time) Time{
			func(*rand.Rand, Time) Time { return 0 },
			func(r *rand.Rand, _ Time) Time { return Time(r.Int63n(int64(bucketWidth))) },
			func(r *rand.Rand, _ Time) Time { return jitter(5*Millisecond, r) },
			func(r *rand.Rand, _ Time) Time { return Time(r.Int63n(8)) * bucketWidth },
			func(r *rand.Rand, _ Time) Time { return wheelSpan + Time(r.Int63n(5)-2)*bucketWidth },
			func(r *rand.Rand, _ Time) Time { return wheelSpan + Time(r.Int63n(3)-1) },
			func(r *rand.Rand, _ Time) Time { return Time(r.Int63n(int64(3 * wheelSpan))) },
			func(_ *rand.Rand, now Time) Time { return 2 * now },
			func(*rand.Rand, Time) Time { return 20 * Millisecond },
		}
		for seed := int64(1); seed <= 12; seed++ {
			q, rng := newQueuePair(t), rand.New(rand.NewSource(seed))
			for op := 0; op < 20000; op++ {
				if q.pending() > 0 && rng.Intn(100) < 48 {
					q.pop()
					continue
				}
				q.push(q.now + delays[rng.Intn(len(delays))](rng, q.now))
				if q.now > math.MaxInt64/8 {
					break // the 2×now delays have run the clock out
				}
			}
			q.drain()
		}
	})
}

// TestCascadeKeepsListsNewestFirst pins the list order refill relies on: a
// far bucket cascades into the fine wheel newest first, the order pushes leave
// a list in, so a bucket of equal times reverses into seq order and is not
// sorted again.
func TestCascadeKeepsListsNewestFirst(t *testing.T) {
	q := newQueuePair(t)
	at := 2*coarseWidth + 5*bucketWidth // period C+2: the far wheel
	for i := 0; i < 30; i++ {
		q.push(at)
	}
	q.push(coarseWidth) // period C+1: popping it moves C, which cascades C+2
	q.pop()
	var seqs []uint64
	for slot := q.e.heads[uint(bucketOf(at))%wheelBuckets]; slot != 0; slot = q.e.slab[slot].next {
		seqs = append(seqs, q.e.slab[slot].seq)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] > seqs[i-1] {
			t.Fatalf("cascaded list holds seqs %v, want them newest first", seqs)
		}
	}
	if len(seqs) != 30 {
		t.Fatalf("cascaded list holds %d events, want 30", len(seqs))
	}
	q.drain()
}

// zeroTimer arms a timer for the instant it is initialised at.
type zeroTimer struct{ ticks int }

func (z *zeroTimer) Init(ctx rt.Context)                  { ctx.SetTimer(0, 1) }
func (z *zeroTimer) Receive(rt.Context, model.ID, []byte) {}
func (z *zeroTimer) Timer(rt.Context, uint64)             { z.ticks++ }

// TestControlPrecedesInitAtTimeZero pins the documented order at t = 0: a
// scheduled crash at time zero is queued before Init runs, so it is delivered
// before the timer Init sets for the same instant, which then dies with the
// process.
func TestControlPrecedesInitAtTimeZero(t *testing.T) {
	e := NewEngine(Synchronous{Delta: Millisecond}, 1)
	crashed, alive := &zeroTimer{}, &zeroTimer{}
	if err := e.AddProcess(1, crashed); err != nil {
		t.Fatal(err)
	}
	if err := e.AddProcess(2, alive); err != nil {
		t.Fatal(err)
	}
	e.ScheduleCrash(1, 0)
	e.Run(Second)
	if crashed.ticks != 0 || alive.ticks != 1 {
		t.Fatalf("ticks: crashed-at-0 process %d (want 0), live process %d (want 1)", crashed.ticks, alive.ticks)
	}
}

// TestEventRecordFitsCacheLine pins the slab record at one cache line: a wider
// one makes every push and pop touch two.
func TestEventRecordFitsCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 64 {
		t.Fatalf("event record is %d bytes, want at most 64", size)
	}
}

// lawGSTBacklog is the standard sweep's partial regime: jittered-Δ traffic,
// while every eighth delivery before a GST 2 s out also parks a message until
// GST + Δ, in the far wheel. At GST the backlog lands in a 2.5 ms band of
// crowded buckets, and keeps its traffic going.
func lawGSTBacklog(q *queuePair) {
	const gst = 2 * Second
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 200; i++ {
		q.push(jitter(5*Millisecond, rng))
	}
	for q.now < gst+20*Millisecond {
		q.pop()
		q.push(q.now + jitter(5*Millisecond, rng))
		if q.now < gst && rng.Intn(8) == 0 {
			q.push(gst + jitter(5*Millisecond, rng))
		}
	}
	q.drain()
}

// lawGSTPile is the standard sweep's GST pile at full size: 3,000 events
// land in one 2.5 ms band, on 256 ns steps, so ties are many. A third are
// pushed while the band lies beyond the far wheel, in the overflow heap,
// and refill the far list in (at, seq) order when the window reaches it; the
// rest are appended to it afterwards, in seq order, two thirds of them
// while jittered traffic runs. Every bucket of the band is crowded, and most
// open unsorted.
func lawGSTPile(q *queuePair) {
	rng := rand.New(rand.NewSource(13))
	q.advanceTo(Millisecond)
	band := q.farWindow() + farSpan + 3*coarseWidth + 5*bucketWidth
	pile := func(n int) {
		for i := 0; i < n; i++ {
			q.push(band + Time(rng.Int63n(int64(5*Millisecond/2)/256))*256)
		}
	}
	pile(1000)
	if len(q.e.over) != 1000 {
		q.t.Fatalf("%d of the first pile's 1,000 events in the heap", len(q.e.over))
	}
	q.push(band - farSpan) // popping it moves the window onto the band
	q.pop()
	seqOrder := true
	for slot, last := q.e.farHeads[uint(coarseOf(bucketOf(band)))%farBuckets], uint64(0); slot != 0; slot = q.e.slab[slot].next {
		seqOrder = seqOrder && q.e.slab[slot].seq > last
		last = q.e.slab[slot].seq
	}
	if len(q.e.over) != 0 || seqOrder {
		q.t.Fatalf("%d heap keys left, far list in seq order %v: the heap did not refill it", len(q.e.over), seqOrder)
	}
	pile(1000)
	for i := 0; i < 2000; i++ {
		q.pop()
		q.push(q.now + jitter(5*Millisecond, rng))
		if i%2 == 0 {
			pile(1)
		}
	}
	q.drain()
}

// lawCoarseEdges puts events on the first and last nanosecond of C+1 (the
// fine wheel's last period), C+2 (the far wheel's first), C+1+farBuckets
// (its last) and the period after it (the heap's first), from open buckets
// on both sides of a coarse boundary — reached directly, or by a jump into a
// far bucket. newPair makes each pair.
func lawCoarseEdges(t *testing.T, newPair func(*testing.T) *queuePair) {
	const perCoarse = int64(1) << (coarseShift - bucketShift)
	for _, startBucket := range []int64{0, perCoarse - 1, perCoarse, 5*perCoarse - 1, 5 * perCoarse, 5*perCoarse + 1} {
		q := newPair(t)
		if startBucket > 0 {
			q.advanceTo(Time(startBucket) * bucketWidth)
		}
		if q.e.cur != startBucket {
			t.Fatalf("open bucket %d, want %d", q.e.cur, startBucket)
		}
		c := Time(coarseOf(startBucket))
		for _, p := range []Time{c + 1, c + 2, c + 1 + farBuckets, c + 2 + farBuckets} {
			q.push(p * coarseWidth)
			q.push((p+1)*coarseWidth - 1)
		}
		fine, far := 0, 0
		for _, w := range q.e.occ {
			fine += bits.OnesCount64(w)
		}
		for _, w := range q.e.farOcc {
			far += bits.OnesCount64(w)
		}
		if fine != 2 || far != 2 || len(q.e.over) != 2 {
			t.Fatalf("open bucket %d: %d fine buckets, %d far buckets, %d heap keys; want 2, 2, 2", startBucket, fine, far, len(q.e.over))
		}
		q.drain()
	}
}

// lawIdleGapIntoHeap queues events only beyond the far wheel: the jump goes
// to the heap minimum, and the keys behind it spread over all three tiers the
// new window has.
func lawIdleGapIntoHeap(q *queuePair) {
	rng := rand.New(rand.NewSource(12))
	q.advanceTo(3 * Millisecond)
	for round := 0; round < 20; round++ {
		base := q.farWindow() + farSpan + Time(rng.Int63n(int64(farSpan)))
		for _, d := range []Time{0, 0, 1, bucketWidth, coarseWidth - 1, coarseWidth, 2 * coarseWidth, farSpan - 1, farSpan, farSpan + coarseWidth, 3 * farSpan} {
			q.push(base + d)
		}
		for i := 0; i < 30; i++ {
			q.push(base + Time(rng.Int63n(int64(2*farSpan))))
		}
		for q.pending() > 0 {
			q.pop()
			if rng.Intn(4) == 0 {
				q.push(q.now + jitter(5*Millisecond, rng))
			}
		}
	}
	q.drain()
}

// walkTarget is the process a walked pair's events are addressed to.
const walkTarget model.ID = 7

// newWalkedPair returns a pair whose every walkEvery-th pop first checks the
// walk; its engine holds one process, so a walked event has a target to name.
func newWalkedPair(t *testing.T, walkEvery int) *queuePair {
	q := newQueuePair(t)
	if err := q.e.AddProcess(walkTarget, &zeroTimer{}); err != nil {
		t.Fatal(err)
	}
	q.walkEvery = walkEvery
	return q
}

// checkWalk fails the test unless WalkPending visits each event the oracle
// holds exactly once, as the timer it was pushed as, and nothing else.
func (q *queuePair) checkWalk() {
	q.t.Helper()
	at := make(map[uint64]Time, q.pending())
	for _, ev := range q.ref.h {
		at[ev.src] = ev.at
	}
	for i, held := range []bool{q.e.runPos < len(q.e.run), slices.ContainsFunc(q.e.occ[:], nonZero),
		slices.ContainsFunc(q.e.farOcc[:], nonZero), len(q.e.over) > 0} {
		if held {
			q.tiers |= 1 << i
		}
	}
	visits := 0
	done := q.e.WalkPending(func(p Pending) bool {
		want, ok := at[p.Tag]
		if !ok || p.At != want || p.Kind != PendingTimer || p.To != walkTarget {
			q.t.Fatalf("walk visits %+v: not a pending event, or visited twice", p)
		}
		delete(at, p.Tag)
		visits++
		return true
	})
	if !done || len(at) > 0 {
		q.t.Fatalf("walk visited %d events (complete %v); %d pending events unvisited", visits, done, len(at))
	}
}

func nonZero(w uint64) bool { return w != 0 }

// TestWalkPendingVisitsEachEventOnce holds the pending-event walk to the
// heap oracle before every pop of three laws that fill all four tiers — the
// open run, the fine wheel, the far wheel (the GST backlog) and the overflow
// heap — and pins that a visitor returning false ends the walk.
func TestWalkPendingVisitsEachEventOnce(t *testing.T) {
	t.Run("gst-backlog-under-jitter", func(t *testing.T) {
		q := newWalkedPair(t, 499)
		lawGSTBacklog(q)
		if q.tiers != 0b0111 {
			t.Fatalf("checked walks found tiers %04b occupied, want the run and both wheels", q.tiers)
		}
	})
	t.Run("coarse-period-edges", func(t *testing.T) {
		const perCoarse = int64(1) << (coarseShift - bucketShift)
		q := newWalkedPair(t, 1)
		c := Time(coarseOf(perCoarse))
		for _, p := range []Time{0, c + 1, c + 2, c + 1 + farBuckets, c + 2 + farBuckets} {
			q.push(p * coarseWidth)
			q.push((p+1)*coarseWidth - 1)
		}
		q.drain()
		lawCoarseEdges(t, func(t *testing.T) *queuePair { return newWalkedPair(t, 1) })
	})
	t.Run("idle-gap-into-heap", func(t *testing.T) {
		q := newWalkedPair(t, 1)
		lawIdleGapIntoHeap(q)
		if q.tiers != 0b1111 {
			t.Fatalf("checked walks found tiers %04b occupied, want all four", q.tiers)
		}
	})
	t.Run("stops-early", func(t *testing.T) {
		q := newWalkedPair(t, 0)
		for _, at := range []Time{Millisecond, 2 * Second, 1000 * Second} {
			q.push(at)
		}
		visits := 0
		if q.e.WalkPending(func(Pending) bool { visits++; return false }) || visits != 1 {
			t.Fatalf("visitor returning false: walk complete or %d visits, want 1", visits)
		}
	})
}

// tagTimer sets one timer per tag at the virtual time the tag names and
// records the tags that fire.
type tagTimer struct{ fired []uint64 }

func (r *tagTimer) Init(ctx rt.Context) {
	for _, at := range []Time{Second, Second + 1} {
		ctx.SetTimer(at, uint64(at))
	}
}
func (r *tagTimer) Receive(rt.Context, model.ID, []byte) {}
func (r *tagTimer) Timer(_ rt.Context, tag uint64)       { r.fired = append(r.fired, tag) }

// TestRunUntilHorizonIsInclusive pins the end rule a paused run relies on:
// RunUntil delivers an event due exactly at its horizon, and none due one
// nanosecond later.
func TestRunUntilHorizonIsInclusive(t *testing.T) {
	e := NewEngine(Synchronous{Delta: Millisecond}, 1)
	r := &tagTimer{}
	if err := e.AddProcess(1, r); err != nil {
		t.Fatal(err)
	}
	never := func() bool { return false }
	e.RunUntil(never, Second)
	if len(r.fired) != 1 || r.fired[0] != uint64(Second) {
		t.Fatalf("RunUntil(horizon 1s) fired %v, want [%d]", r.fired, Second)
	}
	e.RunUntil(never, Second+1)
	if len(r.fired) != 2 {
		t.Fatalf("RunUntil(horizon 1s+1ns) fired %v, want both timers", r.fired)
	}
}
