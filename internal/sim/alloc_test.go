package sim

import (
	"testing"

	"github.com/bftcup/bftcup/internal/model"
)

// TestEventPathAllocsSteadyState is the allocation-regression gate on the
// pooled event path (CI runs it in the benchmark smoke job): once the event
// slab, the queue's tiers and the body pool are warm, a send→deliver cycle
// must allocate nothing — events are recycled slab records linked into wheel
// buckets, bodies come from the free list, metrics are array-backed. Any regression (a stray boxing, a map on the hot path, a
// per-message copy) shows up as a nonzero allocation count here.
func TestEventPathAllocsSteadyState(t *testing.T) {
	e := NewEngine(Synchronous{Delta: 5 * Millisecond}, 7)
	peers := []model.ID{1, 2, 3, 4}
	for i, id := range peers {
		r := &workloadReactor{
			peers:   []model.ID{peers[(i+1)%len(peers)]},
			fanout:  1,
			tokens:  2,
			payload: []byte("steady-state-payload-0123456789abcdef"),
		}
		if err := e.AddProcess(id, r); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: grow the slab, the body pool and every reactor's state to
	// steady state.
	for i := 0; i < 5000; i++ {
		if !e.Step() {
			t.Fatal("queue drained during warmup")
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 50; i++ {
			if !e.Step() {
				t.Fatal("queue drained during measurement")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state event path allocates: %.2f allocs per 50 events (want 0)", avg)
	}
}

// TestPayloadInterning asserts broadcast fan-out shares one interned buffer:
// sending the same bytes to k peers must acquire a single body with k
// references, and differing bytes must not be shared.
func TestPayloadInterning(t *testing.T) {
	e := NewEngine(Synchronous{Delta: Millisecond}, 1)
	for id := model.ID(1); id <= 4; id++ {
		if err := e.AddProcess(id, &retainingReactor{keep: new([]byte)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := e.procs[1].ctx
	e.start()

	payload := []byte("broadcast-me")
	ctx.Send(2, payload)
	ctx.Send(3, payload)
	ctx.Send(4, payload)
	if e.lastBody == nil || e.lastBody.refs != 3 {
		t.Fatalf("broadcast of identical payloads not interned: lastBody=%+v", e.lastBody)
	}
	shared := e.lastBody
	ctx.Send(2, []byte("different"))
	if e.lastBody == shared {
		t.Fatal("differing payload wrongly shared the interned buffer")
	}

	// Delivering everything must recycle both buffers into the free list and
	// clear the intern slot (a recycled buffer must not satisfy intern hits).
	for e.Step() {
	}
	if e.lastBody != nil {
		t.Fatal("intern slot not cleared after its buffer was recycled")
	}
	if len(e.bodyFree) == 0 {
		t.Fatal("delivered bodies were not returned to the free list")
	}
}

// TestPayloadRecycledAfterDelivery pins the zero-copy delivery contract: the
// slice passed to Receive is reused for a later message, so a reactor that
// retains it observes different bytes afterwards. (Real reactors must copy —
// core.Node's pending buffers do — and this test documents why.)
func TestPayloadRecycledAfterDelivery(t *testing.T) {
	var retained []byte
	e := NewEngine(Synchronous{Delta: Millisecond}, 1)
	if err := e.AddProcess(1, &retainingReactor{keep: &retained}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddProcess(2, &sendTwoReactor{to: 1}); err != nil {
		t.Fatal(err)
	}
	e.Run(Second)
	if string(retained) == "first-payload-aaaa" {
		t.Fatal("payload buffer was not recycled; the pool is not reusing delivered bodies")
	}
}

// retainingReactor illegally keeps the first payload slice it receives.
type retainingReactor struct{ keep *[]byte }

func (r *retainingReactor) Init(Context) {}
func (r *retainingReactor) Receive(_ Context, _ model.ID, payload []byte) {
	if *r.keep == nil {
		*r.keep = payload
	}
}
func (r *retainingReactor) Timer(Context, uint64) {}

// sendTwoReactor sends two equal-length, different-content payloads.
type sendTwoReactor struct{ to model.ID }

func (s *sendTwoReactor) Init(ctx Context) {
	ctx.Send(s.to, []byte("first-payload-aaaa"))
	ctx.SetTimer(10*Millisecond, 1)
}
func (s *sendTwoReactor) Receive(Context, model.ID, []byte) {}
func (s *sendTwoReactor) Timer(ctx Context, tag uint64) {
	if tag == 1 {
		ctx.Send(s.to, []byte("later-payload-bbbb"))
	}
}
