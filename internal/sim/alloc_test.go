package sim

import (
	"fmt"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// TestEventPathAllocsSteadyState is the allocation-regression gate on the
// event path (CI runs it in the benchmark smoke job): once the event slab and
// the queue's tiers are warm, a send→deliver cycle must allocate nothing —
// events are recycled slab records linked into wheel buckets, a payload is
// the sender's own slice, metrics are array-backed. Any regression (a stray
// boxing, a map on the hot path, a per-message copy) shows up as a nonzero
// allocation count here.
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
	// Warm up: grow the slab, the tiers and every reactor's state to steady
	// state.
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

// TestPayloadDeliveredIsTheSliceSent pins the hand-over contract (internal/rt,
// "Payload ownership") from the engine's side: what a reactor receives is the
// sender's backing array, not a copy; a broadcast delivers that one array to
// every recipient; and a reactor may keep it — the bytes are the same after
// 10⁴ further messages and after Reset, because the engine never writes to,
// pools or reuses a payload.
func TestPayloadDeliveredIsTheSliceSent(t *testing.T) {
	const further = 10_000
	payload := []byte("broadcast-me")
	want := string(payload)
	e := NewEngine(Synchronous{Delta: Millisecond}, 1)
	kept := make([][]byte, 3)
	for i := range kept {
		if err := e.AddProcess(model.ID(i+2), &retainingReactor{keep: &kept[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddProcess(1, &broadcastThenChatter{to: []model.ID{2, 3, 4}, first: payload, further: further}); err != nil {
		t.Fatal(err)
	}
	e.Run(Second)
	if got := e.Metrics().Messages; got < further {
		t.Fatalf("only %d messages sent, want the broadcast and %d more", got, further)
	}
	check := func(when string) {
		t.Helper()
		for i, got := range kept {
			if len(got) != len(payload) || &got[0] != &payload[0] {
				t.Fatalf("%s: process %d holds %q at %p, want the sender's array at %p", when, i+2, got, got, payload)
			}
			if string(got) != want {
				t.Fatalf("%s: process %d reads %q from the slice it kept, want %q", when, i+2, got, want)
			}
		}
	}
	check("after the run")
	e.Reset(Synchronous{Delta: Millisecond}, 2)
	check("after Reset")
}

// retainingReactor keeps the first payload slice it receives, without copying.
type retainingReactor struct{ keep *[]byte }

func (r *retainingReactor) Init(rt.Context) {}
func (r *retainingReactor) Receive(_ rt.Context, _ model.ID, payload []byte) {
	if *r.keep == nil {
		*r.keep = payload
	}
}
func (r *retainingReactor) Timer(rt.Context, uint64) {}

// broadcastThenChatter sends first to every peer at Init and, once that has
// been delivered (the test's Δ is 1 ms), further messages of the same length
// and other contents, one per timer tick.
type broadcastThenChatter struct {
	to      []model.ID
	first   []byte
	further int
}

func (b *broadcastThenChatter) Init(ctx rt.Context) {
	for _, id := range b.to {
		ctx.Send(id, b.first)
	}
	ctx.SetTimer(2*Millisecond, 0)
}
func (b *broadcastThenChatter) Receive(rt.Context, model.ID, []byte) {}
func (b *broadcastThenChatter) Timer(ctx rt.Context, n uint64) {
	if int(n) == b.further {
		return
	}
	ctx.Send(b.to[int(n)%len(b.to)], []byte(fmt.Sprintf("chatter-%04d", n)))
	ctx.SetTimer(Microsecond, n+1)
}
