package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// BenchmarkEngine measures the simulator hot path — event-queue churn, message
// delivery, network-delay RNG draws and metrics accounting — with reactors
// that do no protocol work. events/s is the headline throughput number; run
// with -benchmem to see allocs/op on the event path.
func BenchmarkEngine(b *testing.B) {
	cases := []struct {
		name string
		w    Workload
	}{
		{"ring-16", Workload{Procs: 16, Tokens: 16, Fanout: 1}},
		{"ring-64", Workload{Procs: 64, Tokens: 64, Fanout: 1}},
		{"broadcast-16", Workload{Procs: 16, Tokens: 4, Fanout: 3, Horizon: 20 * Millisecond}},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				n, err := RunWorkload(tc.w)
				if err != nil {
					b.Fatal(err)
				}
				events = n
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(events), "events/op")
		})
	}
}

// BenchmarkEngineSend isolates the send+deliver cycle cost for one in-flight
// message at several payload sizes, and in the SETPDS shape: two processes
// answering each other with their own 1 KiB payload, so consecutive sends
// never carry the same bytes (every one of them missed the intern slot the
// engine used to have, and was copied).
func BenchmarkEngineSend(b *testing.B) {
	for _, size := range []int{16, 256, 4096} {
		size := size
		b.Run(fmt.Sprintf("payload-%d", size), func(b *testing.B) {
			b.ReportAllocs()
			if _, err := RunWorkload(Workload{Procs: 2, Tokens: 1, PayloadBytes: size, Horizon: Time(b.N) * 10 * Millisecond}); err != nil {
				b.Fatal(err)
			}
		})
	}
	b.Run("setpds-1024", func(b *testing.B) {
		b.ReportAllocs()
		e := NewEngine(Synchronous{Delta: 5 * Millisecond}, 1)
		for id := model.ID(1); id <= 2; id++ {
			payload := make([]byte, 1024)
			for i := range payload {
				payload[i] = byte(id) + byte(i)
			}
			if err := e.AddProcess(id, &workloadReactor{peers: []model.ID{3 - id}, fanout: 1, tokens: 1, payload: payload}); err != nil {
				b.Fatal(err)
			}
		}
		e.Run(Time(b.N) * 5 * Millisecond)
	})
	b.Run("setpds-1024-inert", func(b *testing.B) {
		// The gossip shape: each of two processes re-sends its one 1 KiB
		// slice to the other every millisecond, and the recipient declares it
		// replay-inert, so all but the first few sends are coalesced.
		b.ReportAllocs()
		e := NewEngine(Synchronous{Delta: 5 * Millisecond}, 1)
		for id := model.ID(1); id <= 2; id++ {
			payload := make([]byte, 1024)
			payload[0] = kindInert
			if err := e.AddProcess(id, &regossip{to: 3 - id, payload: payload}); err != nil {
				b.Fatal(err)
			}
		}
		const warm = 100 * Millisecond // the replay table grows here
		e.Run(warm)
		b.ResetTimer()
		e.Run(warm + Time(b.N)*Millisecond/2)
		if m := e.Metrics(); 2*m.Coalesced < m.Messages {
			b.Fatalf("%d of %d sends coalesced", m.Coalesced, m.Messages)
		}
	})
}

// regossip sends its payload to one peer every millisecond and declares
// kindInert payloads replay-inert.
type regossip struct {
	to      model.ID
	payload []byte
}

func (r *regossip) Init(ctx rt.Context)                  { ctx.SetTimer(0, 0) }
func (r *regossip) Receive(rt.Context, model.ID, []byte) {}
func (r *regossip) Timer(ctx rt.Context, tag uint64) {
	ctx.Send(r.to, r.payload)
	ctx.SetTimer(Millisecond, tag)
}
func (r *regossip) ReplayInert(payload []byte) bool { return payload[0] == kindInert }

// BenchmarkEventQueue prices the queue alone with the classic hold model —
// pop the earliest event, push one at now + d — at several pending-set sizes
// and one delay law per tier: a jittered Δ (the fine wheel, a few events a
// bucket), a constant delay (every bucket is one run of ties), a GST burst
// (the standard sweep's partial regime: the pending set parked 2 s ahead in
// the far wheel, then released in a 2.5 ms band of crowded buckets), and 3×now
// growth (everything beyond the first few rounds goes through the far wheel,
// then the heap). Steady state must read 0 allocs/op.
func BenchmarkEventQueue(b *testing.B) {
	laws := []struct {
		name  string
		delay func(rng *rand.Rand, now Time) Time
	}{
		{"jitter", func(rng *rand.Rand, _ Time) Time { return jitter(5*Millisecond, rng) }},
		{"constant", func(*rand.Rand, Time) Time { return 5 * Millisecond }},
		{"gst-burst", func(rng *rand.Rand, now Time) Time {
			gst := (now/(2*Second) + 1) * 2 * Second
			return gst - now + jitter(5*Millisecond, rng)
		}},
		{"3x-now", func(_ *rand.Rand, now Time) Time { return 2 * now }},
	}
	for _, law := range laws {
		for _, pending := range []int{16, 128, 1024, 16384} {
			law, pending := law, pending
			b.Run(fmt.Sprintf("%s/pending-%d", law.name, pending), func(b *testing.B) {
				e := NewEngine(Synchronous{Delta: 1}, 1)
				rng := newRand(1)
				push := func(at Time) { e.push(at).kind = evTimer }
				prime := func() {
					e.Reset(e.net, 1)
					e.now = Millisecond
					for i := 0; i < pending; i++ {
						push(e.now + law.delay(rng, e.now))
					}
				}
				hold := func(n int) {
					for i := 0; i < n; i++ {
						if e.now > math.MaxInt64/4 {
							prime() // 3×now has run the clock out: same slab and tiers, new epoch
						}
						e.peek()
						e.now = e.popEvent().at
						push(e.now + law.delay(rng, e.now))
					}
				}
				prime()
				hold(4 * pending) // grow the slab and every tier to steady state
				b.ReportAllocs()
				b.ResetTimer()
				hold(b.N)
			})
		}
	}
}
