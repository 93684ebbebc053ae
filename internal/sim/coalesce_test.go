package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// The coalescing differential test. A toy recipient declares every payload
// whose first byte is kindInert replay-inert; the same scripts run with it
// declaring (coalesced) and behind a wrapper that declares nothing
// (uncoalesced). Delivery logs must agree on every first delivery of a
// (sender, slice) pair and every other event, in order and in time, and
// Metrics must agree bar Coalesced.

const (
	kindInert byte = 'I'
	kindOther byte = 'N'
)

// delivery is one event a logRecv saw: a message, with its bytes (every
// slice of a script reads differently), or a timer.
type delivery struct {
	at    Time
	to    model.ID
	from  model.ID
	body  string
	timer bool
}

// logRecv records every delivery into a shared log and keeps a timer going,
// so that timer events interleave with the messages.
type logRecv struct {
	id  model.ID
	log *[]delivery
}

func (r *logRecv) Init(ctx rt.Context) { ctx.SetTimer(Millisecond, 0) }
func (r *logRecv) Receive(ctx rt.Context, from model.ID, payload []byte) {
	*r.log = append(*r.log, delivery{at: ctx.Now(), to: r.id, from: from, body: string(payload)})
}
func (r *logRecv) Timer(ctx rt.Context, tag uint64) {
	*r.log = append(*r.log, delivery{at: ctx.Now(), to: r.id, timer: true})
	ctx.SetTimer(3*Millisecond, tag)
}

// inertRecv is a logRecv that declares kindInert payloads replay-inert. It
// is one: it only logs.
type inertRecv struct{ logRecv }

func (r *inertRecv) ReplayInert(payload []byte) bool { return payload[0] == kindInert }

// plainRecv passes everything to a logRecv and declares nothing.
type plainRecv struct{ *logRecv }

// planSender calls plan once per millisecond tick, for ticks ticks.
type planSender struct {
	plan  func(ctx rt.Context, tick int)
	ticks int
	tick  int
}

func (s *planSender) Init(ctx rt.Context)                  { ctx.SetTimer(0, 0) }
func (s *planSender) Receive(rt.Context, model.ID, []byte) {}
func (s *planSender) Timer(ctx rt.Context, _ uint64) {
	s.plan(ctx, s.tick)
	if s.tick++; s.tick < s.ticks {
		ctx.SetTimer(Millisecond, 0)
	}
}

// netFunc is a network model given as a function.
type netFunc func(from, to model.ID, now Time, rng *rand.Rand) Time

func (f netFunc) Delay(from, to model.ID, now Time, rng *rand.Rand) Time {
	return f(from, to, now, rng)
}

// coalesceCase is one script: its network, and the plan of each sender (IDs
// 1, 2, …); recipients are IDs 10 and 11.
type coalesceCase struct {
	name  string
	net   NetworkModel
	plans []func(ctx rt.Context, tick int)
}

// payloads are the scripts' slices: A and B inert, N not.
var (
	sliceA = []byte{kindInert, 'A'}
	sliceB = []byte{kindInert, 'B', 'B'}
	sliceN = []byte{kindOther, 'N'}
)

// runCoalesceCase runs c's plans on e, Reset to net and seed 1, with the
// recipients declaring or not and prepare applied before the run, and
// returns the delivery log and the Metrics.
func runCoalesceCase(t *testing.T, e *Engine, net NetworkModel, c coalesceCase, declare bool, prepare func(*Engine)) ([]delivery, Metrics) {
	t.Helper()
	e.Reset(net, 1)
	var log []delivery
	for i, plan := range c.plans {
		if err := e.AddProcess(model.ID(i+1), &planSender{plan: plan, ticks: 60}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []model.ID{10, 11} {
		var r rt.Reactor = plainRecv{&logRecv{id: id, log: &log}}
		if declare {
			r = &inertRecv{logRecv{id: id, log: &log}}
		}
		if err := e.AddProcess(id, r); err != nil {
			t.Fatal(err)
		}
	}
	if prepare != nil {
		prepare(e)
	}
	e.Run(Second)
	return log, *e.Metrics()
}

// firsts drops from log every inert delivery whose (sender, recipient,
// slice) was delivered before: the replays a declaring recipient may be
// spared.
func firsts(log []delivery) []delivery {
	type key struct {
		from, to model.ID
		body     string
	}
	seen := make(map[key]bool)
	var out []delivery
	for _, d := range log {
		if !d.timer && d.body[0] == kindInert {
			k := key{d.from, d.to, d.body}
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		out = append(out, d)
	}
	return out
}

// jittered returns a delay law of d plus 0–2 ms drawn from the engine RNG,
// so draws and ties vary with the seed as a real model's do.
func jittered(d func(now Time) Time) NetworkModel {
	return netFunc(func(_, _ model.ID, now Time, rng *rand.Rand) Time {
		return d(now) + Time(rng.Int63n(3))*Millisecond
	})
}

func coalesceCases() []coalesceCase {
	constant := func(Time) Time { return 2 * Millisecond }
	return []coalesceCase{
		{
			// Every copy of a tick is due at one instant: the second send of
			// A, B from another sender and N tie with it.
			name: "equal-at-ties",
			net:  netFunc(func(_, _ model.ID, _ Time, _ *rand.Rand) Time { return 2 * Millisecond }),
			plans: []func(rt.Context, int){
				func(ctx rt.Context, tick int) {
					ctx.Send(10, sliceA)
					ctx.Send(11, sliceN)
					ctx.Send(10, sliceA)
					ctx.Send(11, sliceA)
				},
				func(ctx rt.Context, tick int) {
					ctx.Send(10, sliceB)
					ctx.Send(10, sliceA)
					ctx.Send(10, sliceN)
				},
			},
		},
		{
			// Everything sent before a GST at 40 ms is parked until GST plus
			// a draw: a later send is often due earlier than the one before.
			name: "later-sends-due-earlier",
			net:  jittered(func(now Time) Time { return max(40*Millisecond-now, 0) + Millisecond }),
			plans: []func(rt.Context, int){
				func(ctx rt.Context, tick int) {
					ctx.Send(10, sliceA)
					ctx.Send(11, sliceA)
					if tick%4 == 0 {
						ctx.Send(10, sliceN)
					}
				},
				func(ctx rt.Context, tick int) { ctx.Send(10, sliceB) },
			},
		},
		{
			// One sender alternates two slices to the same recipient, in
			// runs of one and of three, among jittered sends of the other.
			name: "alternating-slices",
			net:  jittered(constant),
			plans: []func(rt.Context, int){
				func(ctx rt.Context, tick int) {
					if tick%2 == 0 {
						ctx.Send(10, sliceA)
					} else {
						ctx.Send(10, sliceB)
					}
					if tick/3%2 == 0 {
						ctx.Send(11, sliceA)
					} else {
						ctx.Send(11, sliceB)
					}
				},
				func(ctx rt.Context, tick int) {
					ctx.Send(10, sliceA)
					ctx.Send(10, sliceN)
				},
			},
		},
		{
			// A fresh slice every fifth tick, the way a SETPDS reply is rebuilt
			// when a record arrives, sent each tick in between.
			name: "fresh-slices",
			net:  jittered(constant),
			plans: []func(rt.Context, int){
				func() func(rt.Context, int) {
					var cur []byte
					return func(ctx rt.Context, tick int) {
						if tick%5 == 0 {
							cur = []byte(fmt.Sprintf("%cslice-%d", kindInert, tick))
						}
						ctx.Send(10, cur)
						ctx.Send(11, cur)
					}
				}(),
			},
		},
	}
}

// TestCoalescingMatchesQueuedReplays is the differential test of Send's
// coalescing: over each script a declaring recipient gets exactly the first
// deliveries, and every other event, at the times and in the order an
// undeclaring one does; Metrics agree bar Coalesced, which must count. With
// the run traced, faults injected or a crash scheduled, nothing coalesces and
// the logs agree whole. A reset engine coalesces as a fresh one does.
func TestCoalescingMatchesQueuedReplays(t *testing.T) {
	for _, c := range coalesceCases() {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(c.net, 1)
			want, wantM := runCoalesceCase(t, e, c.net, c, false, nil)
			got, gotM := runCoalesceCase(t, e, c.net, c, true, nil)
			if wantM.Coalesced != 0 {
				t.Fatalf("undeclaring recipients: %d sends coalesced", wantM.Coalesced)
			}
			if gotM.Coalesced == 0 {
				t.Fatal("declaring recipients: no send coalesced, the script tests nothing")
			}
			if int64(len(want)-len(got)) != gotM.Coalesced {
				t.Errorf("%d deliveries fewer, %d sends coalesced", len(want)-len(got), gotM.Coalesced)
			}
			if !slices.Equal(firsts(got), firsts(want)) {
				t.Errorf("first deliveries and other events differ:\ncoalesced %v\nqueued    %v", firsts(got), firsts(want))
			}
			m := gotM
			m.Coalesced = 0
			if m != wantM {
				t.Errorf("metrics differ: coalesced %+v, queued %+v", gotM, wantM)
			}
			if again, againM := runCoalesceCase(t, e, c.net, c, true, nil); !slices.Equal(again, got) || againM != gotM {
				t.Error("rerun on the reset engine: coalesces otherwise than the first run")
			}

			for _, off := range []struct {
				name    string
				net     NetworkModel
				prepare func(*Engine)
			}{
				{"traced", c.net, func(e *Engine) { e.SetTrace(NewTrace()) }},
				{"fault-injector", FaultyNetwork{Base: c.net}, nil},
				{"crash-control", c.net, func(e *Engine) { e.ScheduleCrash(1, 10*Second) }},
				{"restart-control", c.net, func(e *Engine) { e.ScheduleRestart(2, 10*Second, nil) }},
			} {
				log, m := runCoalesceCase(t, e, off.net, c, true, off.prepare)
				if m.Coalesced != 0 || !slices.Equal(log, want) {
					t.Errorf("%s: %d sends coalesced, logs equal %v; want none and equal", off.name, m.Coalesced, slices.Equal(log, want))
				}
			}
		})
	}
}
