package sim

import (
	"math/rand"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// fixedNet delivers every message after exactly d — the timing-precise base
// model the crash/restart semantics tests need.
type fixedNet struct{ d Time }

func (n fixedNet) Delay(_, _ model.ID, _ Time, _ *rand.Rand) Time { return n.d }

// scriptSender sends a scripted sequence of messages at fixed virtual times.
type scriptSend struct {
	at      Time
	to      model.ID
	payload string
}

type scriptSender struct{ sends []scriptSend }

func (s *scriptSender) Init(ctx rt.Context) {
	for i, snd := range s.sends {
		ctx.SetTimer(snd.at, uint64(i))
	}
}
func (s *scriptSender) Receive(rt.Context, model.ID, []byte) {}
func (s *scriptSender) Timer(ctx rt.Context, tag uint64) {
	snd := s.sends[tag]
	ctx.Send(snd.to, []byte(snd.payload))
}

// recvRec is one observed delivery.
type recvRec struct {
	at      Time
	from    model.ID
	payload string
}

// recorder logs every delivery (copying the payload per the zero-copy
// contract) and counts Init calls.
type recorder struct {
	got   []recvRec
	inits int
}

func (r *recorder) Init(rt.Context) { r.inits++ }
func (r *recorder) Receive(ctx rt.Context, from model.ID, payload []byte) {
	r.got = append(r.got, recvRec{ctx.Now(), from, string(payload)})
}
func (r *recorder) Timer(rt.Context, uint64) {}

// resumableRecorder is a recorder with persisted-restart support.
type resumableRecorder struct {
	recorder
	resumed int
}

func (r *resumableRecorder) Restart(rt.Context) { r.resumed++ }

func faultyRingDigest(t *testing.T, net NetworkModel, seed int64) (string, int64) {
	t.Helper()
	engine := NewEngine(net, seed)
	return runRingOn(t, engine)
}

// TestFaultyNetworkZeroFaultTraceNeutral pins the wrapping contract: a
// FaultyNetwork with every fault off draws the same RNG sequence as its bare
// base model and produces a byte-identical trace.
func TestFaultyNetworkZeroFaultTraceNeutral(t *testing.T) {
	base := Synchronous{Delta: 5 * Millisecond}
	bare, msgs := faultyRingDigest(t, base, 42)
	if msgs == 0 {
		t.Fatal("reference run sent no messages")
	}
	wrapped, wmsgs := faultyRingDigest(t, FaultyNetwork{Base: base}, 42)
	if wrapped != bare || wmsgs != msgs {
		t.Fatalf("zero-fault wrapper diverged: %s/%d vs %s/%d", wrapped[:16], wmsgs, bare[:16], msgs)
	}
}

// TestFaultyNetworkDeterministic pins the determinism contract under active
// injection: identical seed and fault parameters reproduce identical traces
// (fresh and reset engines alike); a different seed diverges.
func TestFaultyNetworkDeterministic(t *testing.T) {
	net := FaultyNetwork{
		Base:    Synchronous{Delta: 5 * Millisecond},
		Loss:    0.2,
		Dup:     0.15,
		Reorder: 3 * Millisecond,
		Partition: PartitionSchedule{{
			From: 10 * Millisecond, Until: 30 * Millisecond,
			Groups: []model.IDSet{model.NewIDSet(1, 2, 3, 4), model.NewIDSet(5, 6, 7, 8)},
		}},
	}
	want, msgs := faultyRingDigest(t, net, 42)
	if msgs == 0 {
		t.Fatal("faulty run sent no messages")
	}
	if again, _ := faultyRingDigest(t, net, 42); again != want {
		t.Fatalf("same seed diverged under injection: %s vs %s", again[:16], want[:16])
	}
	if other, _ := faultyRingDigest(t, net, 43); other == want {
		t.Fatal("different seeds produced identical faulty traces")
	}
	// Dirty the engine with a different run first, then Reset; the 5ms delta
	// matters — the ring doubles its messages every hop, so a 1ms delta would
	// pack 2^50 messages into runRingOn's 50ms horizon.
	reused := NewEngine(Synchronous{Delta: 5 * Millisecond}, 7)
	runRingOn(t, reused)
	reused.Reset(net, 42)
	if digest, _ := runRingOn(t, reused); digest != want {
		t.Fatalf("reset engine diverged under injection: %s vs %s", digest[:16], want[:16])
	}
}

// TestFaultyNetworkLossAndDup pins the two degenerate rates: Loss=1 delivers
// nothing (while metrics still count the attempts), Dup=1 delivers every
// message exactly twice.
func TestFaultyNetworkLossAndDup(t *testing.T) {
	send := []scriptSend{{10 * Millisecond, 2, "a"}, {20 * Millisecond, 2, "b"}}

	engine := NewEngine(FaultyNetwork{Base: fixedNet{d: Millisecond}, Loss: 1}, 1)
	sink := &recorder{}
	if err := engine.AddProcess(1, &scriptSender{sends: send}); err != nil {
		t.Fatal(err)
	}
	if err := engine.AddProcess(2, sink); err != nil {
		t.Fatal(err)
	}
	engine.Run(Second)
	if len(sink.got) != 0 {
		t.Fatalf("Loss=1 delivered %d messages", len(sink.got))
	}
	if engine.Metrics().Messages != 2 {
		t.Fatalf("metrics counted %d send attempts, want 2", engine.Metrics().Messages)
	}

	engine = NewEngine(FaultyNetwork{Base: fixedNet{d: Millisecond}, Dup: 1}, 1)
	sink = &recorder{}
	if err := engine.AddProcess(1, &scriptSender{sends: send}); err != nil {
		t.Fatal(err)
	}
	if err := engine.AddProcess(2, sink); err != nil {
		t.Fatal(err)
	}
	engine.Run(Second)
	if len(sink.got) != 4 {
		t.Fatalf("Dup=1 delivered %d messages, want 4 (each twice)", len(sink.got))
	}
	if engine.Metrics().Messages != 2 {
		t.Fatalf("metrics counted %d send attempts, want 2", engine.Metrics().Messages)
	}
}

// TestPartitionScheduleSevers pins partition semantics: cross-group messages
// are severed during the window and flow again after the heal; processes in
// the same group — and pairs outside every listed group (the implicit
// remainder group) — are unaffected; a listed↔unlisted pair is severed.
func TestPartitionScheduleSevers(t *testing.T) {
	sched := PartitionSchedule{{
		From: 0, Until: 40 * Millisecond,
		Groups: []model.IDSet{model.NewIDSet(1), model.NewIDSet(2)},
	}}
	net := FaultyNetwork{Base: fixedNet{d: Millisecond}, Partition: sched}
	engine := NewEngine(net, 1)
	sinkB, sinkD := &recorder{}, &recorder{}
	// 1→2 crosses the cut: severed at 10ms, delivered at 50ms (healed).
	// 3→4 is remainder↔remainder: delivered during the window.
	// 1→4 is listed↔unlisted: severed.
	if err := engine.AddProcess(1, &scriptSender{sends: []scriptSend{
		{10 * Millisecond, 2, "cut"}, {50 * Millisecond, 2, "healed"}, {20 * Millisecond, 4, "leak"},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := engine.AddProcess(2, sinkB); err != nil {
		t.Fatal(err)
	}
	if err := engine.AddProcess(3, &scriptSender{sends: []scriptSend{{15 * Millisecond, 4, "rem"}}}); err != nil {
		t.Fatal(err)
	}
	if err := engine.AddProcess(4, sinkD); err != nil {
		t.Fatal(err)
	}
	engine.Run(Second)
	if len(sinkB.got) != 1 || sinkB.got[0].payload != "healed" {
		t.Fatalf("cross-cut deliveries to 2: %+v, want only the post-heal message", sinkB.got)
	}
	if len(sinkD.got) != 1 || sinkD.got[0].payload != "rem" {
		t.Fatalf("deliveries to 4: %+v, want only the remainder-group message", sinkD.got)
	}
}

// TestCrashRestartInFlight is the regression pin for churn delivery
// semantics: a message in flight to a crashed process is dropped when it
// arrives during the outage, delivered when it arrives after the restart
// (packets live in the network, not the process); a message sent while the
// target is down is dropped at send time.
func TestCrashRestartInFlight(t *testing.T) {
	engine := NewEngine(fixedNet{d: 60 * Millisecond}, 1)
	sink := &resumableRecorder{}
	if err := engine.AddProcess(1, &scriptSender{sends: []scriptSend{
		{20 * Millisecond, 2, "m1"},  // arrives 80ms: during the outage → dropped
		{45 * Millisecond, 2, "m2"},  // arrives 105ms: after restart → delivered
		{70 * Millisecond, 2, "m3"},  // sent while 2 is down → dropped at send
		{110 * Millisecond, 2, "m4"}, // arrives 170ms → delivered
	}}); err != nil {
		t.Fatal(err)
	}
	if err := engine.AddProcess(2, sink); err != nil {
		t.Fatal(err)
	}
	engine.ScheduleCrash(2, 50*Millisecond)
	engine.ScheduleRestart(2, 100*Millisecond, nil)
	engine.Run(Second)
	want := []recvRec{
		{105 * Millisecond, 1, "m2"},
		{170 * Millisecond, 1, "m4"},
	}
	if len(sink.got) != len(want) {
		t.Fatalf("delivered %+v, want %+v", sink.got, want)
	}
	for i := range want {
		if sink.got[i] != want[i] {
			t.Fatalf("delivery %d = %+v, want %+v", i, sink.got[i], want[i])
		}
	}
	if sink.resumed != 1 || sink.inits != 1 {
		t.Fatalf("persisted restart: resumed=%d inits=%d, want 1/1", sink.resumed, sink.inits)
	}
	if engine.Metrics().Messages != 3 {
		t.Fatalf("metrics counted %d send attempts, want 3 (m3 dropped at send)", engine.Metrics().Messages)
	}
}

// crashTicker counts periodic timer fires and, on persisted restart,
// deliberately does not re-arm — so any tick after the restart proves a
// pre-crash timer leaked through.
type crashTicker struct {
	ticks   int
	resumed int
}

func (c *crashTicker) Init(ctx rt.Context)                  { ctx.SetTimer(10*Millisecond, 1) }
func (c *crashTicker) Receive(rt.Context, model.ID, []byte) {}
func (c *crashTicker) Timer(ctx rt.Context, tag uint64) {
	c.ticks++
	ctx.SetTimer(10*Millisecond, tag)
}
func (c *crashTicker) Restart(rt.Context) { c.resumed++ }

// TestRestartSemantics pins the two restart flavors: a persisted restart
// keeps the reactor (state intact, Restart called, pending timers dead); a
// wiped restart swaps in the replacement reactor, whose Init runs fresh.
func TestRestartSemantics(t *testing.T) {
	// Persisted: timers from the previous incarnation must not fire.
	engine := NewEngine(fixedNet{d: Millisecond}, 1)
	tick := &crashTicker{}
	if err := engine.AddProcess(1, tick); err != nil {
		t.Fatal(err)
	}
	engine.ScheduleCrash(1, 55*Millisecond)
	engine.ScheduleRestart(1, 100*Millisecond, nil)
	engine.Run(Second)
	if tick.ticks != 5 {
		t.Fatalf("ticks = %d, want 5 (10..50ms; the pending 60ms timer died with the crash)", tick.ticks)
	}
	if tick.resumed != 1 {
		t.Fatalf("resumed = %d, want 1", tick.resumed)
	}

	// Wiped: the replacement reactor takes over with a fresh Init; the old
	// reactor sees nothing after the crash.
	engine = NewEngine(fixedNet{d: Millisecond}, 1)
	old, fresh := &recorder{}, &recorder{}
	if err := engine.AddProcess(1, &scriptSender{sends: []scriptSend{
		{30 * Millisecond, 2, "pre"}, {120 * Millisecond, 2, "post"},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := engine.AddProcess(2, old); err != nil {
		t.Fatal(err)
	}
	engine.ScheduleCrash(2, 50*Millisecond)
	engine.ScheduleRestart(2, 100*Millisecond, fresh)
	engine.Run(Second)
	if len(old.got) != 1 || old.got[0].payload != "pre" {
		t.Fatalf("old reactor got %+v, want only the pre-crash message", old.got)
	}
	if len(fresh.got) != 1 || fresh.got[0].payload != "post" {
		t.Fatalf("replacement got %+v, want only the post-restart message", fresh.got)
	}
	if fresh.inits != 1 {
		t.Fatalf("replacement inits = %d, want 1", fresh.inits)
	}
}

// TestDroppedEventStopsAtHorizon pins that an event dropped on arrival ends
// its step: RunUntil checks its horizon before the next event. A message due
// at 5 ms to a process crashed at 1 ms is dropped; the only event left is
// p2's send at 1 s, past the 100 ms horizon, so it must not fire and the
// clock must stop at the drop.
func TestDroppedEventStopsAtHorizon(t *testing.T) {
	engine := NewEngine(fixedNet{d: 5 * Millisecond}, 1)
	for _, p := range []struct {
		id model.ID
		r  rt.Reactor
	}{
		{1, &scriptSender{sends: []scriptSend{{0, 3, "dropped"}}}},
		{2, &scriptSender{sends: []scriptSend{{Second, 1, "late"}}}},
		{3, &recorder{}},
	} {
		if err := engine.AddProcess(p.id, p.r); err != nil {
			t.Fatal(err)
		}
	}
	engine.ScheduleCrash(3, Millisecond)
	if engine.RunUntil(func() bool { return false }, 100*Millisecond) {
		t.Fatal("RunUntil met a condition that never holds")
	}
	if now, sent := engine.Now(), engine.Metrics().Messages; now != 5*Millisecond || sent != 1 {
		t.Fatalf("after RunUntil(never, 100ms): Now() = %v with %d sends, want 5ms with 1 (p2's 1 s timer fired past the horizon)", now, sent)
	}
}
