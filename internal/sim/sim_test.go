package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// echoReactor replies to every "ping" with a "pong" and records deliveries.
type echoReactor struct {
	peer     model.ID
	initiate bool
	log      *[]string
}

func (r *echoReactor) Init(ctx rt.Context) {
	if r.initiate {
		ctx.Send(r.peer, []byte("ping"))
	}
}

func (r *echoReactor) Receive(ctx rt.Context, from model.ID, payload []byte) {
	*r.log = append(*r.log, fmt.Sprintf("%v<-%v:%s@%d", ctx.ID(), from, payload, ctx.Now()))
	if string(payload) == "ping" {
		ctx.Send(from, []byte("pong"))
	}
}

func (r *echoReactor) Timer(rt.Context, uint64) {}

func TestPingPong(t *testing.T) {
	var log []string
	e := NewEngine(Synchronous{Delta: 10 * Millisecond}, 1)
	if err := e.AddProcess(1, &echoReactor{peer: 2, initiate: true, log: &log}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddProcess(2, &echoReactor{peer: 1, log: &log}); err != nil {
		t.Fatal(err)
	}
	e.Run(Second)
	if len(log) != 2 {
		t.Fatalf("log = %v", log)
	}
	m := e.Metrics()
	if m.Messages != 2 || m.Bytes != 8 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestDuplicateProcessRejected(t *testing.T) {
	e := NewEngine(Synchronous{Delta: 1}, 1)
	var log []string
	if err := e.AddProcess(1, &echoReactor{log: &log}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddProcess(1, &echoReactor{log: &log}); err == nil {
		t.Fatal("duplicate AddProcess accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		var log []string
		e := NewEngine(PartialSync{GST: 50 * Millisecond, Delta: 10 * Millisecond}, 99)
		_ = e.AddProcess(1, &echoReactor{peer: 2, initiate: true, log: &log})
		_ = e.AddProcess(2, &echoReactor{peer: 1, initiate: true, log: &log})
		e.Run(Second)
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

type timerReactor struct {
	fired []uint64
	times []Time
}

func (r *timerReactor) Init(ctx rt.Context) {
	ctx.SetTimer(30*Millisecond, 3)
	ctx.SetTimer(10*Millisecond, 1)
	ctx.SetTimer(20*Millisecond, 2)
}
func (r *timerReactor) Receive(rt.Context, model.ID, []byte) {}
func (r *timerReactor) Timer(ctx rt.Context, tag uint64) {
	r.fired = append(r.fired, tag)
	r.times = append(r.times, ctx.Now())
}

func TestTimersFireInOrder(t *testing.T) {
	e := NewEngine(Synchronous{Delta: 1}, 1)
	tr := &timerReactor{}
	_ = e.AddProcess(1, tr)
	e.Run(Second)
	if len(tr.fired) != 3 || tr.fired[0] != 1 || tr.fired[1] != 2 || tr.fired[2] != 3 {
		t.Fatalf("fired = %v", tr.fired)
	}
	for i, at := range tr.times {
		want := Time(10*(i+1)) * Millisecond
		if at != want {
			t.Fatalf("timer %d fired at %d, want %d", i, at, want)
		}
	}
}

func TestCrashStopsDelivery(t *testing.T) {
	var log []string
	e := NewEngine(Synchronous{Delta: Millisecond}, 1)
	_ = e.AddProcess(1, &echoReactor{peer: 2, initiate: true, log: &log})
	_ = e.AddProcess(2, &echoReactor{peer: 1, log: &log})
	e.Crash(2)
	e.Run(Second)
	if len(log) != 0 {
		t.Fatalf("crashed process received: %v", log)
	}
}

func TestSendToUnknownIsDropped(t *testing.T) {
	var log []string
	e := NewEngine(Synchronous{Delta: Millisecond}, 1)
	_ = e.AddProcess(1, &echoReactor{peer: 42, initiate: true, log: &log})
	e.Run(Second)
	if e.Metrics().Messages != 0 {
		t.Fatal("message to unknown process should be dropped unrecorded")
	}
}

func TestRunUntil(t *testing.T) {
	var log []string
	e := NewEngine(Synchronous{Delta: Millisecond}, 1)
	_ = e.AddProcess(1, &echoReactor{peer: 2, initiate: true, log: &log})
	_ = e.AddProcess(2, &echoReactor{peer: 1, log: &log})
	ok := e.RunUntil(func() bool { return len(log) >= 1 }, Second)
	if !ok || len(log) != 1 {
		t.Fatalf("RunUntil: ok=%v log=%v", ok, log)
	}
	// Horizon respected.
	e2 := NewEngine(Synchronous{Delta: 10 * Second}, 1)
	var log2 []string
	_ = e2.AddProcess(1, &echoReactor{peer: 2, initiate: true, log: &log2})
	_ = e2.AddProcess(2, &echoReactor{peer: 1, log: &log2})
	if e2.RunUntil(func() bool { return len(log2) > 0 }, Second) {
		t.Fatal("RunUntil ignored the horizon")
	}
	if e2.Now() > Second {
		t.Fatalf("engine advanced past the horizon: %d", e2.Now())
	}
}

// arrivalRecorder notes when each message arrives.
type arrivalRecorder struct {
	peer model.ID
	at   map[model.ID]Time
}

func (r *arrivalRecorder) Init(ctx rt.Context) {
	if r.peer != 0 {
		ctx.Send(r.peer, []byte("ping"))
	}
}
func (r *arrivalRecorder) Receive(ctx rt.Context, from model.ID, _ []byte) {
	if r.at == nil {
		r.at = make(map[model.ID]Time)
	}
	if _, seen := r.at[from]; !seen {
		r.at[from] = ctx.Now()
	}
}
func (r *arrivalRecorder) Timer(rt.Context, uint64) {}

func TestPartialSyncSlowLinks(t *testing.T) {
	const gst = 100 * Millisecond
	netmod := PartialSync{
		GST:   gst,
		Delta: 10 * Millisecond,
		Slow:  SlowBetweenGroups(model.NewIDSet(1, 2)),
	}
	e := NewEngine(netmod, 5)
	p2 := &arrivalRecorder{peer: 3} // 2→3 crosses the group boundary: slow
	p3 := &arrivalRecorder{}
	_ = e.AddProcess(1, &arrivalRecorder{peer: 2}) // 1→2 intra-group: fast
	_ = e.AddProcess(2, p2)
	_ = e.AddProcess(3, p3)
	e.Run(Second)
	fastAt, ok := p2.at[1]
	if !ok || fastAt >= gst {
		t.Fatalf("fast ping arrived at %d, want before GST %d", fastAt, gst)
	}
	slowAt, ok := p3.at[2]
	if !ok || slowAt < gst {
		t.Fatalf("slow ping arrived at %d, want after GST %d", slowAt, gst)
	}
}

func TestSlowPredicates(t *testing.T) {
	g := SlowBetweenGroups(model.NewIDSet(1, 2, 3), model.NewIDSet(6, 7, 8))
	if g(1, 2) || g(6, 8) {
		t.Fatal("intra-group links must be fast")
	}
	if !g(1, 6) || !g(4, 1) || !g(3, 4) {
		t.Fatal("cross-group links must be slow")
	}
	s := SlowTouching(model.NewIDSet(5))
	if !s(5, 1) || !s(1, 5) || s(1, 2) {
		t.Fatal("SlowTouching wrong")
	}
}

func TestAsyncAdversarialGrows(t *testing.T) {
	a := AsyncAdversarial{Delta: Millisecond, Factor: 3}
	r := testRandSource()
	d0 := a.Delay(1, 2, 0, r)
	d1 := a.Delay(1, 2, Second, r)
	if d1 < 3*Second {
		t.Fatalf("delay at t=1s should be ≥ 3s, got %d", d1)
	}
	if d0 != Millisecond {
		t.Fatalf("delay at t=0 should be Delta, got %d", d0)
	}
	// The factor floor kicks in for weak configurations.
	weak := AsyncAdversarial{Delta: Millisecond, Factor: 1}
	if got := weak.Delay(1, 2, Second, r); got < 3*Second {
		t.Fatalf("factor floor not applied: %d", got)
	}
}

func TestJitterBounds(t *testing.T) {
	r := testRandSource()
	for i := 0; i < 1000; i++ {
		d := jitter(10*Millisecond, r)
		if d < 5*Millisecond || d > 10*Millisecond {
			t.Fatalf("jitter out of [d/2, d]: %d", d)
		}
	}
}

func testRandSource() *rand.Rand { return rand.New(rand.NewSource(1)) }
