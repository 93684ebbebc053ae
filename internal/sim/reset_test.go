package sim

import (
	"testing"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// runRingOn drives a small token ring on the given engine (fresh or reset)
// with tracing attached and returns the trace digest plus message count. The
// horizon cuts the run with events queued in every tier of the queue — ring
// deliveries in the open bucket and the fine wheel, the slow link class's
// pre-GST messages and farTimer's first timer in the far wheel (under
// resetNet), its second timer in the heap — so a following Reset has pending
// events, payloads included, to drop from all four.
func runRingOn(t *testing.T, engine *Engine) (string, int64) {
	t.Helper()
	tr := NewTrace()
	engine.SetTrace(tr)
	addRing(t, engine)
	if err := engine.AddProcess(9, farTimer{}); err != nil {
		t.Fatal(err)
	}
	engine.Run(50 * Millisecond)
	return tr.Digest(), engine.Metrics().Messages
}

// resetNet keeps every link touching process 8 silent until GST = 200 ms.
var resetNet = PartialSync{GST: 200 * Millisecond, Delta: 5 * Millisecond, Slow: SlowTouching(model.NewIDSet(8))}

// farTimer arms one timer a second ahead, in the far wheel, and one 200 s
// ahead, beyond the far wheel's 137 s window.
type farTimer struct{}

func (farTimer) Init(ctx rt.Context) {
	ctx.SetTimer(Second, 7)
	ctx.SetTimer(200*Second, 8)
}
func (farTimer) Receive(rt.Context, model.ID, []byte) {}
func (farTimer) Timer(rt.Context, uint64)             {}

// addRing registers the 8-process ring: every process starts one token and
// forwards each delivery to two of its three successors.
func addRing(t *testing.T, engine *Engine) {
	t.Helper()
	peers := make([]model.ID, 8)
	for i := range peers {
		peers[i] = model.ID(i + 1)
	}
	payload := []byte("reset-determinism")
	for i, id := range peers {
		r := &workloadReactor{
			peers:   []model.ID{peers[(i+1)%len(peers)], peers[(i+2)%len(peers)], peers[(i+3)%len(peers)]},
			fanout:  2,
			tokens:  1,
			payload: payload,
		}
		if err := engine.AddProcess(id, r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineResetMatchesFresh pins Reset's contract: an engine reset to a
// (net, seed) is indistinguishable from a newly constructed one — identical
// event traces and metrics — and a reset to a different seed actually
// diverges (the RNG was reseeded, not left running).
func TestEngineResetMatchesFresh(t *testing.T) {
	net := resetNet
	fresh := NewEngine(net, 42)
	wantDigest, wantMsgs := runRingOn(t, fresh)
	if wantMsgs == 0 {
		t.Fatal("reference run sent no messages")
	}

	reused := NewEngine(net, 7)
	if d, _ := runRingOn(t, reused); d == wantDigest {
		t.Fatal("different seeds produced identical traces")
	}
	for i := 0; i < 3; i++ {
		// The cut-off run left events in all four tiers; Reset must leave
		// the tiers empty and no payload pointer anywhere in the slab it keeps
		// (slots beyond the cut included), or the GC could not reclaim them.
		holdsPayload := func() int {
			n := 0
			for _, ev := range reused.slab[:cap(reused.slab)] {
				if ev.body != nil {
					n++
				}
			}
			return n
		}
		wheelEmpty := func() bool { return reused.occ == [len(reused.occ)]uint64{} }
		farEmpty := func() bool { return reused.farOcc == [len(reused.farOcc)]uint64{} }
		if reused.runPos == len(reused.run) || wheelEmpty() || farEmpty() || len(reused.over) == 0 || holdsPayload() == 0 {
			t.Fatalf("cut-off run left a tier empty: open run %d, wheel empty %v, far wheel empty %v, overflow %d, payloads %d",
				len(reused.run)-reused.runPos, wheelEmpty(), farEmpty(), len(reused.over), holdsPayload())
		}
		reused.Reset(net, 42)
		if n := holdsPayload(); n != 0 {
			t.Fatalf("reset %d left %d slab slots holding a payload", i, n)
		}
		if _, pending := reused.peek(); pending || len(reused.run) != 0 || !wheelEmpty() ||
			reused.heads != [wheelBuckets]int32{} || !farEmpty() || reused.farHeads != [farBuckets]int32{} ||
			len(reused.over) != 0 || len(reused.slab) != 1 {
			t.Fatalf("reset %d left events queued", i)
		}
		if reused.Now() != 0 || reused.Metrics().Messages != 0 {
			t.Fatalf("reset %d left state behind: now=%v messages=%d", i, reused.Now(), reused.Metrics().Messages)
		}
		digest, msgs := runRingOn(t, reused)
		if digest != wantDigest || msgs != wantMsgs {
			t.Fatalf("reset %d diverged from fresh engine: %s/%d vs %s/%d", i, digest[:16], msgs, wantDigest[:16], wantMsgs)
		}
	}

	// Reset must also detach the trace: after a Reset, a run that does not
	// re-attach records nothing into the previously attached recorder.
	tr := NewTrace()
	reused.Reset(net, 42)
	reused.SetTrace(tr)
	reused.Reset(net, 42)
	if err := reused.AddProcess(1, &workloadReactor{peers: []model.ID{1}, fanout: 1, tokens: 1, payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	reused.Run(10 * Millisecond)
	if tr.Events() != 0 {
		t.Fatalf("detached trace recorded %d events", tr.Events())
	}
}

// delayTimers arms, at Init, one timer per delay (tagged with its index) and
// logs what fires when.
type delayTimers struct {
	delays []Time
	fired  []uint64
	at     []Time
}

func (d *delayTimers) Init(ctx rt.Context) {
	for i, delay := range d.delays {
		ctx.SetTimer(delay, uint64(i))
	}
}
func (d *delayTimers) Receive(rt.Context, model.ID, []byte) {}
func (d *delayTimers) Timer(ctx rt.Context, tag uint64) {
	d.fired = append(d.fired, tag)
	d.at = append(d.at, ctx.Now())
}

// TestRunUntilHorizonBoundary pins the two-phase pattern the scenario runner
// uses for its post-decision grace second: RunUntil delivers an event at
// exactly the horizon, leaves one a nanosecond later queued without moving
// the clock past the horizon — although looking at it may already have opened
// its bucket, or slid the window to a far timer — and a second RunUntil with
// a later horizon picks up from there.
func TestRunUntilHorizonBoundary(t *testing.T) {
	const horizon = 10 * Millisecond
	e := NewEngine(Synchronous{Delta: Millisecond}, 1)
	r := &delayTimers{delays: []Time{horizon + 1, 2 * Second, horizon, Millisecond}}
	if err := e.AddProcess(1, r); err != nil {
		t.Fatal(err)
	}
	never := func() bool { return false }
	expect := func(phase string, now Time, fired ...uint64) {
		t.Helper()
		if e.Now() != now {
			t.Fatalf("%s: now = %d, want %d", phase, e.Now(), now)
		}
		if len(r.fired) != len(fired) {
			t.Fatalf("%s: fired %v, want %v", phase, r.fired, fired)
		}
		for i, tag := range fired {
			if r.fired[i] != tag || r.at[i] != r.delays[tag] {
				t.Fatalf("%s: fired %v at %v, want %v at their delays", phase, r.fired, r.at, fired)
			}
		}
	}
	if e.RunUntil(never, horizon) {
		t.Fatal("RunUntil reported a condition that never holds")
	}
	expect("first horizon", horizon, 3, 2)
	e.RunUntil(never, horizon) // the same horizon again delivers nothing
	expect("same horizon", horizon, 3, 2)
	e.RunUntil(never, Second)
	expect("later horizon", horizon+1, 3, 2, 0)
	e.Run(3 * Second)
	expect("drained", 2*Second, 3, 2, 0, 1)
}
