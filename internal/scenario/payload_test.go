package scenario

import (
	"fmt"
	"hash/maphash"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/sim"
)

// payloadWatch is the write-after-send detector: it remembers every slice
// that crossed the rt boundary — passed to Send or delivered to Receive —
// with a hash of its bytes, and fails the test when a later look finds other
// bytes there. It holds on to the slices, so their memory is never reused for
// something else while it watches.
type payloadWatch struct {
	t      *testing.T
	seed   maphash.Seed
	index  map[payloadKey]int
	seen   []watchedPayload
	events int
}

// payloadKey identifies a slice by its memory: first byte and length.
type payloadKey struct {
	first *byte
	n     int
}

type watchedPayload struct {
	p     []byte
	sum   uint64
	where string
}

// recheckEvery is how many reactor callbacks pass between two full re-hashes.
const recheckEvery = 64

func newPayloadWatch(t *testing.T) *payloadWatch {
	return &payloadWatch{t: t, seed: maphash.MakeSeed(), index: make(map[payloadKey]int)}
}

// note records p, or — if this very memory crossed before — checks it still
// reads as it did then.
func (w *payloadWatch) note(p []byte, where string) {
	if len(p) == 0 {
		return
	}
	key, sum := payloadKey{&p[0], len(p)}, maphash.Bytes(w.seed, p)
	if i, ok := w.index[key]; ok {
		if w.seen[i].sum != sum {
			w.t.Fatalf("payload first seen %s was written to before it was %s", w.seen[i].where, where)
		}
		return
	}
	w.index[key] = len(w.seen)
	w.seen = append(w.seen, watchedPayload{p, sum, where})
}

// recheck re-hashes everything recorded so far.
func (w *payloadWatch) recheck(when string) {
	for _, s := range w.seen {
		if maphash.Bytes(w.seed, s.p) != s.sum {
			w.t.Fatalf("payload %s was written to afterwards (found %s)", s.where, when)
		}
	}
}

// tick counts one reactor callback.
func (w *payloadWatch) tick() {
	if w.events++; w.events%recheckEvery == 0 {
		w.recheck(fmt.Sprintf("after %d events", w.events))
	}
}

// watchedReactor puts the watch between a reactor and its runtime, in both
// directions. Restart is passed on the way the engine itself would.
type watchedReactor struct {
	inner rt.Reactor
	w     *payloadWatch
}

func (r watchedReactor) Init(ctx rt.Context) { r.inner.Init(watchedCtx{ctx, r.w}) }

func (r watchedReactor) Receive(ctx rt.Context, from model.ID, payload []byte) {
	r.w.tick()
	r.w.note(payload, fmt.Sprintf("delivered to %v from %v at %v", ctx.ID(), from, ctx.Now()))
	r.inner.Receive(watchedCtx{ctx, r.w}, from, payload)
}

func (r watchedReactor) Timer(ctx rt.Context, tag uint64) {
	r.w.tick()
	r.inner.Timer(watchedCtx{ctx, r.w}, tag)
}

func (r watchedReactor) Restart(ctx rt.Context) {
	if re, ok := r.inner.(rt.Restartable); ok {
		re.Restart(watchedCtx{ctx, r.w})
		return
	}
	r.Init(ctx)
}

type watchedCtx struct {
	rt.Context
	w *payloadWatch
}

func (c watchedCtx) Send(to model.ID, payload []byte) {
	c.w.note(payload, fmt.Sprintf("sent by %v to %v at %v", c.ID(), to, c.Now()))
	c.Context.Send(to, payload)
}

// runWatched runs one compiled cell on the simulator the way Runner.Run does —
// newStack, assemble, the churn schedule, run to decision plus the grace
// second — with every reactor behind the watch.
func runWatched(t *testing.T, c *Compiled, seed int64) {
	t.Helper()
	w := newPayloadWatch(t)
	engine := sim.NewEngine(c.Net, seed)
	var log runLog
	log.reset()
	st, err := c.newStack(cryptox.NewKeys(), seed, c.Discovery, c.PBFTTimeout, c.PollPeriod)
	if err != nil {
		t.Fatal(err)
	}
	st.searcher = func() kosr.Search { return kosr.NewSearcher() }
	st.decide = func(id model.ID, _ uint64, v model.Value) { log.record(id, v, engine.Now()) }
	err = st.assemble(&log, func(id model.ID, r rt.Reactor) error {
		return engine.AddProcess(id, watchedReactor{r, w})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range c.Faults.Churn {
		engine.ScheduleCrash(ch.ID, ch.CrashAt)
		switch {
		case ch.RestartAt == 0:
			log.correct.Remove(ch.ID)
		case ch.Wipe:
			engine.ScheduleRestart(ch.ID, ch.RestartAt, watchedReactor{st.node(ch.ID, log.proposals[ch.ID]), w})
		default:
			engine.ScheduleRestart(ch.ID, ch.RestartAt, nil)
		}
	}
	if engine.RunUntil(log.allCorrectDecided, c.Horizon) {
		engine.Run(min(engine.Now()+sim.Second, c.Horizon))
	}
	w.recheck("at the end of the run")
	if len(w.seen) == 0 || w.events < recheckEvery {
		t.Fatalf("watched %d payloads over %d events: the cell exercised nothing", len(w.seen), w.events)
	}
	t.Logf("%d distinct payloads over %d events, all unchanged", len(w.seen), w.events)
}

// TestPayloadsNeverWrittenAfterSend enforces rt's payload ownership rule on
// the whole stack: no slice passed to Send or delivered to Receive is ever
// written to again. In the simulator every process lives in one address
// space and payloads are shared, not copied, so a violation would silently
// change what another process holds. One cell per protocol mode, one per zoo
// kind, hardened discovery, and a chaos cell with duplication and churn.
func TestPayloadsNeverWrittenAfterSend(t *testing.T) {
	sync := NetParams{Kind: NetSync}
	type cell struct {
		name string
		p    Params
	}
	cells := []cell{
		{"mode/permissioned", permissionedParams(sync, 10*sim.Second, 3)},
		{"mode/bft-cup", bftCUPParams(sync, 10*sim.Second, 3)},
		{"mode/bft-cupft", bftCUPFTParams(sync, 10*sim.Second, 3)},
		{"mode/naive", Params{Graph: figDef("fig2c"), Mode: core.ModeNaive, Net: sync, Horizon: 10 * sim.Second, Seed: 3}},
	}
	for _, kind := range allByzKinds {
		cells = append(cells, cell{"zoo/" + kind.String(), zooParams(kind, sync)})
	}
	const hardenedCell = "discovery/hardened"
	cells = append(cells, cell{hardenedCell, chaosParams(2)})
	churn := chaosParams(4)
	churn.Faults.Dup = 0.2
	churn.Faults.Churn = []ChurnEvent{
		{ID: 2, CrashAt: 10 * sim.Millisecond, RestartAt: 200 * sim.Millisecond, Wipe: true},
		{ID: 5, CrashAt: 15 * sim.Millisecond, RestartAt: 150 * sim.Millisecond},
		{ID: 8, CrashAt: 20 * sim.Millisecond},
	}
	cells = append(cells, cell{"chaos/dup+churn", churn})

	for _, tc := range cells {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.p.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == hardenedCell && !c.Hardened {
				t.Fatal("the chaos cell did not arm the hardened profile")
			}
			runWatched(t, c, tc.p.Seed)
		})
	}
}
