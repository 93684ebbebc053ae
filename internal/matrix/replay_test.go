package matrix

import (
	"reflect"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/wire"
)

// declared reports whether r declares payload replay-inert.
func declared(r rt.Reactor, payload []byte) bool {
	ri, ok := r.(rt.ReplayInert)
	return ok && ri.ReplayInert(payload)
}

// getPDsToo is a false declaration: GETPDS as well, which is answered.
func getPDsToo(r rt.Reactor, payload []byte) bool {
	_, ok := r.(rt.ReplayInert)
	return declared(r, payload) || ok && payload[0] == wire.KindGetPDs
}

// redeliver hands every payload inert calls replay-inert to the reactor a
// second time, right after the first. It declares nothing itself, so the
// engine queues every send to it.
type redeliver struct {
	inner rt.Reactor
	inert func(rt.Reactor, []byte) bool
}

func (r redeliver) Init(ctx rt.Context)              { r.inner.Init(ctx) }
func (r redeliver) Timer(ctx rt.Context, tag uint64) { r.inner.Timer(ctx, tag) }

func (r redeliver) Receive(ctx rt.Context, from model.ID, payload []byte) {
	r.inner.Receive(ctx, from, payload)
	if len(payload) > 0 && r.inert(r.inner, payload) {
		r.inner.Receive(ctx, from, payload)
	}
}

func (r redeliver) Restart(ctx rt.Context) {
	if re, ok := r.inner.(rt.Restartable); ok {
		re.Restart(ctx)
		return
	}
	r.inner.Init(ctx)
}

// replayRuns runs every cell of src untraced twice: as the sweep runs it, and
// with every reactor behind redeliver under inert. It reports the cells
// whose Results differ, bar Coalesced (the redelivering run has nothing to
// coalesce), and the first run's Coalesced and SETPDS totals.
func replayRuns(t *testing.T, src CellSource, inert func(rt.Reactor, []byte) bool) (differ []string, coalesced, setPDs int64) {
	t.Helper()
	var plain, twice scenario.Runner
	twice.Wrap = func(r rt.Reactor) rt.Reactor { return redeliver{r, inert} }
	for i := 0; i < src.Len(); i++ {
		p := src.Cell(i).Params
		c, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Run(c, p.Seed, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := twice.Run(c, p.Seed, false)
		if err != nil {
			t.Fatal(err)
		}
		coalesced += want.Coalesced
		setPDs += want.ByKind[wire.KindSetPDs]
		if got.Coalesced != 0 {
			t.Fatalf("%s: %d sends coalesced to reactors that declare nothing", got.Name, got.Coalesced)
		}
		w := *want
		w.Coalesced = 0
		if !reflect.DeepEqual(*got, w) {
			differ = append(differ, got.Name)
		}
	}
	return differ, coalesced, setPDs
}

// TestReplayInertPayloadsAreInert holds core.Node's declaration (rt.
// ReplayInert: SETPDS) to what the engine's coalescing assumes of it: a
// declared payload delivered a second time changes nothing. Every cell of
// the standard, adversary and probabilistic sweeps must grade to the same
// Result — traffic, timings, verdicts, per-process outcomes, counted tail —
// when each declared payload reaches its recipient twice as when the
// untraced engine leaves replays unqueued. A false declaration, GETPDS as
// well, must show: a GETPDS is answered. The coalescing must also engage:
// on the standard sweep it leaves unqueued at least 40 % of the SETPDS.
func TestReplayInertPayloadsAreInert(t *testing.T) {
	for _, c := range []struct {
		name  string
		sweep func([]int64) (CellSource, error)
	}{
		{"standard", StandardSweep},
		{"adversary", AdversarySweep},
		{"probabilistic", ProbabilisticSweep},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			src, err := c.sweep(Seeds(1, 2))
			if err != nil {
				t.Fatal(err)
			}
			differ, coalesced, setPDs := replayRuns(t, src, declared)
			if len(differ) > 0 {
				t.Errorf("%d of %d cells grade differently with declared payloads delivered twice: %v", len(differ), src.Len(), differ)
			}
			t.Logf("%d cells alike; %d of %d SETPDS coalesced", src.Len(), coalesced, setPDs)
		})
	}
	t.Run("getpds-declared", func(t *testing.T) {
		t.Parallel()
		src, err := StandardSweep(Seeds(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		if differ, _, _ := replayRuns(t, src, getPDsToo); len(differ) == 0 {
			t.Error("GETPDS delivered twice changed no cell's Result: the property cannot see a false declaration")
		}
	})
	t.Run("standard-coalesces", func(t *testing.T) {
		t.Parallel()
		src, err := StandardSweep(Seeds(1, 3))
		if err != nil {
			t.Fatal(err)
		}
		var r scenario.Runner
		var coalesced, setPDs int64
		for i := 0; i < src.Len(); i++ {
			p := src.Cell(i).Params
			comp, err := p.Compile()
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(comp, p.Seed, false)
			if err != nil {
				t.Fatal(err)
			}
			coalesced += res.Coalesced
			setPDs += res.ByKind[wire.KindSetPDs]
			traced, err := r.Run(comp, p.Seed, true)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Coalesced != 0 {
				t.Fatalf("%s: a traced run coalesced %d sends", traced.Name, traced.Coalesced)
			}
		}
		t.Logf("%d of %d SETPDS sends coalesced (%.1f %%)", coalesced, setPDs, 100*float64(coalesced)/float64(setPDs))
		if 10*coalesced < 4*setPDs {
			t.Errorf("%d of %d SETPDS sends coalesced, want at least 40 %%", coalesced, setPDs)
		}
	})
}
