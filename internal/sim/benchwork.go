package sim

import (
	"fmt"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// Workload is a synthetic, engine-dominated traffic pattern used by the
// hot-path benchmarks (BenchmarkEngine) and by the sim.ring64 kernel of
// bench/kernels.go. Reactors do no protocol work — every cycle is engine
// overhead (event queue, delivery, RNG, metrics) — so events/sec measured over a Workload tracks the
// simulator core, not the protocols running on it.
type Workload struct {
	// Procs is the process count (ring size). Default 16.
	Procs int
	// Tokens is the number of messages circulating the ring concurrently.
	// Default Procs.
	Tokens int
	// Fanout is how many copies each delivery forwards. 1 keeps the event
	// volume constant (unicast ring); >1 exercises the broadcast path with
	// geometric damping (forwarding stops at the horizon). Default 1.
	Fanout int
	// PayloadBytes sizes each message body. Default 64.
	PayloadBytes int
	// Horizon bounds the run in virtual time. Default 10 virtual seconds.
	Horizon Time
	// Seed feeds the engine RNG. Default 1.
	Seed int64
}

func (w Workload) withDefaults() Workload {
	if w.Procs <= 0 {
		w.Procs = 16
	}
	if w.Tokens <= 0 {
		w.Tokens = w.Procs
	}
	if w.Fanout <= 0 {
		w.Fanout = 1
	}
	if w.PayloadBytes <= 0 {
		w.PayloadBytes = 64
	}
	if w.Horizon <= 0 {
		w.Horizon = 10 * Second
	}
	if w.Seed == 0 {
		w.Seed = 1
	}
	return w
}

// workloadReactor answers every delivery by sending its own payload slice —
// the same one every time, the way a broadcast or a cached reply is sent — to
// its next Fanout successors on the ring. It also arms one periodic timer to
// keep timer events in the mix.
type workloadReactor struct {
	peers   []model.ID
	next    int
	fanout  int
	tokens  int // messages this reactor originates at Init
	payload []byte
}

const workloadTimerPeriod = 100 * Millisecond

func (r *workloadReactor) forward(ctx rt.Context) {
	for i := 0; i < r.fanout; i++ {
		ctx.Send(r.peers[r.next%len(r.peers)], r.payload)
		r.next++
	}
}

func (r *workloadReactor) Init(ctx rt.Context) {
	for i := 0; i < r.tokens; i++ {
		r.forward(ctx)
	}
	ctx.SetTimer(workloadTimerPeriod, 1)
}

func (r *workloadReactor) Receive(ctx rt.Context, _ model.ID, _ []byte) {
	r.forward(ctx)
}

func (r *workloadReactor) Timer(ctx rt.Context, tag uint64) {
	ctx.SetTimer(workloadTimerPeriod, tag)
}

// RunWorkload executes the workload on a fresh engine and returns the number
// of messages sent (≈ events delivered; the deterministic measure the
// benchmarks divide by wall-clock time).
func RunWorkload(w Workload) (int64, error) {
	w = w.withDefaults()
	engine := NewEngine(Synchronous{Delta: 5 * Millisecond}, w.Seed)
	peers := make([]model.ID, w.Procs)
	for i := range peers {
		peers[i] = model.ID(i + 1)
	}
	payload := make([]byte, w.PayloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	perProc := w.Tokens / w.Procs
	extra := w.Tokens % w.Procs
	for i, id := range peers {
		tokens := perProc
		if i < extra {
			tokens++
		}
		r := &workloadReactor{
			peers:   []model.ID{peers[(i+1)%w.Procs], peers[(i+2)%w.Procs], peers[(i+3)%w.Procs]},
			fanout:  w.Fanout,
			tokens:  tokens,
			payload: payload,
		}
		if err := engine.AddProcess(id, r); err != nil {
			return 0, fmt.Errorf("sim workload: %w", err)
		}
	}
	engine.Run(w.Horizon)
	return engine.Metrics().Messages, nil
}
