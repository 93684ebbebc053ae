package sim

import (
	"testing"

	"github.com/bftcup/bftcup/internal/model"
)

// ringDigest drives the runRingOn ring (8 processes, fan-out 2, one token
// each, the 100 ms workload timer) on a fresh engine to the given horizon and
// returns the trace digest and the number of events folded into it.
func ringDigest(t *testing.T, net NetworkModel, seed int64, horizon Time, prepare func(*Engine)) (string, int64) {
	t.Helper()
	e := NewEngine(net, seed)
	tr := NewTrace()
	e.SetTrace(tr)
	addRing(t, e)
	if prepare != nil {
		prepare(e)
	}
	e.Run(horizon)
	return tr.Digest(), tr.Events()
}

// TestEngineTraceGoldens pins the engine's delivery order where it is
// produced. The digests were captured at the last commit whose queue was the
// plain binary heap on (at, seq) — the order the package documents — under
// one network model per delay regime the queue meets: a jittered Δ band, a
// pre-GST slow link class piling up at GST, all-ties far-future growth,
// loss/dup/reorder with a scheduled crash and restart, and every link slow
// until a GST 2 s out (captured at the last commit with the overflow heap
// behind a single wheel, before the far wheel was added). A queue change that
// reorders two events fails here in milliseconds, not a minute later in
// internal/matrix's sweep anchors.
func TestEngineTraceGoldens(t *testing.T) {
	left := model.NewIDSet(1, 2, 3, 4)
	right := model.NewIDSet(5, 6, 7, 8)
	cases := []struct {
		name    string
		net     NetworkModel
		seed    int64
		horizon Time
		prepare func(*Engine)
		digest  string
		events  int64
	}{
		{
			name: "synchronous", net: Synchronous{Delta: 5 * Millisecond}, seed: 42, horizon: 50 * Millisecond,
			digest: "fd6f5bb20ed02bb308a23b11a85edd7c283176c2d915f4c01f95348432a3948a", events: 141329,
		},
		{
			name: "partial-sync-slow-groups",
			net:  PartialSync{GST: 200 * Millisecond, Delta: 16 * Millisecond, Slow: SlowBetweenGroups(left, right)},
			seed: 43, horizon: 320 * Millisecond,
			digest: "5d846a841016a8fbe4294b0c4437850e73970b688d99559a54dc4a07fb54452f", events: 26453,
		},
		{
			name: "async-adversarial", net: AsyncAdversarial{Delta: 30 * Millisecond, Factor: 3}, seed: 44, horizon: 10 * Second,
			digest: "62f10a3b5bb3bb68379a3d639227771574d050ecf33d23cffd876ea6b98edcc4", events: 1296,
		},
		{
			name: "faulty-crash-restart",
			net:  FaultyNetwork{Base: Synchronous{Delta: 5 * Millisecond}, Loss: 0.1, Dup: 0.1, Reorder: 3 * Millisecond},
			seed: 45, horizon: 50 * Millisecond,
			prepare: func(e *Engine) {
				e.ScheduleCrash(3, 20*Millisecond)
				e.ScheduleRestart(3, 35*Millisecond, nil)
			},
			digest: "30308f51e96be0eeb0b4c74d5ee71eb5f4794012e6db8f073fb020bc79d7028d", events: 5897,
		},
		{
			// The standard sweep's partial regime: every send before GST is
			// parked about 2 s ahead and the backlog lands in one Δ band.
			name: "partial-sync-all-slow-gst-2s",
			net:  PartialSync{GST: 2 * Second, Delta: 5 * Millisecond, Slow: func(model.ID, model.ID) bool { return true }},
			seed: 46, horizon: 2*Second + 30*Millisecond,
			digest: "12067d4473c0f97c00bd87e982642079cf1249c3b6aecbce1facbc667bb10689", events: 3335,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			digest, events := ringDigest(t, tc.net, tc.seed, tc.horizon, tc.prepare)
			if digest != tc.digest || events != tc.events {
				t.Fatalf("delivery order drifted: digest %s over %d events, want %s over %d", digest, events, tc.digest, tc.events)
			}
		})
	}
}
