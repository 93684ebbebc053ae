package scenario

import (
	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/discovery"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/sim"
	"github.com/bftcup/bftcup/internal/wire"
)

// The counted tail. Algorithm 1 never stops: every correct process re-sends
// GETPDS to all it knows each period, whether or not anything is left to
// learn, so a cell in which no committee emerges gossips an unchanging state
// up to its horizon, and a decided one through its one-second grace. Once a
// run is quiescent — no pending or future event can change a process's
// state, only the traffic counters — Runner.Run stops simulating and counts
// the traffic the rest of the run would have sent. The run still ends where
// it would (the horizon, or the last decision + 1 s) and its Result reads as
// if the engine had got there.
//
// A run may count its tail when it is untraced (the digest hashes every
// event, so a traced run is the oracle the count is tested against), injects
// no faults, runs sim.Synchronous or sim.PartialSync (checked from GST on),
// runs unhardened discovery in every correct process and has no Byzantine
// process but silent ones. It is quiescent at a discovery-period boundary t
// when
//
//   - every correct node is Settled;
//   - discovery is at its fixpoint: each correct node Holds every correct
//     node it polls;
//   - every pending event is one round timer per correct node, a GETPDS or
//     SETPDS in flight, an event for a silent process, or another timer of a
//     correct node (settled, so a no-op);
//   - no round before the end E sends a GETPDS whose reply may or may not be
//     sent by E: which it is depends on delay draws.
//
// Then node i runs its rounds at τᵢ + k·Period ≤ E, τᵢ its pending timer,
// each a one-byte GETPDS to each of its Polls; a correct recipient answers
// a round sent at s with one SETPDS of its ReplyLen when s + the greatest
// delay ≤ E, and not at all when s + the least delay > E. A GETPDS in flight
// to a correct node due by E is answered once; a SETPDS in flight sends
// nothing. The credit goes to the Result, and Result.CountedFrom records t.

// getPDsLen is the length of a GETPDS: its kind byte alone.
const getPDsLen = 1

// tail is a Runner's scratch for counting a quiescent run's rest; a check
// allocates nothing.
type tail struct {
	// on says the run may count its tail; from is the boundary it did at (0:
	// not yet).
	on   bool
	from sim.Time
	// period is the discovery period; gst the first instant a check may
	// pass; lo and hi bound the delay of a send from then on.
	period, gst, lo, hi sim.Time
	// index maps a process ID to its place in Compiled.ids; nodes holds
	// there its correct node, nil for a silent process; timers the round
	// timer the last check found pending and replies the GETPDS in flight
	// to it due by the end.
	index   model.IDIndex
	nodes   []*core.Node
	timers  []sim.Time
	replies []int64
	// getPDs, setPDs and bytes are what the check that passed counted.
	getPDs, setPDs, bytes int64
}

// arm decides whether this run may count its tail and, if it may, loads the
// run's processes; nodes are its correct nodes by ID.
func (tl *tail) arm(c *Compiled, trace bool, nodes map[model.ID]*core.Node) {
	tl.on, tl.from = false, 0
	if trace || c.Faults.Enabled() || c.Hardened {
		return
	}
	switch net := c.Net.(type) {
	case sim.Synchronous:
		tl.gst = 0
		tl.lo, tl.hi = jitterBounds(net.Delta)
	case sim.PartialSync:
		tl.gst = net.GST
		tl.lo, tl.hi = jitterBounds(net.Delta)
	default:
		return
	}
	for _, bs := range c.Byz {
		if bs.Kind != ByzSilent {
			return
		}
	}
	tl.period = c.Discovery.Period
	if tl.period <= 0 {
		tl.period = discovery.DefaultConfig().Period
	}
	tl.index.Reset()
	tl.nodes = tl.nodes[:0]
	for _, id := range c.ids {
		tl.index.Insert(id)
		n := nodes[id]
		if n != nil && n.Discovery() == nil {
			return // permissioned: no gossip to count
		}
		tl.nodes = append(tl.nodes, n)
	}
	tl.timers = append(tl.timers[:0], make([]sim.Time, len(tl.nodes))...)
	tl.replies = append(tl.replies[:0], make([]int64, len(tl.nodes))...)
	tl.on = true
}

// jitterBounds returns the least and the greatest delay a jittered network
// model draws for the bound d: sim's jitter, after Send's clamp at zero.
func jitterBounds(d sim.Time) (lo, hi sim.Time) {
	if d <= 1 {
		return max(d, 0), max(d, 0)
	}
	return d / 2, d/2 + d/2
}

// drive runs the engine until cond holds or the run ends at end, and reports
// whether cond held. An armed tail pauses the run at each discovery-period
// boundary before end — RunUntil stops only between events, so delivery
// order cannot change — and stops it at the first where it is quiescent,
// its rest up to end counted.
func (r *Runner) drive(cond func() bool, end sim.Time) bool {
	e, tl := r.engine, &r.tail
	if tl.on {
		for t := (max(e.Now(), tl.gst-1)/tl.period + 1) * tl.period; t < end; t += tl.period {
			if e.RunUntil(cond, t) {
				return true
			}
			if tl.quiescent(e, t, end) {
				tl.on, tl.from = false, t
				return false
			}
		}
	}
	return e.RunUntil(cond, end)
}

// quiescent reports whether the run paused at t is quiescent with end as
// its end, and if so leaves in getPDs, setPDs and bytes what its rest sends.
// It leaves early at the first condition that fails.
func (tl *tail) quiescent(e *sim.Engine, t, end sim.Time) bool {
	for _, n := range tl.nodes {
		if n != nil && !n.Settled() {
			return false
		}
	}
	for _, n := range tl.nodes {
		if n == nil {
			continue
		}
		d := n.Discovery()
		for _, id := range d.Polls() {
			if j, ok := tl.index.Lookup(id); ok && tl.nodes[j] != nil && !d.Holds(tl.nodes[j].Discovery()) {
				return false
			}
		}
	}
	clear(tl.timers)
	clear(tl.replies)
	if !e.WalkPending(func(p sim.Pending) bool { return tl.visit(p, end) }) {
		return false
	}
	var getPDs, setPDs, bytes int64
	for i, n := range tl.nodes {
		if n == nil {
			continue
		}
		tau := tl.timers[i]
		if tau == 0 {
			return false // no round timer pending: this node's rounds are not the model's
		}
		d := n.Discovery()
		setPDs += tl.replies[i]
		bytes += tl.replies[i] * int64(d.ReplyLen())
		rounds := tl.rounds(tau, end)
		answered, maybe := tl.rounds(tau, end-tl.hi), tl.rounds(tau, end-tl.lo)
		for _, id := range d.Polls() {
			j, ok := tl.index.Lookup(id)
			if !ok {
				continue // not in the engine: Send drops it uncounted
			}
			getPDs += rounds
			if peer := tl.nodes[j]; peer != nil {
				if answered != maybe {
					return false
				}
				setPDs += answered
				bytes += answered * int64(peer.Discovery().ReplyLen())
			}
		}
	}
	tl.getPDs, tl.setPDs, tl.bytes = getPDs, setPDs, bytes+getPDs*getPDsLen
	return true
}

// visit checks one pending event against the quiescence conditions, noting
// round timers and the GETPDS due by end.
func (tl *tail) visit(p sim.Pending, end sim.Time) bool {
	i, ok := tl.index.Lookup(p.To)
	if !ok {
		return false
	}
	if tl.nodes[i] == nil {
		return true // a silent process does nothing with it
	}
	switch p.Kind {
	case sim.PendingMessage:
		if len(p.Payload) == 0 {
			return false
		}
		switch p.Payload[0] {
		case wire.KindGetPDs:
			if p.At <= end {
				tl.replies[i]++
			}
			return true
		case wire.KindSetPDs:
			return true
		}
		return false
	case sim.PendingTimer:
		if p.Tag != discovery.TimerTag {
			return true // the node is settled: its other timers are no-ops
		}
		if tl.timers[i] != 0 {
			return false
		}
		tl.timers[i] = p.At
		return true
	}
	return false
}

// rounds counts the rounds at tau, tau + period, … that are due by x.
func (tl *tail) rounds(tau, x sim.Time) int64 {
	if x < tau {
		return 0
	}
	return int64((x-tau)/tl.period) + 1
}

// credit adds a counted tail's traffic to res.
func (tl *tail) credit(res *Result) {
	res.CountedFrom = tl.from
	res.Messages += tl.getPDs + tl.setPDs
	res.Bytes += tl.bytes
	if tl.getPDs > 0 {
		res.ByKind[wire.KindGetPDs] += tl.getPDs
	}
	if tl.setPDs > 0 {
		res.ByKind[wire.KindSetPDs] += tl.setPDs
	}
}
