package main

import (
	"math/rand"
	"time"

	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/discovery"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/pbft"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/wire"
)

// The traced pass measures every layer from outside, by wrapping the values
// a node is built from: its reactor (one span per Init/Receive/Timer
// callback, classed by message kind or timer tag), its rt.Context (Send and
// SetTimer are the runtime's share of a callback), its signer and verifier,
// and its sink/core search. Child spans never nest in each other — a search
// sends nothing, a signature searches nothing — so a callback's self time is
// its duration minus the child spans inside it.

// layer indexes the span classes of the traced pass.
type layer int

const (
	layerDispatch  layer = iota // sim: event heap, delivery, cond checks (RunUntil minus callbacks)
	layerSend                   // sim / netrt: Context.Send
	layerSetTimer               // sim / netrt: Context.SetTimer
	layerDiscovery              // GETPDS/SETPDS callbacks, the discovery timer, Init
	layerPBFT                   // committee-consensus callbacks and view timers
	layerCore                   // GETDECIDEDVAL/DECIDEDVAL callbacks and the poll timer
	layerCryptox                // Sign, Verify, VerifyBatch, key generation
	layerKOSR                   // FindSinkKnownF / FindCore / FindNaive
	layerScenario               // per-cell set-up and grading (cell wall minus RunUntil)
	numLayers
)

var layerNames = [numLayers]string{
	"sim.dispatch", "sim.send", "sim.settimer", "discovery", "pbft", "core", "cryptox", "kosr", "scenario",
}

// tracer accumulates the spans and counts of one cell (simulator) or of one
// node in one round (live). It is used from one goroutine only: the
// simulator is single-threaded and a live node serializes its callbacks.
type tracer struct {
	base  time.Time
	self  [numLayers]int64 // ns of self time per layer
	count [numLayers]int64 // spans per layer

	inCallback bool
	child      int64 // ns of child spans inside the current callback
	cur        layer // class of the current callback
	callbacks  int64 // ns of callbacks, children included
	outside    int64 // ns of child spans outside any callback (node construction)

	sentBytes     [numLayers]int64 // payload bytes sent, by the layer that owns the kind
	sentMsgs      [numLayers]int64
	setpdsRecords int64 // records carried by delivered SETPDS
	freshRecords  int64 // records handed to VerifyBatch inside discovery callbacks
	verifySigs    int64
	verifyCalls   int64
	verifyNS      int64
	signs         int64
	signNS        int64
	searches      int64
	found         int64
	searchNS      int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// span books one child span (Send, Sign, a search, …) that started at start.
func (t *tracer) span(l layer, start int64) int64 {
	d := t.now() - start
	t.self[l] += d
	t.count[l]++
	if t.inCallback {
		t.child += d
	} else {
		t.outside += d
	}
	return d
}

// add folds another tracer's totals into t (cells into a block, nodes into a
// round).
func (t *tracer) add(o *tracer) {
	for l := range t.self {
		t.self[l] += o.self[l]
		t.count[l] += o.count[l]
		t.sentBytes[l] += o.sentBytes[l]
		t.sentMsgs[l] += o.sentMsgs[l]
	}
	t.callbacks += o.callbacks
	t.outside += o.outside
	t.setpdsRecords += o.setpdsRecords
	t.freshRecords += o.freshRecords
	t.verifySigs += o.verifySigs
	t.verifyCalls += o.verifyCalls
	t.verifyNS += o.verifyNS
	t.signs += o.signs
	t.signNS += o.signNS
	t.searches += o.searches
	t.found += o.found
	t.searchNS += o.searchNS
}

// kindLayer maps a payload's leading kind byte to the layer that owns it.
func kindLayer(kind byte) layer {
	switch kind {
	case wire.KindGetPDs, wire.KindSetPDs:
		return layerDiscovery
	case wire.KindPrePrepare, wire.KindPrepare, wire.KindCommit,
		wire.KindViewChange, wire.KindNewView, wire.KindDecideNote:
		return layerPBFT
	default:
		return layerCore
	}
}

// timerLayer maps a timer tag to the layer that set it.
func timerLayer(tag uint64) layer {
	if tag == discovery.TimerTag {
		return layerDiscovery
	}
	if _, ok := pbft.SlotOfTag(tag); ok {
		return layerPBFT
	}
	return layerCore
}

// tracedReactor wraps one process's reactor.
type tracedReactor struct {
	inner rt.Reactor
	t     *tracer
	ctx   tracedCtx
}

func newTracedReactor(inner rt.Reactor, t *tracer) *tracedReactor {
	r := &tracedReactor{inner: inner, t: t}
	r.ctx.t = t
	return r
}

func (r *tracedReactor) enter(ctx rt.Context, l layer) int64 {
	r.ctx.inner = ctx
	r.t.cur, r.t.child, r.t.inCallback = l, 0, true
	return r.t.now()
}

func (r *tracedReactor) leave(l layer, start int64) {
	t := r.t
	total := t.now() - start
	t.self[l] += total - t.child
	t.count[l]++
	t.callbacks += total
	t.inCallback = false
}

// Init implements rt.Reactor. A node's Init starts its discovery round and
// runs the first search, so it is classed with discovery.
func (r *tracedReactor) Init(ctx rt.Context) {
	start := r.enter(ctx, layerDiscovery)
	r.inner.Init(&r.ctx)
	r.leave(layerDiscovery, start)
}

// Restart implements rt.Restartable with the engine's own fallback: a
// reactor that cannot resume is re-initialized.
func (r *tracedReactor) Restart(ctx rt.Context) {
	start := r.enter(ctx, layerDiscovery)
	if rs, ok := r.inner.(rt.Restartable); ok {
		rs.Restart(&r.ctx)
	} else {
		r.inner.Init(&r.ctx)
	}
	r.leave(layerDiscovery, start)
}

// Receive implements rt.Reactor.
func (r *tracedReactor) Receive(ctx rt.Context, from model.ID, payload []byte) {
	l := layerCore
	if len(payload) > 0 {
		l = kindLayer(payload[0])
		if payload[0] == wire.KindSetPDs {
			// The record count is the payload's first field.
			rd := wire.NewReader(payload[1:])
			if n := rd.Uvarint(); rd.Err() == nil {
				r.t.setpdsRecords += int64(n)
			}
		}
	}
	start := r.enter(ctx, l)
	r.inner.Receive(&r.ctx, from, payload)
	r.leave(l, start)
}

// Timer implements rt.Reactor.
func (r *tracedReactor) Timer(ctx rt.Context, tag uint64) {
	l := timerLayer(tag)
	start := r.enter(ctx, l)
	r.inner.Timer(&r.ctx, tag)
	r.leave(l, start)
}

// tracedCtx wraps the runtime context handed to one process's callbacks.
type tracedCtx struct {
	inner rt.Context
	t     *tracer
}

func (c *tracedCtx) ID() model.ID { return c.inner.ID() }
func (c *tracedCtx) Now() rt.Time { return c.inner.Now() }

func (c *tracedCtx) Send(to model.ID, payload []byte) {
	start := c.t.now()
	c.inner.Send(to, payload)
	c.t.span(layerSend, start)
	if len(payload) > 0 {
		l := kindLayer(payload[0])
		c.t.sentMsgs[l]++
		c.t.sentBytes[l] += int64(len(payload))
	}
}

func (c *tracedCtx) SetTimer(d rt.Time, tag uint64) {
	start := c.t.now()
	c.inner.SetTimer(d, tag)
	c.t.span(layerSetTimer, start)
}

func (c *tracedCtx) Rand() *rand.Rand { return c.inner.Rand() }

// tracedSigner wraps one process's signer.
type tracedSigner struct {
	inner cryptox.Signer
	t     *tracer
}

func (s *tracedSigner) ID() model.ID { return s.inner.ID() }

func (s *tracedSigner) Sign(msg []byte) []byte {
	start := s.t.now()
	sig := s.inner.Sign(msg)
	s.t.signNS += s.t.span(layerCryptox, start)
	s.t.signs++
	return sig
}

// tracedVerifier wraps the registry as seen by one process. It implements
// cryptox.BatchVerifier so discovery's batch path stays a batch.
type tracedVerifier struct {
	inner cryptox.Verifier
	t     *tracer
}

func (v *tracedVerifier) Verify(signer model.ID, msg, sig []byte) bool {
	start := v.t.now()
	ok := v.inner.Verify(signer, msg, sig)
	v.t.verifyNS += v.t.span(layerCryptox, start)
	v.t.verifySigs++
	v.t.verifyCalls++
	return ok
}

func (v *tracedVerifier) VerifyBatch(reqs []cryptox.BatchRequest) []bool {
	start := v.t.now()
	out := cryptox.VerifyBatch(v.inner, reqs)
	v.t.verifyNS += v.t.span(layerCryptox, start)
	v.t.verifySigs += int64(len(reqs))
	v.t.verifyCalls++
	if v.t.inCallback && v.t.cur == layerDiscovery {
		v.t.freshRecords += int64(len(reqs))
	}
	return out
}

// tracedSearch wraps one process's sink/core search engine.
type tracedSearch struct {
	inner kosr.Search
	t     *tracer
}

func (s *tracedSearch) done(start int64, ok bool) {
	s.t.searchNS += s.t.span(layerKOSR, start)
	s.t.searches++
	if ok {
		s.t.found++
	}
}

func (s *tracedSearch) FindSinkKnownF(v *kosr.View, f int) (kosr.Candidate, bool) {
	start := s.t.now()
	c, ok := s.inner.FindSinkKnownF(v, f)
	s.done(start, ok)
	return c, ok
}

func (s *tracedSearch) FindCore(v *kosr.View) (kosr.Candidate, bool) {
	start := s.t.now()
	c, ok := s.inner.FindCore(v)
	s.done(start, ok)
	return c, ok
}

func (s *tracedSearch) FindNaive(v *kosr.View) (kosr.Candidate, bool) {
	start := s.t.now()
	c, ok := s.inner.FindNaive(v)
	s.done(start, ok)
	return c, ok
}
