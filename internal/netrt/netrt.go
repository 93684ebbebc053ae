// Package netrt implements the rt runtime over real network transports: the
// same core.Node/discovery/pbft/rrbcast stack the deterministic simulator
// drives runs here over length-prefixed wire-codec frames on TCP (or any
// net.Conn, e.g. net.Pipe in tests), with monotonic-clock timers and graceful
// shutdown via context.
//
// Each Node owns one event-loop goroutine that serializes all reactor
// callbacks (the rt contract), one reconnecting outbound stream per peer, and
// one reader goroutine per inbound connection. Streams carry a hello frame
// (the dialer's ID) followed by payload frames; a broken stream is redialed
// with backoff while the node's context is alive.
//
// What netrt may and may not reorder: frames on one healthy stream arrive in
// send order (TCP), but a reconnect drops whatever was queued or in flight —
// so cross-reconnect ordering is undefined, exactly like the simulator's
// lossy models. Messages to different peers are independent streams and may
// arrive in any relative order, like the simulator's per-message delay draws.
// The optional Delay hook deliberately reintroduces per-message reordering so
// the simulator's network models can be mirrored live. What netrt never does
// is deliver a frame it did not receive in full, deliver to a stopped node,
// or call one reactor from two goroutines.
package netrt

import (
	"bufio"
	"context"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// envelope is one mailbox item: either a message or a timer firing.
type envelope struct {
	isTimer bool
	tag     uint64
	from    model.ID
	payload []byte
}

// mailbox is an unbounded MPSC queue feeding the event loop. Unboundedness
// matters: a bounded inbox deadlocks when two nodes block sending to each
// other.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []envelope
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) push(e envelope) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.queue = append(m.queue, e)
	m.cond.Signal()
}

func (m *mailbox) pop() (envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.queue) == 0 {
		return envelope{}, false
	}
	e := m.queue[0]
	m.queue = m.queue[1:]
	return e, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

// timerRef pairs a timer with a fired flag so compaction can drop completed
// timers without racing their callbacks.
type timerRef struct {
	t    *time.Timer
	done atomic.Bool
}

// Config parameterizes one Node.
type Config struct {
	// ID is this node's process identity (sent in the hello frame).
	ID model.ID
	// Peers are the processes this node maintains outbound streams to.
	// Sends to IDs outside this set silently drop (the rt contract).
	Peers []model.ID
	// Dial opens a connection to a peer. Required. Called from the per-peer
	// sender goroutine, re-called with backoff after any stream failure.
	Dial func(ctx context.Context, peer model.ID) (net.Conn, error)
	// Seed seeds the node-local RNG; 0 derives a per-ID default.
	Seed int64
	// MaxFrame caps inbound frame sizes; 0 means MaxFrame.
	MaxFrame int
	// QueueLen bounds each peer's outbound queue; a full queue drops the
	// message (fire-and-forget, like the simulator's lossy links) and counts
	// it in Dropped. 0 means 1024.
	QueueLen int
	// RedialBackoff is the initial redial delay after a failed dial or a
	// broken stream, doubling up to 64x. 0 means 5ms.
	RedialBackoff time.Duration
	// Delay, when non-nil, holds each outbound message back by the returned
	// duration before it enters the peer's stream queue — an artificial
	// latency hook that lets tests mirror the simulator's network models
	// (including their deliberate reordering) over real connections.
	Delay func(to model.ID, now rt.Time) rt.Time
}

// Node runs one reactor over real connections.
type Node struct {
	cfg     Config
	reactor rt.Reactor
	box     *mailbox
	rng     *rand.Rand
	start   time.Time

	ctx     context.Context
	cancel  context.CancelFunc
	startMu sync.Mutex
	started atomic.Bool
	wg      sync.WaitGroup

	peers map[model.ID]chan []byte // one outbound stream queue per peer

	timerMu sync.Mutex
	timers  []*timerRef
	dead    bool

	messages atomic.Int64
	bytes    atomic.Int64
	dropped  atomic.Int64
}

// offer enqueues b on a peer's queue without blocking; a full queue drops
// the message and counts it.
func (n *Node) offer(q chan<- []byte, b []byte) {
	select {
	case q <- b:
	default:
		n.dropped.Add(1)
	}
}

// NewNode creates a node; Start launches it.
func NewNode(cfg Config, r rt.Reactor) *Node {
	if cfg.Seed == 0 {
		cfg.Seed = int64(cfg.ID) + 1
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 1024
	}
	if cfg.RedialBackoff <= 0 {
		cfg.RedialBackoff = 5 * time.Millisecond
	}
	n := &Node{
		cfg:     cfg,
		reactor: r,
		box:     newMailbox(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		peers:   make(map[model.ID]chan []byte),
	}
	for _, p := range cfg.Peers {
		if p == cfg.ID {
			continue
		}
		n.peers[p] = make(chan []byte, cfg.QueueLen)
	}
	return n
}

// Start launches the event loop (which runs the reactor's Init) and one
// sender goroutine per peer. The node shuts down when ctx is cancelled or
// Stop is called.
func (n *Node) Start(ctx context.Context) {
	n.startMu.Lock()
	defer n.startMu.Unlock()
	if n.started.Load() {
		return
	}
	n.ctx, n.cancel = context.WithCancel(ctx)
	n.start = time.Now()
	n.wg.Add(1)
	go n.loop()
	for p, q := range n.peers {
		n.wg.Add(1)
		go n.sender(p, q)
	}
	// Context cancellation is the graceful-shutdown path: reap everything.
	go func() {
		<-n.ctx.Done()
		n.shutdown()
	}()
	// Published last: a Started() observer (the pipe dialer handing us a
	// conn) must see the fields written above.
	n.started.Store(true)
}

// Started reports whether Start has run (and the node can accept
// connections).
func (n *Node) Started() bool { return n.started.Load() }

// Stop shuts the node down and waits for all its goroutines to exit. Safe to
// call more than once, and equivalent to cancelling the Start context.
func (n *Node) Stop() {
	if !n.started.Load() {
		return
	}
	n.cancel()
	n.wg.Wait()
}

// shutdown stops timers and closes the mailbox so the event loop drains out.
func (n *Node) shutdown() {
	n.timerMu.Lock()
	n.dead = true
	for _, r := range n.timers {
		r.t.Stop()
	}
	n.timers = nil
	n.timerMu.Unlock()
	n.box.close()
}

// Messages returns the number of accepted outbound sends so far.
func (n *Node) Messages() int64 { return n.messages.Load() }

// Bytes returns the payload bytes of accepted outbound sends so far.
func (n *Node) Bytes() int64 { return n.bytes.Load() }

// Dropped returns how many accepted sends were discarded so far because the
// peer's outbound queue (Config.QueueLen) was full.
func (n *Node) Dropped() int64 { return n.dropped.Load() }

// Serve accepts inbound connections on ln until the node's context ends
// (which also closes the listener). Must be called after Start.
func (n *Node) Serve(ln net.Listener) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		stop := context.AfterFunc(n.ctx, func() { ln.Close() })
		defer stop()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			n.ServeConn(c)
		}
	}()
}

// ServeConn adopts one inbound connection: it reads the hello frame to learn
// the sender, then feeds every payload frame to the reactor. The connection
// is closed when the stream errors or the node's context ends. Must be
// called after Start.
func (n *Node) ServeConn(c net.Conn) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer c.Close()
		stop := context.AfterFunc(n.ctx, func() { c.Close() })
		defer stop()
		n.readLoop(c)
	}()
}

// readLoop drains one inbound stream into the mailbox. Any framing error —
// truncated frame, oversized length prefix, mid-frame disconnect — kills the
// connection; the dialing side is responsible for reconnecting.
func (n *Node) readLoop(c net.Conn) {
	br := bufio.NewReader(c)
	hello, err := ReadFrame(br, nil, n.cfg.MaxFrame)
	if err != nil {
		return
	}
	from, err := decodeHello(hello)
	if err != nil || from == n.cfg.ID {
		return
	}
	for {
		// No buffer reuse: each frame gets a slice of its own, which the
		// reactor may keep (the rt payload contract).
		payload, err := ReadFrame(br, nil, n.cfg.MaxFrame)
		if err != nil {
			return
		}
		n.box.push(envelope{from: from, payload: payload})
	}
}

// sender maintains one peer's outbound stream: dial, hello, write frames,
// redial with backoff on any failure, until the node's context ends. Queued
// messages lost to a broken stream stay lost — the runtime is fire-and-forget
// and retransmission is the protocol's job.
func (n *Node) sender(p model.ID, q <-chan []byte) {
	defer n.wg.Done()
	backoff := n.cfg.RedialBackoff
	for n.ctx.Err() == nil {
		conn, err := n.cfg.Dial(n.ctx, p)
		if err != nil || conn == nil {
			select {
			case <-n.ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff < 64*n.cfg.RedialBackoff {
				backoff *= 2
			}
			continue
		}
		backoff = n.cfg.RedialBackoff
		n.writeLoop(conn, q)
		conn.Close()
	}
}

// writeLoop pumps the queue onto one healthy connection, batching frames
// that are already queued behind a single flush. Returns on any write error
// or context end.
func (n *Node) writeLoop(conn net.Conn, q <-chan []byte) {
	stop := context.AfterFunc(n.ctx, func() { conn.Close() })
	defer stop()
	bw := bufio.NewWriter(conn)
	if err := WriteFrame(bw, encodeHello(n.cfg.ID)); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	for {
		select {
		case <-n.ctx.Done():
			return
		case payload := <-q:
			if err := WriteFrame(bw, payload); err != nil {
				return
			}
		drain:
			for {
				select {
				case more := <-q:
					if err := WriteFrame(bw, more); err != nil {
						return
					}
				default:
					break drain
				}
			}
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// loop is the node's event loop: it serializes Init/Receive/Timer, honoring
// the rt single-threaded reactor contract.
func (n *Node) loop() {
	defer n.wg.Done()
	ctx := &nodeCtx{n: n}
	n.reactor.Init(ctx)
	for {
		e, ok := n.box.pop()
		if !ok {
			return
		}
		if e.isTimer {
			n.reactor.Timer(ctx, e.tag)
		} else {
			n.reactor.Receive(ctx, e.from, e.payload)
		}
	}
}

func (n *Node) trackTimer(ref *timerRef) {
	n.timerMu.Lock()
	defer n.timerMu.Unlock()
	if n.dead {
		ref.t.Stop()
		return
	}
	n.timers = append(n.timers, ref)
	// Compact occasionally so long runs do not accumulate fired timers.
	if len(n.timers) > 1024 {
		live := n.timers[:0]
		for _, r := range n.timers {
			if !r.done.Load() {
				live = append(live, r)
			}
		}
		n.timers = live
	}
}

// nodeCtx implements rt.Context over the node's real clock, RNG and streams.
type nodeCtx struct {
	n *Node
}

func (c *nodeCtx) ID() model.ID { return c.n.cfg.ID }

func (c *nodeCtx) Now() rt.Time { return rt.Time(time.Since(c.n.start)) }

func (c *nodeCtx) Rand() *rand.Rand { return c.n.rng }

func (c *nodeCtx) Send(to model.ID, payload []byte) {
	n := c.n
	q, ok := n.peers[to]
	if !ok || to == n.cfg.ID {
		return
	}
	n.messages.Add(1)
	n.bytes.Add(int64(len(payload)))
	// No copy: rt hands payload over, and nobody writes to it again.
	if n.cfg.Delay != nil {
		if d := n.cfg.Delay(to, rt.Time(time.Since(n.start))); d > 0 {
			ref := &timerRef{}
			ref.t = time.AfterFunc(time.Duration(d), func() {
				ref.done.Store(true)
				n.offer(q, payload)
			})
			n.trackTimer(ref)
			return
		}
	}
	n.offer(q, payload)
}

func (c *nodeCtx) SetTimer(d rt.Time, tag uint64) {
	if d < 0 {
		d = 0
	}
	n := c.n
	ref := &timerRef{}
	ref.t = time.AfterFunc(time.Duration(d), func() {
		ref.done.Store(true)
		n.box.push(envelope{isTimer: true, tag: tag})
	})
	n.trackTimer(ref)
}
