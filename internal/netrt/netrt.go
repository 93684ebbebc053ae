// Package netrt implements the rt runtime over real network transports: the
// same reactors the deterministic simulator drives (core.Node with its
// discovery and pbft layers, and the Byzantine zoo) run here over
// length-prefixed wire-codec frames on TCP (or any net.Conn, e.g. net.Pipe in
// tests), with monotonic-clock timers and graceful shutdown via context.
//
// Each Node owns one event-loop goroutine that serializes all reactor
// callbacks (the rt contract) and, per peer, one bounded outbound queue, one
// writer goroutine and one reader goroutine. Two processes share ONE duplex
// stream, and who brings it up is fixed by their IDs:
//
//   - The lower ID dials (Config.Dial) and sends a hello frame — its own ID —
//     before anything else. It writes its queue to the connection it dialed and
//     reads the peer's frames from the same connection. When the stream breaks
//     (a write fails, or its reader sees the end), it waits redialBackoff and
//     dials again; a dial that fails doubles the wait, up to 64x.
//   - The higher ID never dials. Its acceptor (Serve/ServeConn) reads the
//     hello, checks that the claimed ID is a configured peer below its own,
//     hands the connection to its writer for that peer and keeps reading
//     frames from it. While no stream is adopted the writer sleeps and sends
//     pile up in the queue (at most queueLen; the rest drop and are counted).
//     A second stream from the same peer replaces the first, which is closed:
//     the peer redialed, so the old one is dead whether or not this side has
//     noticed.
//
// An inbound stream that opens with anything else — no decodable hello, an ID
// outside Config.Peers, this node's own ID, an ID that should be accepting
// our dial instead — whose hello does not arrive within helloTimeout, or that
// later announces a frame over the limit is closed and counted in Rejected.
// The hello is not authenticated. What a forged one buys is what a lossy
// link already could do: frames attributed to the claimed ID (protocol
// messages are signed, so they fail upstream exactly as they did when each
// direction had a stream of its own), and, new with the shared stream, this
// node's frames for that ID going to the forger until the real peer — whose
// displaced connection was closed under it — redials and displaces the
// forger in turn. That is message loss, which the fire-and-forget contract
// already allows; it is not impersonation.
//
// What netrt may and may not reorder: frames on one healthy stream arrive in
// send order (TCP), but a reconnect drops whatever was in flight — so
// cross-reconnect ordering is undefined, exactly like the simulator's lossy
// models. Messages to different peers are independent streams and may arrive
// in any relative order, like the simulator's per-message delay draws. The
// optional Delay hook deliberately reintroduces per-message reordering so the
// simulator's network models can be mirrored live. What netrt never does is
// deliver a frame it did not receive in full, deliver to a stopped node, or
// call one reactor from two goroutines.
//
// A node with a Delay hook holds its delayed sends in one delay line: a
// min-heap of (due, peer, payload) drained by one goroutine, which a Linux
// timerfd in the netpoller wakes when the earliest item falls due. An item
// enters its peer's queue no earlier than its draw, as the slice that was
// sent; what is still held at shutdown is dropped. A runtime timer per send
// would do the same, but Go's poller rounds every sub-millisecond wait up to
// a millisecond, so about half of RunLive's 0.25–0.5 ms link delays arrived
// a millisecond late. Protocol timers (SetTimer) stay runtime timers:
// moving them onto the line as well sped the protocol's periodic traffic up
// by more than a quarter in messages and bytes per live round, for no
// further gain in decide latency.
package netrt

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
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

// take blocks until something is queued and returns all of it, in push
// order. spare is the batch the caller got last time and is done with: it is
// wiped and becomes the queue's next backing array, so two arrays alternate,
// neither grows past the largest backlog met, and neither keeps a delivered
// payload reachable. A closed mailbox hands out what was queued before the
// close and then reports false.
func (m *mailbox) take(spare []envelope) ([]envelope, bool) {
	clear(spare)
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.queue) == 0 {
		return nil, false
	}
	batch := m.queue
	m.queue = spare[:0]
	return batch, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

// peer is this node's end of the stream it shares with one other process:
// the bounded outbound queue and the connection that currently carries the
// pair. gen numbers the connections the pair has had, so a reader or writer
// that outlives its connection cannot take down the one that replaced it.
type peer struct {
	id model.ID

	mu sync.Mutex
	// wake is where the writer, its only waiter, sleeps: signalled on a
	// push, on any change of conn and on close.
	wake   sync.Cond
	queue  [][]byte
	conn   net.Conn // nil while no stream is up
	gen    uint64
	closed bool
}

func newPeer(id model.ID) *peer {
	p := &peer{id: id}
	p.wake.L = &p.mu
	return p
}

// offer queues b for the writer and reports false when the queue is at its
// bound. The queue's array grows with the backlog it actually meets.
func (p *peer) offer(b []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) >= queueLen {
		return false
	}
	p.queue = append(p.queue, b)
	p.wake.Signal()
	return true
}

// up makes c the pair's stream and returns its generation and the connection
// it displaced, if any, which the caller closes.
func (p *peer) up(c net.Conn) (gen uint64, displaced net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	displaced = p.conn
	p.conn = c
	p.gen++
	p.wake.Signal()
	return p.gen, displaced
}

// down records that the stream of generation gen has failed; a no-op when a
// later one is already up.
func (p *peer) down(gen uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gen == gen && p.conn != nil {
		p.conn = nil
		p.wake.Signal()
	}
}

// await blocks until a stream is up and returns it; ok is false once the
// node is shutting down.
func (p *peer) await() (c net.Conn, gen uint64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.conn == nil && !p.closed {
		p.wake.Wait()
	}
	return p.conn, p.gen, !p.closed
}

// take blocks until frames are queued for the stream of generation gen and
// returns all of them; spare, the batch the caller got last time, is wiped
// and becomes the queue's next backing array (as in mailbox.take). It reports
// false once that stream is no longer the pair's, or the node is shutting
// down.
func (p *peer) take(gen uint64, spare [][]byte) ([][]byte, bool) {
	clear(spare)
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 && p.gen == gen && p.conn != nil && !p.closed {
		p.wake.Wait()
	}
	if p.gen != gen || p.conn == nil || p.closed {
		return spare, false
	}
	batch := p.queue
	p.queue = spare[:0]
	return batch, true
}

func (p *peer) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.wake.Signal()
}

// queueLen bounds each peer's outbound queue; a full queue drops the message
// (fire-and-forget, like the simulator's lossy links) and counts it in
// Dropped.
const queueLen = 1024

// redialBackoff is the wait before redialing a broken stream, and the initial
// wait after a failed dial, which doubles up to 64x.
const redialBackoff = 5 * time.Millisecond

// helloTimeout is how long an accepted stream may take to deliver its hello.
// A dialer that stays silent longer is closed and counted in Rejected, so it
// cannot hold a reader goroutine and its buffer until shutdown.
const helloTimeout = 3 * time.Second

// Config parameterizes one Node.
type Config struct {
	// ID is this node's process identity (sent in the hello frame).
	ID model.ID
	// Peers are the processes this node shares a stream with: it dials those
	// with a higher ID and accepts the dial of those with a lower one. Sends
	// to IDs outside this set silently drop (the rt contract); a stream
	// whose hello claims one is refused and counted in Rejected.
	Peers []model.ID
	// Dial opens a connection to a peer. Required. Called from the peer's
	// writer goroutine, for peers with a higher ID only, and re-called with
	// backoff after any stream failure.
	Dial func(ctx context.Context, peer model.ID) (net.Conn, error)
	// Seed is the run's seed; the node-local RNG is seeded with Seed + ID + 1,
	// so the nodes of one run draw different streams.
	Seed int64
	// Delay, when non-nil, holds each outbound message back by the returned
	// duration before it enters the peer's stream queue — an artificial
	// latency hook that lets tests mirror the simulator's network models
	// (including their deliberate reordering) over real connections. The
	// node's delay line does the holding; a draw <= 0 sends at once.
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

	peers map[model.ID]*peer // read-only once NewNode returns
	line  *delayLine         // built by Start when Config.Delay is set

	messages atomic.Int64
	bytes    atomic.Int64
	dropped  atomic.Int64
	rejected atomic.Int64
}

// offer enqueues b on a peer's queue without blocking; a full queue drops
// the message and counts it.
func (n *Node) offer(p *peer, b []byte) {
	if !p.offer(b) {
		n.dropped.Add(1)
	}
}

// NewNode creates a node; Start launches it.
func NewNode(cfg Config, r rt.Reactor) *Node {
	n := &Node{
		cfg:     cfg,
		reactor: r,
		box:     newMailbox(),
		rng:     rand.New(rand.NewSource(cfg.Seed + int64(cfg.ID) + 1)),
		peers:   make(map[model.ID]*peer, len(cfg.Peers)),
	}
	for _, p := range cfg.Peers {
		if p == cfg.ID {
			continue
		}
		n.peers[p] = newPeer(p)
	}
	return n
}

// Start launches the event loop (which runs the reactor's Init), one writer
// goroutine per peer and, with a Delay hook, the delay line. The node shuts
// down when ctx is cancelled or Stop is called. It fails, starting nothing,
// only when the delay line's clock cannot be opened.
func (n *Node) Start(ctx context.Context) error {
	n.startMu.Lock()
	defer n.startMu.Unlock()
	if n.started.Load() {
		return nil
	}
	n.start = time.Now()
	if n.cfg.Delay != nil {
		clock, err := newLineClock()
		if err != nil {
			return fmt.Errorf("netrt: node %v: delay line: %w", n.cfg.ID, err)
		}
		n.line = &delayLine{n: n, clock: clock}
		n.wg.Add(1)
		go n.line.run()
	}
	n.ctx, n.cancel = context.WithCancel(ctx)
	n.wg.Add(1)
	go n.loop()
	for _, p := range n.peers {
		n.wg.Add(1)
		go n.writer(p)
	}
	// Context cancellation is the graceful-shutdown path: reap everything.
	go func() {
		<-n.ctx.Done()
		n.shutdown()
	}()
	// Published last: a Started() observer (the pipe dialer handing us a
	// conn) must see the fields written above.
	n.started.Store(true)
	return nil
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

// shutdown stops the delay line, wakes every writer and closes the mailbox so
// the event loop drains out; a timer that fires later lands in the closed
// mailbox and is dropped. Connections close themselves off the context.
func (n *Node) shutdown() {
	if n.line != nil {
		n.line.close()
	}
	for _, p := range n.peers {
		p.close()
	}
	n.box.close()
}

// Messages returns the number of accepted outbound sends so far.
func (n *Node) Messages() int64 { return n.messages.Load() }

// Bytes returns the payload bytes of accepted outbound sends so far.
func (n *Node) Bytes() int64 { return n.bytes.Load() }

// Dropped returns how many accepted sends were discarded so far because the
// peer's outbound queue (queueLen frames) was full.
func (n *Node) Dropped() int64 { return n.dropped.Load() }

// Rejected returns how many streams this node has closed so far for what
// they carried: a first frame that is not a hello (one announcing more
// bytes than a uvarint ID takes included) or that does not arrive within
// helloTimeout, a hello claiming an ID
// that may not dial this node (outside Config.Peers, its own, or one it
// dials itself), or a length prefix that is malformed or over MaxFrame. A
// stream that merely ends, even mid-frame, is a disconnect and not counted.
func (n *Node) Rejected() int64 { return n.rejected.Load() }

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
// which peer dialed, hands the connection to that peer's writer and feeds
// every payload frame to the reactor. The connection is closed when its
// hello is refused or not read within helloTimeout, the stream errors, a
// later stream from the same peer displaces it, or the node's context ends.
// Must be called after Start.
func (n *Node) ServeConn(c net.Conn) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer c.Close()
		stop := context.AfterFunc(n.ctx, func() { c.Close() })
		defer stop()
		c.SetReadDeadline(time.Now().Add(helloTimeout))
		br := bufio.NewReader(c)
		p := n.readHello(br)
		if p == nil {
			return
		}
		c.SetReadDeadline(time.Time{})
		gen, displaced := p.up(c)
		if displaced != nil {
			displaced.Close()
		}
		n.readFrames(br, p.id)
		p.down(gen)
	}()
}

// readHello reads an accepted stream's first frame and returns the peer it
// names, or nil when the stream is to be refused: only a configured peer
// with an ID below this node's own dials it. A hello is one uvarint ID, so a
// longer one is refused at its length prefix, before any of it is buffered.
func (n *Node) readHello(br *bufio.Reader) *peer {
	hello, err := ReadFrame(br, nil, binary.MaxVarintLen64)
	if err != nil {
		n.countViolation(err)
		return nil
	}
	from, err := decodeHello(hello)
	if p := n.peers[from]; err == nil && p != nil && from < n.cfg.ID {
		return p
	}
	n.rejected.Add(1)
	return nil
}

// readFrames drains one stream into the mailbox. Any framing error —
// truncated frame, oversized length prefix, mid-frame disconnect — ends it,
// and the caller closes the connection; the dialing side is responsible for
// reconnecting.
func (n *Node) readFrames(br *bufio.Reader, from model.ID) {
	for {
		// No buffer reuse: each frame gets a slice of its own, which the
		// reactor may keep (the rt payload contract).
		payload, err := ReadFrame(br, nil, MaxFrame)
		if err != nil {
			n.countViolation(err)
			return
		}
		n.box.push(envelope{from: from, payload: payload})
	}
}

// countViolation counts a read error in Rejected when it is the peer's
// bytes, not the connection, that were at fault: a hello that did not arrive
// in time included (only the hello is read under a deadline).
func (n *Node) countViolation(err error) {
	if errors.Is(err, ErrFrameTooLarge) || errors.Is(err, errVarintOverflow) || errors.Is(err, os.ErrDeadlineExceeded) {
		n.rejected.Add(1)
	}
}

// writer keeps one peer's queue draining onto the pair's stream until the
// node's context ends. Toward a higher ID it brings the stream up itself —
// dial, hello, a reader of its own — and redials with backoff after any
// failure; toward a lower ID it waits for ServeConn to adopt the stream that
// peer dials. Messages lost to a broken stream stay lost — the runtime is
// fire-and-forget and retransmission is the protocol's job.
func (n *Node) writer(p *peer) {
	defer n.wg.Done()
	if p.id < n.cfg.ID {
		for {
			conn, gen, ok := p.await()
			if !ok {
				return
			}
			// ServeConn reads this stream and owns its shutdown hook.
			n.write(p, gen, bufio.NewWriter(conn))
			p.down(gen)
			conn.Close()
		}
	}
	backoff := redialBackoff
	for n.ctx.Err() == nil {
		conn, err := n.cfg.Dial(n.ctx, p.id)
		if err != nil || conn == nil {
			if !n.sleep(backoff) {
				return
			}
			if backoff < 64*redialBackoff {
				backoff *= 2
			}
			continue
		}
		backoff = redialBackoff
		n.runDialed(p, conn)
		// A peer that accepts and hangs up at once (it refused the hello)
		// would otherwise be redialed at the speed of the loopback.
		if !n.sleep(backoff) {
			return
		}
	}
}

// sleep waits d and reports false if the node's context ended first.
func (n *Node) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-n.ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// runDialed carries the pair over a connection this node dialed, until
// either direction fails: hello first, then a reader goroutine for the peer's
// frames beside the write loop.
func (n *Node) runDialed(p *peer, conn net.Conn) {
	defer conn.Close()
	stop := context.AfterFunc(n.ctx, func() { conn.Close() })
	defer stop()
	bw := bufio.NewWriter(conn)
	if err := WriteFrame(bw, encodeHello(n.cfg.ID)); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	gen, _ := p.up(conn) // nothing to displace: the previous one went down below
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.readFrames(bufio.NewReader(conn), p.id)
		p.down(gen)
		conn.Close()
	}()
	n.write(p, gen, bw)
	p.down(gen)
}

// write pumps the queue onto one healthy stream, everything queued at each
// wake-up behind a single flush. Returns on any write error, when the stream
// is no longer the pair's, or on context end.
func (n *Node) write(p *peer, gen uint64, bw *bufio.Writer) {
	var batch [][]byte
	for {
		var ok bool
		if batch, ok = p.take(gen, batch); !ok {
			return
		}
		for _, payload := range batch {
			if err := WriteFrame(bw, payload); err != nil {
				return
			}
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// loop is the node's event loop: it serializes Init/Receive/Timer, honoring
// the rt single-threaded reactor contract.
func (n *Node) loop() {
	defer n.wg.Done()
	ctx := &nodeCtx{n: n}
	n.reactor.Init(ctx)
	var batch []envelope
	for {
		var ok bool
		if batch, ok = n.box.take(batch); !ok {
			return
		}
		for _, e := range batch {
			if e.isTimer {
				n.reactor.Timer(ctx, e.tag)
			} else {
				n.reactor.Receive(ctx, e.from, e.payload)
			}
		}
	}
}

// nodeCtx implements rt.Context over the node's real clock, RNG and streams.
type nodeCtx struct {
	n *Node
}

func (c *nodeCtx) ID() model.ID { return c.n.cfg.ID }

func (c *nodeCtx) Now() rt.Time { return c.n.now() }

// now is the node's clock: monotonic time since Start.
func (n *Node) now() rt.Time { return rt.Time(time.Since(n.start)) }

func (c *nodeCtx) Rand() *rand.Rand { return c.n.rng }

func (c *nodeCtx) Send(to model.ID, payload []byte) {
	n := c.n
	p, ok := n.peers[to]
	if !ok {
		return
	}
	n.messages.Add(1)
	n.bytes.Add(int64(len(payload)))
	// No copy: rt hands payload over, and nobody writes to it again.
	if n.line != nil {
		now := n.now()
		if d := n.cfg.Delay(to, now); d > 0 {
			n.line.push(now+d, p, payload)
			return
		}
	}
	n.offer(p, payload)
}

func (c *nodeCtx) SetTimer(d rt.Time, tag uint64) {
	if d < 0 {
		d = 0
	}
	box := c.n.box
	time.AfterFunc(time.Duration(d), func() { box.push(envelope{isTimer: true, tag: tag}) })
}
