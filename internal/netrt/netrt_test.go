package netrt

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

type recvd struct {
	from    model.ID
	payload string
}

// pingReactor sends "ping" to target on Init (when set) and optionally
// answers "pong"; everything received lands on got.
type pingReactor struct {
	target model.ID
	reply  bool
	got    chan recvd
	timers chan uint64
	timer  rt.Time
}

func (p *pingReactor) Init(ctx rt.Context) {
	if p.target != 0 {
		ctx.Send(p.target, []byte("ping"))
	}
	if p.timer != 0 {
		ctx.SetTimer(p.timer, 42)
	}
}

func (p *pingReactor) Receive(ctx rt.Context, from model.ID, payload []byte) {
	select {
	case p.got <- recvd{from, string(payload)}:
	default:
	}
	if p.reply && string(payload) == "ping" {
		ctx.Send(from, []byte("pong"))
	}
}

func (p *pingReactor) Timer(ctx rt.Context, tag uint64) {
	if p.timers != nil {
		select {
		case p.timers <- tag:
		default:
		}
	}
}

func waitRecv(t *testing.T, ch chan recvd, want recvd) {
	t.Helper()
	select {
	case got := <-ch:
		if got != want {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %+v", want)
	}
}

// testCluster runs a two-node ping/pong exchange over the given transport.
func testCluster(t *testing.T, transport string) {
	t.Helper()
	r1 := &pingReactor{target: 2, got: make(chan recvd, 16)}
	r2 := &pingReactor{reply: true, got: make(chan recvd, 16)}
	reactors := map[model.ID]rt.Reactor{1: r1, 2: r2}
	c, err := NewCluster(context.Background(), []model.ID{1, 2},
		func(id model.ID) rt.Reactor { return reactors[id] },
		ClusterConfig{Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	waitRecv(t, r2.got, recvd{1, "ping"})
	waitRecv(t, r1.got, recvd{2, "pong"})
	if c.Messages() < 2 {
		t.Fatalf("Messages() = %d, want >= 2", c.Messages())
	}
	if c.Bytes() < 8 {
		t.Fatalf("Bytes() = %d, want >= 8", c.Bytes())
	}
}

func TestClusterPipePingPong(t *testing.T) { testCluster(t, "pipe") }
func TestClusterTCPPingPong(t *testing.T)  { testCluster(t, "tcp") }

func TestNodeTimerFires(t *testing.T) {
	r := &pingReactor{timers: make(chan uint64, 1), timer: rt.Millisecond}
	n := NewNode(Config{ID: 1, Dial: func(context.Context, model.ID) (net.Conn, error) {
		return nil, errPeerNotReady
	}}, r)
	n.Start(context.Background())
	defer n.Stop()
	select {
	case tag := <-r.timers:
		if tag != 42 {
			t.Fatalf("tag = %d, want 42", tag)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timer never fired")
	}
}

// TestTimerDueAfterStopNeverFires: a timer armed in Init that falls due after
// Stop lands in the closed mailbox, and the reactor never sees it.
func TestTimerDueAfterStopNeverFires(t *testing.T) {
	r := &pingReactor{timers: make(chan uint64, 1), timer: 20 * rt.Millisecond}
	n := NewNode(Config{ID: 1}, r)
	n.Start(context.Background())
	n.Stop() // joins the event loop, so Init has armed the timer
	select {
	case tag := <-r.timers:
		t.Fatalf("Timer(%d) reached the reactor after Stop", tag)
	case <-time.After(60 * time.Millisecond):
	}
}

func TestClusterDelayHook(t *testing.T) {
	// A per-message delay in the past of the protocol still delivers; this
	// pins the AfterFunc path rather than measuring real latency.
	r1 := &pingReactor{target: 2, got: make(chan recvd, 16)}
	r2 := &pingReactor{reply: true, got: make(chan recvd, 16)}
	reactors := map[model.ID]rt.Reactor{1: r1, 2: r2}
	c, err := NewCluster(context.Background(), []model.ID{1, 2},
		func(id model.ID) rt.Reactor { return reactors[id] },
		ClusterConfig{
			Transport: "pipe",
			Delay:     func(from, to model.ID, now rt.Time) rt.Time { return 2 * rt.Millisecond },
		})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	waitRecv(t, r2.got, recvd{1, "ping"})
	waitRecv(t, r1.got, recvd{2, "pong"})
}

// seenReactor records how often each (sender, payload) arrived.
type seenReactor struct {
	mu   sync.Mutex
	seen map[recvd]int
}

func (r *seenReactor) Init(rt.Context) {}

func (r *seenReactor) Receive(_ rt.Context, from model.ID, payload []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen == nil {
		r.seen = make(map[recvd]int)
	}
	r.seen[recvd{from, string(payload)}]++
}

func (r *seenReactor) Timer(rt.Context, uint64) {}

func (r *seenReactor) has(m recvd) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen[m] > 0
}

// streamState reports how many streams p has had and whether one is up.
func streamState(p *peer) (gen uint64, up bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gen, p.conn != nil
}

// eventually polls cond until it holds, failing the test after 10 s; step,
// when non-nil, runs before every poll (a retransmission, typically).
func eventually(t *testing.T, what string, step func(), cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if step != nil {
			step()
		}
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAdversarialInboundStreams throws hostile byte streams at a serving
// node: oversized length prefixes, overflowing varints, truncated frames,
// mid-frame disconnects and hellos claiming an ID that may not dial it (a
// stranger's, its own, a higher peer's) must each kill only their own
// connection and — where it is the bytes that are wrong, not the connection
// that went away — be counted in Rejected. A well-behaved lower peer
// connecting afterwards still gets through, in both directions over its one
// stream, and a hostile stream arriving while that one is up does not
// disturb it.
func TestAdversarialInboundStreams(t *testing.T) {
	r := &pingReactor{got: make(chan recvd, 16)}
	n := NewNode(Config{
		ID:    9,
		Peers: []model.ID{2, 9, 12},
		Dial: func(context.Context, model.ID) (net.Conn, error) {
			return nil, errPeerNotReady // 12 never comes up
		},
	}, r)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.Start(context.Background())
	defer n.Stop()
	n.Serve(ln)
	addr := ln.Addr().String()

	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// refused writes raw and waits for the node to hang up on it.
	refused := func(what string, raw []byte) {
		t.Helper()
		c := dial()
		defer c.Close()
		c.Write(raw)
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		if m, err := c.Read(make([]byte, 1)); err == nil || m != 0 {
			t.Fatalf("%s: read %d bytes, err %v; want the node to close the stream", what, m, err)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("%s: the node kept the stream open", what)
		}
	}
	// abandoned writes raw and hangs up itself.
	abandoned := func(raw []byte) {
		t.Helper()
		c := dial()
		c.Write(raw)
		c.Close()
	}
	helloFrame := func(id model.ID, trailing ...byte) []byte {
		var b bytes.Buffer
		WriteFrame(&b, append(encodeHello(id), trailing...))
		return b.Bytes()
	}

	var over [binary.MaxVarintLen64]byte
	m := binary.PutUvarint(over[:], 1<<40)
	refused("oversized length prefix instead of a hello", over[:m])
	refused("varint that never terminates", bytes.Repeat([]byte{0x80}, 16))
	refused("hello frame with trailing garbage inside the frame", helloFrame(2, 0xff))
	refused("hello from an ID outside Peers", helloFrame(7))
	refused("hello claiming the node's own ID", helloFrame(9))
	refused("hello from a higher peer, which the node dials itself", helloFrame(12))
	refused("hello announcing MaxFrame bytes", over[:binary.PutUvarint(over[:], MaxFrame)])
	const wantRejected = 7
	// Valid hello, then a frame that promises 1000 bytes and disconnects
	// mid-payload; and a truncated hello prefix. Disconnects, not violations.
	var hdr [binary.MaxVarintLen64]byte
	m = binary.PutUvarint(hdr[:], 1000)
	abandoned(append(append(helloFrame(2), hdr[:m]...), bytes.Repeat([]byte{0xcc}, 17)...))
	abandoned([]byte{0x82})
	// The first of the two was peer 2's stream for as long as it lasted; see
	// it come and go before the real one, or it could displace that.
	eventually(t, "the abandoned stream to be adopted and dropped", nil, func() bool {
		gen, up := streamState(n.peers[2])
		return gen == 1 && !up
	})

	// A well-behaved lower peer still gets through, and the node's own
	// frames for it come back down the same connection.
	c := dial()
	defer c.Close()
	bw, br := bufio.NewWriter(c), bufio.NewReader(c)
	say := func(payload string) {
		t.Helper()
		if err := WriteFrame(bw, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	hear := func(want string) {
		t.Helper()
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		got, err := ReadFrame(br, nil, 0)
		if err != nil || string(got) != want {
			t.Fatalf("read %q, %v from the node; want %q", got, err, want)
		}
	}
	bw.Write(helloFrame(2))
	say("after the storm")
	waitRecv(t, r.got, recvd{2, "after the storm"})
	ctx := &nodeCtx{n: n}
	ctx.Send(2, []byte("and back"))
	hear("and back")

	// More of the same while that stream is up: it must not notice.
	refused("hello from a stranger, while a good stream is up", helloFrame(7))
	refused("oversized prefix, while a good stream is up", over[:binary.PutUvarint(over[:], 1<<40)])
	say("still here")
	waitRecv(t, r.got, recvd{2, "still here"})
	ctx.Send(2, []byte("so am I"))
	hear("so am I")

	// An oversized frame on the adopted stream itself is a violation too,
	// and ends that stream.
	bw.Write(over[:binary.PutUvarint(over[:], 1<<40)])
	bw.Flush()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := ReadFrame(br, nil, 0); err == nil {
		t.Fatal("the node kept a stream that announced a 1 TiB frame")
	}
	if got := n.Rejected(); got != wantRejected+3 {
		t.Fatalf("Rejected() = %d, want %d", got, wantRejected+3)
	}
	if n.Dropped() != 0 {
		t.Fatalf("Dropped() = %d, want 0", n.Dropped())
	}
}

// TestSilentDialerRejected opens streams that never send their hello: once
// helloTimeout passes, each must be closed, counted in Rejected, and its
// serving goroutines gone. A peer whose hello did arrive keeps its stream
// past the timeout: the deadline covers the hello only.
func TestSilentDialerRejected(t *testing.T) {
	r := &pingReactor{got: make(chan recvd, 4)}
	n := NewNode(Config{ID: 9, Peers: []model.ID{2, 9}}, r)
	n.Start(context.Background())
	defer n.Stop()

	good, server := net.Pipe()
	defer good.Close()
	n.ServeConn(server)
	var frame bytes.Buffer
	WriteFrame(&frame, encodeHello(2))
	if _, err := good.Write(frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the good stream to be adopted", nil, func() bool {
		_, up := streamState(n.peers[2])
		return up
	})

	base := runtime.NumGoroutine()
	start := time.Now()
	const silent = 8
	closed := make(chan error, silent)
	for i := 0; i < silent; i++ {
		client, server := net.Pipe()
		defer client.Close()
		n.ServeConn(server)
		go func() {
			_, err := client.Read(make([]byte, 1))
			closed <- err
		}()
	}
	for i := 0; i < silent; i++ {
		select {
		case err := <-closed:
			if err != io.EOF {
				t.Fatalf("silent stream ended with %v, want the node to close it", err)
			}
		case <-time.After(helloTimeout + 10*time.Second):
			t.Fatalf("%d silent streams still open %v after the hello timeout", silent-i, 10*time.Second)
		}
	}
	if waited := time.Since(start); waited < helloTimeout {
		t.Fatalf("silent streams closed after %v, before the %v hello timeout", waited, helloTimeout)
	}
	if got := n.Rejected(); got != silent {
		t.Fatalf("Rejected() = %d, want %d", got, silent)
	}
	eventually(t, "the silent streams' goroutines to exit", nil, func() bool {
		return runtime.NumGoroutine() <= base
	})

	frame.Reset()
	WriteFrame(&frame, []byte("past the hello timeout"))
	if _, err := good.Write(frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	waitRecv(t, r.got, recvd{2, "past the hello timeout"})
}

// TestSenderReconnects cuts a live stream, from the dialing node's end and
// from the accepting node's end, and checks that the lower ID — and only it —
// dials again, once, and that messages sent after the cut then flow in both
// directions over the new stream.
func TestSenderReconnects(t *testing.T) {
	for _, cutAt := range []string{"dialer", "acceptor"} {
		cutAt := cutAt
		t.Run("cut at "+cutAt, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			addr := ln.Addr().String()

			// Both ends of every stream the pair brings up, in order.
			var mu sync.Mutex
			var dialed, accepted []net.Conn
			streams := func() (d, a int) {
				mu.Lock()
				defer mu.Unlock()
				return len(dialed), len(accepted)
			}

			r2 := &seenReactor{}
			n2 := NewNode(Config{ID: 2, Peers: []model.ID{1}, Dial: func(context.Context, model.ID) (net.Conn, error) {
				t.Error("the higher ID dialed")
				return nil, errPeerNotReady
			}}, r2)
			n2.Start(context.Background())
			defer n2.Stop()
			go func() {
				for {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					mu.Lock()
					accepted = append(accepted, c)
					mu.Unlock()
					n2.ServeConn(c)
				}
			}()

			r1 := &seenReactor{}
			n1 := NewNode(Config{
				ID:    1,
				Peers: []model.ID{2},
				Dial: func(dctx context.Context, peer model.ID) (net.Conn, error) {
					d := net.Dialer{Timeout: time.Second}
					c, err := d.DialContext(dctx, "tcp", addr)
					if err == nil {
						mu.Lock()
						dialed = append(dialed, c)
						mu.Unlock()
					}
					return c, err
				},
			}, r1)
			n1.Start(context.Background())
			defer n1.Stop()

			// exchange retransmits payload both ways until both sides have it:
			// whatever was in flight when a stream died stays lost.
			ctx1, ctx2 := &nodeCtx{n: n1}, &nodeCtx{n: n2}
			exchange := func(payload string) {
				t.Helper()
				eventually(t, payload+" in both directions", func() {
					ctx1.Send(2, []byte(payload))
					ctx2.Send(1, []byte(payload))
				}, func() bool {
					return r2.has(recvd{1, payload}) && r1.has(recvd{2, payload})
				})
			}
			exchange("before the cut")
			if d, a := streams(); d != 1 || a != 1 {
				t.Fatalf("%d dials, %d accepts before the cut; want one stream", d, a)
			}

			mu.Lock()
			if cutAt == "dialer" {
				dialed[0].Close()
			} else {
				accepted[0].Close()
			}
			mu.Unlock()
			exchange("after the cut")
			if d, a := streams(); d != 2 || a != 2 {
				t.Fatalf("%d dials, %d accepts after one cut; want exactly one redial", d, a)
			}
			if n1.Rejected() != 0 || n2.Rejected() != 0 {
				t.Fatalf("Rejected() = %d and %d, want 0", n1.Rejected(), n2.Rejected())
			}
		})
	}
}

// TestFullQueueDropsAreCounted: toward a peer whose stream never comes up,
// the first queueLen sends wait in the queue and every further one is
// dropped — fire-and-forget, but counted, per node and per cluster. Sends
// count as messages either way.
func TestFullQueueDropsAreCounted(t *testing.T) {
	n := NewNode(Config{
		ID:    1,
		Peers: []model.ID{2},
		Dial: func(dctx context.Context, _ model.ID) (net.Conn, error) {
			<-dctx.Done() // the peer stalls until shutdown
			return nil, dctx.Err()
		},
	}, &pingReactor{got: make(chan recvd, 1)})
	n.Start(context.Background())
	defer n.Stop()
	ctx := &nodeCtx{n: n}
	for i := 0; i < queueLen+4; i++ {
		ctx.Send(2, []byte("into the void"))
	}
	ctx.Send(3, []byte("no such peer")) // not accepted: neither sent nor dropped
	c := &Cluster{Nodes: map[model.ID]*Node{1: n}}
	if n.Messages() != queueLen+4 || n.Dropped() != 4 || c.Dropped() != 4 {
		t.Fatalf("%d messages, %d dropped (cluster: %d); want %d, 4, 4", n.Messages(), n.Dropped(), c.Dropped(), queueLen+4)
	}
}

// chatterReactor generates continuous traffic and re-arming timers, to keep
// every goroutine of a node busy while Stop runs; the first message received
// closes ready.
type chatterReactor struct {
	peer  model.ID
	ready chan struct{}
	seen  bool
}

func (c *chatterReactor) Init(ctx rt.Context) {
	ctx.Send(c.peer, []byte("ping"))
	ctx.SetTimer(rt.Millisecond, 1)
}

func (c *chatterReactor) Receive(ctx rt.Context, from model.ID, _ []byte) {
	if !c.seen {
		c.seen = true
		close(c.ready)
	}
	ctx.Send(from, []byte("ping"))
}

func (c *chatterReactor) Timer(ctx rt.Context, tag uint64) {
	ctx.Send(c.peer, []byte("tick"))
	ctx.SetTimer(rt.Millisecond, tag)
}

// TestStopIsIdempotentAndJoins stops a busy cluster twice (and its nodes
// once more): no panic, no hang, late sends drop silently, and every
// goroutine the cluster started has exited.
func TestStopIsIdempotentAndJoins(t *testing.T) {
	for _, transport := range []string{"pipe", "tcp"} {
		baseline := runtime.NumGoroutine()
		r1 := &chatterReactor{peer: 2, ready: make(chan struct{})}
		r2 := &chatterReactor{peer: 1, ready: make(chan struct{})}
		reactors := map[model.ID]rt.Reactor{1: r1, 2: r2}
		c, err := NewCluster(context.Background(), []model.ID{1, 2},
			func(id model.ID) rt.Reactor { return reactors[id] },
			ClusterConfig{Transport: transport})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*chatterReactor{r1, r2} {
			select {
			case <-r.ready:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: traffic never started", transport)
			}
		}
		c.Stop()
		c.Stop()
		for _, n := range c.Nodes {
			n.Stop()
		}
		(&nodeCtx{n: c.Nodes[1]}).Send(2, []byte("late"))

		// Stop joins every goroutine it counts; the context watchers it does
		// not count exit right behind it.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after Stop, %d before the cluster", transport, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestMailbox(t *testing.T) {
	// FIFO from one producer, handed over whole.
	m := newMailbox()
	const n = 100
	for i := 0; i < n; i++ {
		m.push(envelope{tag: uint64(i)})
	}
	batch, ok := m.take(nil)
	if !ok || len(batch) != n {
		t.Fatalf("take = (%d envelopes, %t), want all %d", len(batch), ok, n)
	}
	for i, e := range batch {
		if e.tag != uint64(i) {
			t.Fatalf("batch[%d] has tag %d, want FIFO order", i, e.tag)
		}
	}

	// Concurrent producers against a blocking consumer: nothing is lost.
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.push(envelope{tag: uint64(i)})
		}(i)
	}
	popped := make(chan int, 1)
	go func() {
		got := 0
		var batch []envelope
		for got < n {
			var ok bool
			if batch, ok = m.take(batch); !ok {
				break
			}
			got += len(batch)
		}
		popped <- got
	}()
	wg.Wait()
	select {
	case got := <-popped:
		if got != n {
			t.Fatalf("consumer saw %d of %d envelopes", got, n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mailbox stalled")
	}

	// Close drains what is queued, then reports closed; later pushes drop.
	m.push(envelope{tag: 7})
	m.close()
	if batch, ok := m.take(nil); !ok || len(batch) != 1 || batch[0].tag != 7 {
		t.Fatalf("take after close = (%v, %t), want the queued envelope", batch, ok)
	}
	if _, ok := m.take(nil); ok {
		t.Fatal("take on a closed, empty mailbox should report closed")
	}
	m.push(envelope{})
	if _, ok := m.take(nil); ok {
		t.Fatal("push after close was queued")
	}

	// Capacity: a steady trickle alternates between two small arrays and
	// allocates nothing; the queue does not crawl forward through memory.
	m = newMailbox()
	batch = nil
	cycle := func() {
		for i := 0; i < 3; i++ {
			m.push(envelope{tag: uint64(i)})
		}
		batch, _ = m.take(batch)
	}
	cycle()
	cycle() // both arrays have met the backlog now
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("a push/take cycle allocates %.1f times in steady state, want 0", allocs)
	}
	if cap(batch) > 4 || cap(m.queue) > 4 {
		t.Fatalf("arrays grew to %d and %d slots for a backlog of 3", cap(batch), cap(m.queue))
	}

	// Retention: once a batch is handed back, no slot of either array still
	// points at a delivered payload.
	freed := make(chan struct{})
	payload := make([]byte, 64)
	runtime.SetFinalizer(&payload[0], func(*byte) { close(freed) })
	m.push(envelope{payload: payload})
	payload = nil
	batch, _ = m.take(batch)
	m.push(envelope{tag: 1})
	batch, _ = m.take(batch) // hands the payload's batch back
	deadline := time.After(10 * time.Second)
	for collected := false; !collected; {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-deadline:
			t.Fatal("a delivered payload is still reachable from the mailbox")
		case <-time.After(time.Millisecond):
		}
	}
	runtime.KeepAlive(batch)
}
