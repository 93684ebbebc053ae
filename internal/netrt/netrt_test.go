package netrt

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
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

// TestAdversarialInboundStreams throws hostile byte streams at a serving
// node: oversized length prefixes, overflowing varints, truncated frames and
// mid-frame disconnects must each kill only their own connection — a
// well-behaved peer connecting afterwards still gets through.
func TestAdversarialInboundStreams(t *testing.T) {
	r := &pingReactor{got: make(chan recvd, 16)}
	n := NewNode(Config{ID: 1, Dial: func(context.Context, model.ID) (net.Conn, error) {
		return nil, errPeerNotReady
	}}, r)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.Start(context.Background())
	defer n.Stop()
	n.Serve(ln)
	addr := ln.Addr().String()

	send := func(raw []byte) {
		t.Helper()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c.Write(raw)
		c.Close()
	}

	var hello bytes.Buffer
	WriteFrame(&hello, encodeHello(2))

	// Oversized length prefix instead of a hello.
	var over [binary.MaxVarintLen64]byte
	m := binary.PutUvarint(over[:], 1<<40)
	send(over[:m])
	// Varint that never terminates.
	send(bytes.Repeat([]byte{0x80}, 16))
	// Valid hello, then a frame that promises 1000 bytes and disconnects
	// mid-payload.
	var mid bytes.Buffer
	mid.Write(hello.Bytes())
	var hdr [binary.MaxVarintLen64]byte
	m = binary.PutUvarint(hdr[:], 1000)
	mid.Write(hdr[:m])
	mid.Write(bytes.Repeat([]byte{0xcc}, 17))
	send(mid.Bytes())
	// Truncated hello prefix.
	send([]byte{0x82})
	// Hello frame with trailing garbage inside the frame.
	var bad bytes.Buffer
	WriteFrame(&bad, append(encodeHello(2), 0xff))
	send(bad.Bytes())

	// A well-behaved connection still works.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bw := bufio.NewWriter(c)
	if err := WriteFrame(bw, encodeHello(2)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(bw, []byte("after the storm")); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	waitRecv(t, r.got, recvd{2, "after the storm"})
}

// TestSenderReconnects kills the accepted side of a live stream and checks
// the dialer re-establishes it and later messages flow.
func TestSenderReconnects(t *testing.T) {
	r2 := &pingReactor{got: make(chan recvd, 16)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	n2 := NewNode(Config{ID: 2, Dial: func(context.Context, model.ID) (net.Conn, error) {
		return nil, errPeerNotReady
	}}, r2)
	n2.Start(context.Background())
	defer n2.Stop()

	r1 := &pingReactor{got: make(chan recvd, 16)}
	n1 := NewNode(Config{
		ID:    1,
		Peers: []model.ID{2},
		Dial: func(dctx context.Context, peer model.ID) (net.Conn, error) {
			d := net.Dialer{Timeout: time.Second}
			return d.DialContext(dctx, "tcp", addr)
		},
		RedialBackoff: time.Millisecond,
	}, r1)
	n1.Start(context.Background())
	defer n1.Stop()

	// Slam the first accepted stream shut — whatever n1 had queued on it is
	// lost — then serve subsequent conns properly; n1 must redial.
	first, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			n2.ServeConn(c)
		}
	}()
	defer ln.Close()

	deadline := time.After(10 * time.Second)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	ctx := &nodeCtx{n: n1}
	for {
		select {
		case got := <-r2.got:
			if got.payload != "are you there" {
				t.Fatalf("unexpected payload %q", got.payload)
			}
			return
		case <-tick.C:
			// Retransmit until a post-reconnect stream carries one through.
			ctx.Send(2, []byte("are you there"))
		case <-deadline:
			t.Fatal("message never arrived after reconnect")
		}
	}
}

// TestFullQueueDropsAreCounted: with room for one message per peer and a peer
// whose stream never comes up, the first send waits in the queue and every
// further one is dropped — fire-and-forget, but counted, per node and per
// cluster. Sends count as messages either way.
func TestFullQueueDropsAreCounted(t *testing.T) {
	n := NewNode(Config{
		ID:       1,
		Peers:    []model.ID{2},
		QueueLen: 1,
		Dial: func(dctx context.Context, _ model.ID) (net.Conn, error) {
			<-dctx.Done() // the peer stalls until shutdown
			return nil, dctx.Err()
		},
	}, &pingReactor{got: make(chan recvd, 1)})
	n.Start(context.Background())
	defer n.Stop()
	ctx := &nodeCtx{n: n}
	for i := 0; i < 5; i++ {
		ctx.Send(2, []byte("into the void"))
	}
	ctx.Send(3, []byte("no such peer")) // not accepted: neither sent nor dropped
	c := &Cluster{Nodes: map[model.ID]*Node{1: n}}
	if n.Messages() != 5 || n.Dropped() != 4 || c.Dropped() != 4 {
		t.Fatalf("%d messages, %d dropped (cluster: %d); want 5, 4, 4", n.Messages(), n.Dropped(), c.Dropped())
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
	// FIFO from one producer.
	m := newMailbox()
	const n = 100
	for i := 0; i < n; i++ {
		m.push(envelope{tag: uint64(i)})
	}
	for i := 0; i < n; i++ {
		if e, ok := m.pop(); !ok || e.tag != uint64(i) {
			t.Fatalf("pop %d = (tag %d, %t), want FIFO order", i, e.tag, ok)
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
		for got < n {
			if _, ok := m.pop(); !ok {
				break
			}
			got++
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
	if e, ok := m.pop(); !ok || e.tag != 7 {
		t.Fatalf("pop after close = (tag %d, %t), want the queued envelope", e.tag, ok)
	}
	if _, ok := m.pop(); ok {
		t.Fatal("pop on a closed, empty mailbox should report closed")
	}
	m.push(envelope{})
	if _, ok := m.pop(); ok {
		t.Fatal("push after close was queued")
	}
}
