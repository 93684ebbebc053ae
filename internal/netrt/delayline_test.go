package netrt

import (
	"context"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// stampReactor timestamps every frame it receives; a frame's payload is its
// send index.
type stampReactor struct {
	got chan stamp
}

type stamp struct {
	index int
	at    time.Time
}

func (r *stampReactor) Init(rt.Context) {}

func (r *stampReactor) Receive(_ rt.Context, _ model.ID, payload []byte) {
	r.got <- stamp{int(payload[0]), time.Now()}
}

func (r *stampReactor) Timer(rt.Context, uint64) {}

// drawLog is a Delay hook that hands out draws in call order and records,
// per call, the node-clock instant the message falls due.
type drawLog struct {
	mu    sync.Mutex
	draws []rt.Time
	due   []rt.Time
}

func (l *drawLog) delay(_, _ model.ID, now rt.Time) rt.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.draws[len(l.due)]
	l.due = append(l.due, now+d)
	return d
}

// TestDelayLineNeverEarly sends frames from node 1 to nodes 2 and 3 through
// the delay line and checks every receipt against its draw: none arrives
// before it falls due. The first send is a sentinel held 200 ms; every later
// one is due long before it, so a line that only wakes for the earliest item
// it was armed for delivers them all at the sentinel's due, and fails.
func TestDelayLineNeverEarly(t *testing.T) {
	for _, transport := range []string{"pipe", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			const frames = 48
			const sentinel = 200 * rt.Millisecond
			rng := rand.New(rand.NewSource(1))
			log := &drawLog{draws: []rt.Time{sentinel}}
			for len(log.draws) < frames {
				log.draws = append(log.draws, 300*rt.Microsecond+rt.Time(rng.Int63n(int64(3*rt.Millisecond))))
			}
			got := make(chan stamp, frames)
			c, err := NewCluster(context.Background(), []model.ID{1, 2, 3},
				func(id model.ID) rt.Reactor { return &stampReactor{got: got} },
				ClusterConfig{Transport: transport, Delay: log.delay})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			n1 := c.Nodes[1]
			eventually(t, "the mesh to come up", nil, func() bool {
				for _, id := range []model.ID{2, 3} {
					if _, up := streamState(n1.peers[id]); !up {
						return false
					}
				}
				return true
			})
			ctx := &nodeCtx{n: n1}
			for i := 0; i < frames; i++ {
				ctx.Send(model.ID(2+i%2), []byte{byte(i)})
			}
			for range log.draws {
				var s stamp
				select {
				case s = <-got:
				case <-time.After(10 * time.Second):
					t.Fatal("a delayed frame never arrived")
				}
				log.mu.Lock()
				due, sentinelDue := n1.start.Add(time.Duration(log.due[s.index])), n1.start.Add(time.Duration(log.due[0]))
				log.mu.Unlock()
				if early := due.Sub(s.at); early > 0 {
					t.Fatalf("frame %d arrived %v before its draw of %v", s.index, early, time.Duration(log.draws[s.index]))
				}
				if s.index > 0 && !s.at.Before(sentinelDue) {
					t.Fatalf("frame %d, drawn %v, was held until the %v sentinel fell due", s.index, time.Duration(log.draws[s.index]), time.Duration(sentinel))
				}
			}
		})
	}
}

// TestDelayLineReleasesInDueOrder pushes items for three peers in an order
// unrelated to their dues and takes them once all are due: one batch, every
// item, in due order across peers.
func TestDelayLineReleasesInDueOrder(t *testing.T) {
	n := NewNode(Config{ID: 1, Peers: []model.ID{2, 3, 4}}, &pingReactor{})
	n.start = time.Now()
	clock, err := newLineClock()
	if err != nil {
		t.Fatal(err)
	}
	l := &delayLine{n: n, clock: clock}
	defer l.close()
	rng := rand.New(rand.NewSource(2))
	var dues []rt.Time
	for i := 0; i < 200; i++ {
		due := rt.Time(rng.Int63n(int64(2 * rt.Millisecond)))
		dues = append(dues, due)
		l.push(due, n.peers[model.ID(2+i%3)], nil)
	}
	time.Sleep(2 * time.Millisecond)
	batch := l.takeDue(nil)
	slices.Sort(dues)
	if len(batch) != len(dues) {
		t.Fatalf("took %d of %d due items", len(batch), len(dues))
	}
	for i, it := range batch {
		if it.due != dues[i] {
			t.Fatalf("item %d is due at %v, want %v: not in due order", i, it.due, dues[i])
		}
	}
	if len(l.heap) != 0 || l.armed != 0 {
		t.Fatalf("%d items left, clock armed for %v; want an empty, disarmed line", len(l.heap), l.armed)
	}
}

// TestDelayLineStop stops a cluster while its delay lines hold items, some
// due soon, some in an hour: Stop returns, every goroutine the cluster
// started exits, the lines are empty and nothing is delivered afterwards.
func TestDelayLineStop(t *testing.T) {
	baseline := runtime.NumGoroutine()
	got := make(chan stamp, 64)
	c, err := NewCluster(context.Background(), []model.ID{1, 2},
		func(id model.ID) rt.Reactor { return &stampReactor{got: got} },
		ClusterConfig{
			Transport: "pipe",
			Delay: func(from, to model.ID, now rt.Time) rt.Time {
				if from == 1 {
					return 5 * rt.Millisecond
				}
				return rt.Time(time.Hour)
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		(&nodeCtx{n: c.Nodes[1]}).Send(2, []byte{byte(i)})
		(&nodeCtx{n: c.Nodes[2]}).Send(1, []byte{byte(i)})
	}
	c.Stop()
	delivered := len(got)
	for id, n := range c.Nodes {
		// No lock: Stop joined the line, whose exit emptied it.
		if len(n.line.heap) != 0 {
			t.Fatalf("node %v's delay line holds %d items after Stop", id, len(n.line.heap))
		}
	}
	(&nodeCtx{n: c.Nodes[1]}).Send(2, []byte{99})
	time.Sleep(20 * time.Millisecond)
	if len(got) != delivered {
		t.Fatalf("%d frames delivered after Stop", len(got)-delivered)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, %d before the cluster", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDelayLineFullQueueDropsAreCounted: a delayed send that finds its
// peer's queue full is dropped and counted, as an undelayed one is.
func TestDelayLineFullQueueDropsAreCounted(t *testing.T) {
	n := NewNode(Config{
		ID:    1,
		Peers: []model.ID{2},
		Dial: func(dctx context.Context, _ model.ID) (net.Conn, error) {
			<-dctx.Done() // the peer stalls until shutdown
			return nil, dctx.Err()
		},
		Delay: func(model.ID, rt.Time) rt.Time { return 100 * rt.Microsecond },
	}, &pingReactor{})
	n.Start(context.Background())
	defer n.Stop()
	ctx := &nodeCtx{n: n}
	for i := 0; i < queueLen+4; i++ {
		ctx.Send(2, []byte("into the void"))
	}
	eventually(t, "the line to release every send", nil, func() bool { return n.Dropped() == 4 })
	if n.Messages() != queueLen+4 {
		t.Fatalf("%d messages, want %d", n.Messages(), queueLen+4)
	}
}

// TestDelayedSendAllocs gates what a delayed Send allocates in steady state:
// at most one allocation per send, where a runtime timer, its callback
// closure and the timer's ref cost three. Every draw falls due before
// the one before it, so every push re-arms the clock.
func TestDelayedSendAllocs(t *testing.T) {
	draw := rt.Time(time.Hour)
	n := NewNode(Config{
		ID:    1,
		Peers: []model.ID{2},
		Dial: func(dctx context.Context, _ model.ID) (net.Conn, error) {
			<-dctx.Done()
			return nil, dctx.Err()
		},
		Delay: func(model.ID, rt.Time) rt.Time {
			draw -= rt.Millisecond
			return draw
		},
	}, &pingReactor{})
	n.Start(context.Background())
	defer n.Stop()
	ctx := &nodeCtx{n: n}
	payload := []byte("held")
	send := func() { ctx.Send(2, payload) }
	for i := 0; i < 1000; i++ {
		send()
	}
	allocs := testing.AllocsPerRun(1000, send)
	t.Logf("allocations per delayed Send: %.2f", allocs)
	if allocs > 1 {
		t.Fatalf("a delayed Send allocates %.2f times in steady state, want at most 1", allocs)
	}
}

// BenchmarkDelayLine measures how late a delayed send arrives on an idle
// 2-node TCP cluster: each op sends one frame with a 0.3 ms draw and waits
// for it; lateness is receipt minus send minus draw, so it includes the
// loopback hop. Reports its p50 and p90 in µs.
func BenchmarkDelayLine(b *testing.B) {
	const draw = 300 * rt.Microsecond
	got := make(chan stamp, 1)
	c, err := NewCluster(context.Background(), []model.ID{1, 2},
		func(id model.ID) rt.Reactor { return &stampReactor{got: got} },
		ClusterConfig{Delay: func(model.ID, model.ID, rt.Time) rt.Time { return draw }})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	ctx := &nodeCtx{n: c.Nodes[1]}
	late := make([]float64, 0, b.N)
	roundTrip := func() float64 {
		sent := time.Now()
		ctx.Send(2, []byte{0})
		select {
		case s := <-got:
			return float64(s.at.Sub(sent)-time.Duration(draw)) / 1e3
		case <-time.After(10 * time.Second):
			b.Fatal("a delayed frame never arrived")
			return 0
		}
	}
	roundTrip() // the mesh is up once one frame has crossed it
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		late = append(late, roundTrip())
	}
	b.StopTimer()
	sort.Float64s(late)
	b.ReportMetric(late[len(late)/2], "late-p50-us")
	b.ReportMetric(late[len(late)*9/10], "late-p90-us")
}
