package netrt

import (
	"context"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// helloAllReactor sends one frame to every other node on Init and counts
// what it receives into a counter shared by the whole cluster; the receipt
// that completes the mesh — a frame delivered in every direction — closes up.
type helloAllReactor struct {
	ids      []model.ID
	received *atomic.Int64
	up       chan struct{}
}

func (r *helloAllReactor) Init(ctx rt.Context) {
	for _, to := range r.ids {
		if to != ctx.ID() {
			ctx.Send(to, []byte("up"))
		}
	}
}

func (r *helloAllReactor) Receive(rt.Context, model.ID, []byte) {
	if n := len(r.ids); r.received.Add(1) == int64(n*(n-1)) {
		close(r.up)
	}
}

func (r *helloAllReactor) Timer(rt.Context, uint64) {}

// bootMesh boots a cluster of helloAllReactors over ids and returns it with
// the channel that closes once every node has heard from every other.
func bootMesh(tb testing.TB, ids []model.ID, transport string) (*Cluster, <-chan struct{}) {
	tb.Helper()
	r := &helloAllReactor{ids: ids, received: new(atomic.Int64), up: make(chan struct{})}
	c, err := NewCluster(context.Background(), ids, func(model.ID) rt.Reactor { return r }, ClusterConfig{Transport: transport})
	if err != nil {
		tb.Fatal(err)
	}
	return c, r.up
}

func eightIDs() []model.ID { return []model.ID{1, 2, 3, 4, 5, 6, 7, 8} }

// TestClusterOneStreamPerPair: an 8-node mesh is 28 streams, each dialed by
// the lower ID of its pair, accepted once by the higher, never replaced and
// never refused — over TCP and over pipes.
func TestClusterOneStreamPerPair(t *testing.T) {
	for _, transport := range []string{"tcp", "pipe"} {
		ids := eightIDs()
		c, up := bootMesh(t, ids, transport)
		select {
		case <-up:
		case <-time.After(10 * time.Second):
			c.Stop()
			t.Fatalf("%s: the mesh never came up", transport)
		}
		accepted := 0
		for _, id := range ids {
			for _, p := range c.Nodes[id].peers {
				gen, isUp := streamState(p)
				if gen != 1 || !isUp {
					t.Errorf("%s: node %v has had %d streams with %v (up: %t); want exactly one, up", transport, id, gen, p.id, isUp)
				}
				if p.id < id {
					accepted++
				}
			}
		}
		if accepted != 28 {
			t.Errorf("%s: %d accepted streams, want 28", transport, accepted)
		}
		c.Stop()
		if c.Rejected() != 0 || c.Dropped() != 0 {
			t.Errorf("%s: %d streams rejected, %d sends dropped; want none", transport, c.Rejected(), c.Dropped())
		}
	}
}

// TestClusterBootAllocs gates what booting 8 nodes allocates before any
// stream exists: nodes, queues, mailboxes, listeners. (The context is
// already cancelled, so no writer dials; a stream's own cost — two 4 KiB
// bufio buffers an end — is the socket's, and not what this guards.) It was
// 1.5 MB while every outbound queue was a pre-sized channel.
func TestClusterBootAllocs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	boot := func() {
		c, err := NewCluster(ctx, eightIDs(), func(model.ID) rt.Reactor { return &pingReactor{} }, ClusterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		c.Stop()
	}
	boot()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		boot()
	}
	runtime.ReadMemStats(&after)
	perBoot := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("NewCluster + Stop of 8 nodes: %d KiB", perBoot>>10)
	if perBoot > 256<<10 {
		t.Fatalf("NewCluster + Stop of 8 nodes allocates %d KiB, want under 256", perBoot>>10)
	}
}

// BenchmarkClusterBoot prices the layer's part of a live round: NewCluster,
// the mesh usable (a frame delivered in every direction, so every hello has
// been read and every writer has its stream), Stop. Beside ns/op it reports
// the medians of the first two stamps.
func BenchmarkClusterBoot(b *testing.B) {
	for _, transport := range []string{"tcp", "pipe"} {
		b.Run(transport, func(b *testing.B) {
			ids := eightIDs()
			newCluster := make([]float64, 0, b.N)
			mesh := make([]float64, 0, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				c, up := bootMesh(b, ids, transport)
				newCluster = append(newCluster, float64(time.Since(start))/1e6)
				select {
				case <-up:
				case <-time.After(10 * time.Second):
					b.Fatal("the mesh never came up")
				}
				mesh = append(mesh, float64(time.Since(start))/1e6)
				c.Stop()
			}
			b.StopTimer()
			sort.Float64s(newCluster)
			sort.Float64s(mesh)
			b.ReportMetric(newCluster[len(newCluster)/2], "newcluster-p50-ms")
			b.ReportMetric(mesh[len(mesh)/2], "mesh-p50-ms")
		})
	}
}
