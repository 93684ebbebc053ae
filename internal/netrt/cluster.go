package netrt

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"

	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
)

// errPeerNotReady is returned by the pipe dialer while the target node has
// not started yet; the writer's backoff loop retries.
var errPeerNotReady = errors.New("netrt: peer not started")

// ClusterConfig parameterizes an in-process cluster.
type ClusterConfig struct {
	// Transport selects the link type: "tcp" (localhost listeners, the
	// cupd-shaped path) or "pipe" (synchronous net.Pipe links, the unit-test
	// harness). Empty means "tcp"; NewCluster refuses any other value.
	Transport string
	// Seed is the run's seed, passed to every node as Config.Seed (which
	// seeds the node's RNG with Seed + ID + 1).
	Seed int64
	// Delay, when non-nil, is installed on every node as its outbound
	// latency hook (see Config.Delay), closed over the sending node's ID.
	Delay func(from, to model.ID, now rt.Time) rt.Time
}

// Cluster is a fully-connected in-process network of Nodes — the "multi-cupd
// localhost cluster" harness: every pair of nodes shares one real stream,
// over localhost TCP sockets or net.Pipe, dialed by the lower ID of the two.
type Cluster struct {
	Nodes  map[model.ID]*Node
	ids    []model.ID
	cancel context.CancelFunc
}

// NewCluster builds, starts and wires one node per ID, with reactors from
// mk. The cluster shuts down when ctx is cancelled or Stop is called.
func NewCluster(ctx context.Context, ids []model.ID, mk func(id model.ID) rt.Reactor, cc ClusterConfig) (*Cluster, error) {
	usePipe := cc.Transport == "pipe"
	if !usePipe && cc.Transport != "" && cc.Transport != "tcp" {
		return nil, fmt.Errorf("netrt: unknown transport %q (want tcp|pipe)", cc.Transport)
	}
	ctx, cancel := context.WithCancel(ctx)
	c := &Cluster{Nodes: make(map[model.ID]*Node, len(ids)), ids: append([]model.ID(nil), ids...), cancel: cancel}

	var listeners map[model.ID]*net.TCPListener
	if !usePipe {
		listeners = make(map[model.ID]*net.TCPListener, len(ids))
		for _, id := range ids {
			ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				for _, l := range listeners {
					l.Close()
				}
				cancel()
				return nil, fmt.Errorf("netrt: listen for node %v: %w", id, err)
			}
			listeners[id] = ln
		}
	}

	for _, id := range ids {
		id := id
		cfg := Config{
			ID:    id,
			Peers: ids,
			Seed:  cc.Seed,
		}
		if cc.Delay != nil {
			delay := cc.Delay
			cfg.Delay = func(to model.ID, now rt.Time) rt.Time { return delay(id, to, now) }
		}
		if usePipe {
			cfg.Dial = func(dctx context.Context, peer model.ID) (net.Conn, error) {
				tgt, ok := c.Nodes[peer]
				if !ok || !tgt.Started() {
					return nil, errPeerNotReady
				}
				us, them := net.Pipe()
				tgt.ServeConn(them)
				return us, nil
			}
		} else {
			cfg.Dial = func(dctx context.Context, peer model.ID) (net.Conn, error) {
				ln, ok := listeners[peer]
				if !ok {
					return nil, fmt.Errorf("netrt: no address for peer %v", peer)
				}
				// The listener's own address, as it is: a loopback connect
				// completes or is refused at once, so there is nothing for a
				// timeout or the context to cut short.
				conn, err := net.DialTCP("tcp", nil, ln.Addr().(*net.TCPAddr))
				if err != nil {
					return nil, err
				}
				// Both ends live in this process and go down together, so
				// the stream is reset on close rather than parked in
				// TIME_WAIT: back-to-back clusters would otherwise fill the
				// kernel's TIME_WAIT table and slow every later connect.
				conn.SetLinger(0)
				return conn, nil
			}
		}
		c.Nodes[id] = NewNode(cfg, mk(id))
	}

	// Highest ID first: a node dials only IDs above its own, so by the time
	// its writers start, every node they dial is running and — over TCP —
	// already accepting. No dial is refused and retried, none waits in a
	// listener's backlog.
	order := slices.Clone(ids)
	slices.Sort(order)
	slices.Reverse(order)
	for _, id := range order {
		if err := c.Nodes[id].Start(ctx); err != nil {
			c.Stop()
			for _, l := range listeners {
				l.Close()
			}
			return nil, err
		}
		if !usePipe {
			c.Nodes[id].Serve(listeners[id])
		}
	}
	return c, nil
}

// Stop cancels the cluster context and waits for every node to shut down.
func (c *Cluster) Stop() {
	c.cancel()
	for _, n := range c.Nodes {
		n.Stop()
	}
}

// Messages totals accepted outbound sends across the cluster.
func (c *Cluster) Messages() int64 { return c.total((*Node).Messages) }

// Bytes totals accepted outbound payload bytes across the cluster.
func (c *Cluster) Bytes() int64 { return c.total((*Node).Bytes) }

// Dropped totals the sends discarded on full outbound queues across the
// cluster.
func (c *Cluster) Dropped() int64 { return c.total((*Node).Dropped) }

// Rejected totals the streams closed for what they carried across the
// cluster.
func (c *Cluster) Rejected() int64 { return c.total((*Node).Rejected) }

// total sums one per-node counter over the cluster.
func (c *Cluster) total(counter func(*Node) int64) int64 {
	var t int64
	for _, n := range c.Nodes {
		t += counter(n)
	}
	return t
}
