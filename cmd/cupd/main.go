// Command cupd runs a BFT-CUP node over real TCP — the deployable twin of
// the cupsim simulator. The same core.Node / discovery / pbft stack the
// deterministic engine drives runs here on the netrt runtime:
// length-prefixed wire-codec frames on one reconnecting stream per pair of
// processes (the lower ID dials, so -peers must name every higher one),
// monotonic-clock timers, graceful shutdown on SIGINT/SIGTERM.
//
// Two modes:
//
// Cluster mode (-cluster) boots every process of the graph def as an
// in-process node over localhost TCP sockets (or net.Pipe with
// -transport pipe), waits for the run to terminate or the horizon to pass,
// and reports the same verdict and per-process table cupsim prints — CI
// asserts verdict equality between the two on the same def/seed:
//
//	cupd -cluster -graph kosr:sink=4,nonsink=3,k=2 -seed 1
//	cupd -cluster -graph fig1b -net partial -gst 500ms -scale 20
//
// Single-node mode boots one process from the graph def plus identity
// flags, serves its listen address, runs discovery + consensus against live
// peers, and reports the decided value and per-node metrics:
//
//	cupd -graph fig1b -id 1 -listen 127.0.0.1:7101 \
//	     -peers 2=127.0.0.1:7102,3=127.0.0.1:7103,...
//
// Every daemon of one deployment must share -graph, -mode, -f, -seed and
// -scale: the seed derives the shared keyring (a stand-in for real key
// distribution) and, for random graph families, the graph itself.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/netrt"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

func main() {
	var (
		params = scenario.BindFlags(flag.CommandLine)
		scale  = flag.Int64("scale", 10, "virtual-to-real time divisor: protocol timeouts and the horizon run scale× faster than their virtual values")

		cluster   = flag.Bool("cluster", false, "boot the whole graph as an in-process localhost cluster and grade the run")
		transport = flag.String("transport", "tcp", "cluster links: tcp|pipe")

		id       = flag.Uint64("id", 0, "single-node mode: this process's ID (must be a node of the graph def)")
		listen   = flag.String("listen", "", "single-node mode: TCP listen address for inbound peer streams")
		peers    = flag.String("peers", "", "single-node mode: peer addresses, ID=HOST:PORT comma-separated")
		deadline = flag.Duration("deadline", 0, "single-node mode: how long to wait for a decision (default: horizon/scale)")
	)
	flag.Parse()

	if err := checkScale(*scale); err != nil {
		fail(err)
	}
	p, err := params()
	if err != nil {
		fail(err)
	}
	c, err := p.Compile()
	if err != nil {
		fail(err)
	}
	if *cluster {
		runCluster(c, p.Seed, *transport, *scale)
		return
	}
	runNode(c, p.Seed, model.ID(*id), *listen, *peers, *scale, *deadline)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cupd:", err)
	os.Exit(2)
}

// runCluster boots the whole compiled scenario as an in-process cluster over
// real connections and prints the cupsim-compatible verdict report.
func runCluster(c *scenario.Compiled, seed int64, transport string, scale int64) {
	begin := time.Now()
	res, err := c.RunLive(seed, scenario.LiveOptions{Transport: transport, Scale: scale})
	if err != nil {
		fail(err)
	}
	res.WriteText(os.Stdout, c.Mode,
		fmt.Sprintf("live/%s, scale=%d, %v wall", transport, scale, time.Since(begin).Round(time.Millisecond)))
	if !res.Consensus() {
		os.Exit(1)
	}
}

// runNode boots one process of the deployment and drives it against live
// peers until it decides, the deadline passes, or a signal arrives.
func runNode(c *scenario.Compiled, seed int64, id model.ID, listen, peersFlag string, scale int64, deadline time.Duration) {
	if id == 0 {
		fail(fmt.Errorf("single-node mode needs -id (or use -cluster)"))
	}
	if listen == "" {
		fail(fmt.Errorf("single-node mode needs -listen"))
	}
	addrs, err := parsePeers(peersFlag)
	if err != nil {
		fail(err)
	}
	if err := checkPeers(addrs, c.Graph.Nodes(), id); err != nil {
		fail(err)
	}

	begin := time.Now()
	decided := make(chan model.Value, 1)
	node, err := c.LiveNode(cryptox.NewKeys(), seed, id, scale, 1, nil, func(_ uint64, v model.Value) {
		select {
		case decided <- v:
		default:
		}
	})
	if err != nil {
		fail(err)
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fail(err)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	rn := netrt.NewNode(netrt.Config{
		ID:    id,
		Peers: c.Graph.Nodes(),
		Seed:  seed + int64(id) + 1,
		Dial: func(dctx context.Context, peer model.ID) (net.Conn, error) {
			addr, ok := addrs[peer]
			if !ok {
				return nil, fmt.Errorf("no address for peer %d", uint64(peer))
			}
			d := net.Dialer{Timeout: 2 * time.Second}
			return d.DialContext(dctx, "tcp", addr)
		},
	}, node)
	if err := rn.Start(ctx); err != nil {
		fail(err)
	}
	rn.Serve(ln)
	fmt.Printf("cupd: node %d up on %s (%s, mode=%s, %d peers, scale=%d)\n",
		uint64(id), ln.Addr(), c.Name, c.Mode, len(addrs), scale)

	if deadline <= 0 {
		deadline = time.Duration(int64(c.Horizon) / scale)
	}
	exit := 0
	select {
	case v := <-decided:
		elapsed := time.Since(begin)
		// Report on the virtual axis too, like the sim's tables.
		fmt.Printf("decided   : %q @ %v wall (%v virtual)\n", v, elapsed.Round(time.Millisecond),
			(rt.Time(elapsed) * rt.Time(scale)).String())
		// Keep answering GETDECIDED polls so slower peers terminate too;
		// metrics below report the state at decision time plus this grace.
		grace := time.Duration(int64(sim.Second) / scale)
		select {
		case <-time.After(grace):
		case <-ctx.Done():
		}
	case <-time.After(deadline):
		fmt.Printf("no decision within %v\n", deadline.Round(time.Millisecond))
		exit = 1
	case <-ctx.Done():
		fmt.Println("interrupted")
		exit = 1
	}

	if cand, ok := node.Committee(); ok {
		fmt.Printf("committee : %v (g=%d)\n", cand.Members(), cand.G)
	}
	fmt.Printf("metrics   : %d messages sent, %d bytes\n", rn.Messages(), rn.Bytes())
	if d := rn.Dropped(); d != 0 {
		fmt.Printf("dropped   : %d sends on full outbound queues\n", d)
	}
	if r := rn.Rejected(); r != 0 {
		fmt.Printf("rejected  : %d inbound streams closed for what they carried\n", r)
	}
	rn.Stop()
	os.Exit(exit)
}

// checkScale refuses a -scale below 1: it divides every duration of both
// modes, the default -deadline included.
func checkScale(scale int64) error {
	if scale < 1 {
		return fmt.Errorf("-scale %d: want a divisor ≥ 1", scale)
	}
	return nil
}

// checkPeers refuses a -peers entry that names the node itself or a process
// outside the graph: the runtime would ignore either, and the daemon would
// report a peer count it does not have.
func checkPeers(addrs map[model.ID]string, nodes []model.ID, self model.ID) error {
	if _, ok := addrs[self]; ok {
		return fmt.Errorf("-peers names %v, this node's own -id", self)
	}
	for id := range addrs {
		if !slices.Contains(nodes, id) {
			return fmt.Errorf("-peers names %v, which is not a node of the graph", id)
		}
	}
	return nil
}

// parsePeers parses "2=127.0.0.1:7102,3=host:port" into an address map,
// refusing an ID named twice.
func parsePeers(s string) (map[model.ID]string, error) {
	out := make(map[model.ID]string)
	if s == "" {
		return out, nil
	}
	for _, item := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(item), "=", 2)
		if len(kv) != 2 || kv[1] == "" {
			return nil, fmt.Errorf("bad peer spec %q (want ID=HOST:PORT)", item)
		}
		raw, err := strconv.ParseUint(kv[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad peer ID in %q", item)
		}
		if _, dup := out[model.ID(raw)]; dup {
			return nil, fmt.Errorf("peer ID %d named twice", raw)
		}
		out[model.ID(raw)] = kv[1]
	}
	return out, nil
}
