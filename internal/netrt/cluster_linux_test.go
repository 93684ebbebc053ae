package netrt

import (
	"os"
	"strings"
	"testing"
	"time"
)

// tcpRows returns the fields of every IPv4 socket row in /proc/net/tcp:
// [1] local address, [2] remote address, [3] state, [9] inode.
func tcpRows(t *testing.T) [][]string {
	t.Helper()
	raw, err := os.ReadFile("/proc/net/tcp")
	if err != nil {
		t.Skipf("no /proc/net/tcp: %v", err)
	}
	var rows [][]string
	for _, line := range strings.Split(string(raw), "\n")[1:] {
		if f := strings.Fields(line); len(f) >= 10 {
			rows = append(rows, f)
		}
	}
	return rows
}

// port is the hex port of a /proc/net/tcp address ("0100007F:1F90").
func port(addr string) string { return addr[strings.IndexByte(addr, ':')+1:] }

// ownListenPorts returns the ports of this process's listening TCP sockets,
// found by matching the socket inodes among its open files.
func ownListenPorts(t *testing.T) map[string]bool {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	inodes := map[string]bool{}
	for _, fd := range fds {
		link, err := os.Readlink("/proc/self/fd/" + fd.Name())
		if inode, ok := strings.CutPrefix(link, "socket:["); err == nil && ok {
			inodes[strings.TrimSuffix(inode, "]")] = true
		}
	}
	ports := map[string]bool{}
	for _, f := range tcpRows(t) {
		if f[3] == "0A" && inodes[f[9]] {
			ports[port(f[1])] = true
		}
	}
	return ports
}

// TestClusterLeavesNoTimeWait boots and stops ten 8-node TCP clusters and
// counts the TIME_WAIT sockets (state 06) left on their listeners' ports.
// A graceful close parks one socket per stream, 28 a cluster, for a minute;
// a few hundred boots then fill the kernel's table and every later connect
// slows down.
func TestClusterLeavesNoTimeWait(t *testing.T) {
	ports := map[string]bool{}
	for i := 0; i < 10; i++ {
		c, up := bootMesh(t, eightIDs(), "tcp")
		select {
		case <-up:
		case <-time.After(10 * time.Second):
			c.Stop()
			t.Fatal("the mesh never came up")
		}
		listening := ownListenPorts(t)
		if len(listening) < 8 {
			c.Stop()
			t.Fatalf("found %d listening ports of an 8-node cluster, want at least 8", len(listening))
		}
		for p := range listening {
			ports[p] = true
		}
		c.Stop()
	}
	waiting := 0
	for _, f := range tcpRows(t) {
		if f[3] == "06" && (ports[port(f[1])] || ports[port(f[2])]) {
			waiting++
		}
	}
	t.Logf("%d TIME_WAIT sockets after ten clusters", waiting)
	if waiting >= 28 {
		t.Fatalf("ten cluster boots left %d sockets in TIME_WAIT, want fewer than 28 (one cluster's streams)", waiting)
	}
}
