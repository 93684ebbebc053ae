package main

import (
	"reflect"
	"strings"
	"testing"

	"github.com/bftcup/bftcup/internal/model"
)

func TestParsePeers(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     map[model.ID]string
		err      string // a substring of the error; "" = accepted
	}{
		{name: "empty", in: "", want: map[model.ID]string{}},
		{name: "valid", in: "2=127.0.0.1:7102,3=host:7103",
			want: map[model.ID]string{2: "127.0.0.1:7102", 3: "host:7103"}},
		{name: "whitespace around items", in: " 2=127.0.0.1:7102 ,\t3=host:7103 ",
			want: map[model.ID]string{2: "127.0.0.1:7102", 3: "host:7103"}},
		{name: "duplicate ID", in: "2=a:1,2=b:2", err: "peer ID 2 named twice"},
		{name: "missing =", in: "2=a:1,3:b:2", err: `bad peer spec "3:b:2"`},
		{name: "empty address", in: "2=", err: `bad peer spec "2="`},
		{name: "trailing comma", in: "2=a:1,", err: `bad peer spec ""`},
		{name: "non-numeric ID", in: "two=a:1", err: `bad peer ID in "two=a:1"`},
		{name: "negative ID", in: "-2=a:1", err: `bad peer ID in "-2=a:1"`},
		{name: "space inside an item", in: "2 =a:1", err: `bad peer ID in "2 =a:1"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parsePeers(tc.in)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("parsePeers(%q) = %v, %v; want an error containing %s", tc.in, got, err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("parsePeers(%q): %v", tc.in, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parsePeers(%q) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

// TestCheckScale: -scale divides every duration, so a divisor below 1 is
// refused before either mode starts (0 used to panic computing the default
// -deadline; a negative one timed out at once).
func TestCheckScale(t *testing.T) {
	for _, tc := range []struct {
		scale int64
		ok    bool
	}{{-1, false}, {0, false}, {1, true}, {10, true}} {
		if err := checkScale(tc.scale); (err == nil) != tc.ok {
			t.Errorf("checkScale(%d) = %v, want ok=%t", tc.scale, err, tc.ok)
		}
	}
}

// TestCheckPeers: a -peers entry for the node itself or for a process
// outside the graph is refused, not silently ignored.
func TestCheckPeers(t *testing.T) {
	nodes := []model.ID{1, 2, 3, 4}
	for _, tc := range []struct {
		name, peers string
		self        model.ID
		err         string // a substring of the error; "" = accepted
	}{
		{name: "every other node", peers: "2=a:2,3=a:3,4=a:4", self: 1},
		{name: "higher IDs only", peers: "4=a:4", self: 3},
		{name: "no peers", peers: "", self: 4},
		{name: "own ID", peers: "2=a:2,1=a:1", self: 1, err: "p1, this node's own -id"},
		{name: "ID outside the graph", peers: "99=a:99,2=a:2", self: 1, err: "p99, which is not a node"},
		{name: "both", peers: "99=a:99,1=a:1", self: 1, err: "p1, this node's own -id"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs, err := parsePeers(tc.peers)
			if err != nil {
				t.Fatal(err)
			}
			err = checkPeers(addrs, nodes, tc.self)
			if tc.err == "" {
				if err != nil {
					t.Fatalf("checkPeers(%q, self %d): %v", tc.peers, tc.self, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("checkPeers(%q, self %d) = %v; want an error containing %q", tc.peers, tc.self, err, tc.err)
			}
		})
	}
}
