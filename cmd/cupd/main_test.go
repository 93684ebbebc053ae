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
