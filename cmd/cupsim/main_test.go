package main

import (
	"flag"
	"slices"
	"strings"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/scenario"
)

// helpExamples returns the examples a flag's help gives after "e.g.":
// "or"-separated, each the first word after it, shell quotes removed.
func helpExamples(help string) []string {
	_, list, ok := strings.Cut(help, "e.g. ")
	if !ok {
		return nil
	}
	var out []string
	for _, ex := range strings.Split(list, " or ") {
		out = append(out, strings.Trim(strings.Fields(ex)[0], "'"))
	}
	return out
}

// TestFlagHelpExamplesParse feeds every example in cupsim's flag help
// through that flag's parser: an example a user copies must run. And every
// list of names in the help is its vocabulary's whole table.
func TestFlagHelpExamplesParse(t *testing.T) {
	parsers := map[string]func(string) error{
		"autobyz": func(s string) error {
			_, err := scenario.ParseAutoByz(s)
			return err
		},
		"byz": func(s string) error {
			_, err := scenario.ParseByzList(s)
			return err
		},
		"slow": func(s string) error {
			_, err := parseGroups(s)
			return err
		},
		"partition": func(s string) error {
			_, err := buildFaults(0, 0, 0, s, "", false)
			return err
		},
		"churn": func(s string) error {
			_, err := buildFaults(0, 0, 0, "", s, false)
			return err
		},
	}
	seen := 0
	flag.VisitAll(func(f *flag.Flag) {
		examples := helpExamples(f.Usage)
		if len(examples) == 0 {
			return
		}
		seen++
		parse, ok := parsers[f.Name]
		if !ok {
			t.Errorf("-%s gives examples %q but the table has no parser for it", f.Name, examples)
			return
		}
		for _, ex := range examples {
			if err := parse(ex); err != nil {
				t.Errorf("-%s %s: %v", f.Name, ex, err)
			}
		}
	})
	if seen != len(parsers) {
		t.Errorf("%d flags give examples, the table parses %d", seen, len(parsers))
	}
	checkHelpLists(t)
}

// helpList returns the "|"-separated list a help text gives after label, up
// to the closing parenthesis or the end.
func helpList(help, label string) []string {
	_, list, ok := strings.Cut(help, label)
	if !ok {
		return nil
	}
	list, _, _ = strings.Cut(list, ")")
	return strings.Split(list, "|")
}

// checkHelpLists: the help of -mode, -net, -byz and -autobyz lists every
// value of its vocabulary, in order, and -graph every family head.
func checkHelpLists(t *testing.T) {
	usage := func(name string) string { return flag.CommandLine.Lookup(name).Usage }
	lists := []struct {
		flag, label string
		names       []string
	}{
		{"mode", "protocol: ", nil},
		{"net", "network model: ", nil},
		{"byz", "(kinds: ", nil},
		{"autobyz", "(place: ", nil},
	}
	for m := core.ModeKnownF; m <= core.ModePermissioned; m++ {
		lists[0].names = append(lists[0].names, m.String())
	}
	for k := scenario.NetSync; k <= scenario.NetAsync; k++ {
		lists[1].names = append(lists[1].names, k.String())
	}
	for k := scenario.ByzSilent; k <= scenario.ByzCollude; k++ {
		lists[2].names = append(lists[2].names, k.String())
	}
	for p := scenario.PlaceFigure; p <= scenario.PlaceWorst; p++ {
		lists[3].names = append(lists[3].names, p.String())
	}
	for _, l := range lists {
		if got := helpList(usage(l.flag), l.label); !slices.Equal(got, l.names) {
			t.Errorf("-%s help lists %q, want %q", l.flag, got, l.names)
		}
	}
	for kind := graph.DefComplete; kind <= graph.DefSF; kind++ {
		head, _, _ := strings.Cut(graph.Def{Kind: kind}.String(), ":")
		if !strings.Contains(usage("graph"), ", "+head+":") {
			t.Errorf("-graph help %q leaves out %s", usage("graph"), head)
		}
	}
}
