package main

import (
	"flag"
	"strings"
	"testing"

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
// through that flag's parser: an example a user copies must run.
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
}
