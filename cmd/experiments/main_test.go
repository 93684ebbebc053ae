package main

import (
	"strings"
	"testing"
)

// TestRunGroups: -run's help lists every paper-suite group then all, and
// each group runs exactly the experiments named after it.
func TestRunGroups(t *testing.T) {
	_, list, _ := strings.Cut(runHelp, ": ")
	list, _, _ = strings.Cut(list, " (")
	want := []string{"table1", "fig1", "fig2", "fig3", "fig4", "all"}
	if got := strings.Split(list, ", "); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("-run help lists %q, want %q", got, want)
	}
	for _, g := range paperGroups {
		exps := g.Value.experiments()
		if len(exps) == 0 {
			t.Errorf("group %s has no experiments", g.Name)
		}
		for _, exp := range exps {
			if !strings.HasPrefix(exp.ID, g.Name) {
				t.Errorf("group %s runs experiment %s", g.Name, exp.ID)
			}
		}
	}
}
