package graph

import (
	"sort"
	"strings"
	"testing"
)

// TestFigureRegistryOrder holds FigureNames and AllFigures to one order, the
// sorted one ParseDef's error message lists.
func TestFigureRegistryOrder(t *testing.T) {
	names := FigureNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("FigureNames() = %v, not sorted", names)
	}
	figs := AllFigures()
	if len(figs) != len(names) {
		t.Fatalf("AllFigures() builds %d figures, FigureNames() lists %d", len(figs), len(names))
	}
	for i, fig := range figs {
		if fig.Name != names[i] {
			t.Errorf("AllFigures()[%d] is %q, FigureNames()[%d] is %q", i, fig.Name, i, names[i])
		}
	}
	for _, name := range []string{"", "fig", "fig5", "FIG1B", "fig1b "} {
		if _, ok := figureTable.Lookup(name); ok {
			t.Errorf("figureTable.Lookup(%q) found a constructor", name)
		}
	}
}

// TestUnknownFigureError pins the unknown-figure message byte for byte: it
// names every figure, sorted.
func TestUnknownFigureError(t *testing.T) {
	const want = `graph def: unknown figure "fig9" (figures: fig1a fig1b fig2a fig2b fig2c fig3a fig3b fig4a fig4a-without-added-links fig4b)`
	for _, err := range []error{
		Def{Kind: DefFigure, Figure: "fig9"}.Validate(),
		func() error { _, err := ParseDef("fig9"); return err }(),
	} {
		if err == nil || err.Error() != want {
			t.Errorf("error = %v\nwant    %s", err, want)
		}
	}
	if _, err := (Def{Kind: DefFigure, Figure: "fig9"}).Build(0); err == nil || !strings.Contains(err.Error(), `unknown figure "fig9"`) {
		t.Errorf("Build of an unknown figure: %v", err)
	}
}

// lookupSlack is what Build may allocate beyond the figure's own
// constructor.
const lookupSlack = 2

// TestFigureLookupAllocs is the allocation gate of the figure registry: a
// lookup builds the one figure it names. Validate builds none, so it
// allocates nothing; Build of fig4b allocates what Fig4b() does, plus at most
// lookupSlack. A lookup that builds every figure allocates for all ten.
func TestFigureLookupAllocs(t *testing.T) {
	d := Def{Kind: DefFigure, Figure: "fig4b"}
	validate := testing.AllocsPerRun(50, func() {
		if d.Validate() != nil {
			t.Fatal("fig4b does not validate")
		}
	})
	ctor := testing.AllocsPerRun(20, func() { Fig4b() })
	build := testing.AllocsPerRun(20, func() {
		if _, err := d.Build(0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs: Validate %.0f, Fig4b() %.0f, Build %.0f", validate, ctor, build)
	if validate != 0 {
		t.Errorf("Validate of a figure def allocates %.0f times, want 0", validate)
	}
	if build > ctor+lookupSlack {
		t.Errorf("Build of fig4b allocates %.0f times, Fig4b() %.0f: more than %d over", build, ctor, lookupSlack)
	}
}
