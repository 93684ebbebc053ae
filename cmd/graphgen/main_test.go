package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestReportGolden pins the whole report, the catalogue of the full graph's
// sinks included, on three inputs: Fig. 2c, whose catalogue holds
// {p1,…,p8} at f_G=0, a set only a level below the core's finds; Fig. 3a,
// where C2 fails and {p5,p7,p8} sits at f_G=1; and an Erdős–Rényi seed with
// two sink components, which fails the 1-OSR gate and prints no catalogue.
// Regenerate with -update only for a deliberate change of the report.
func TestReportGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range []struct {
		def  string
		seed int64
	}{{"fig2c", 1}, {"fig3a", 1}, {"er:n=20,p=0.3", 2374}} {
		def, err := graph.ParseDef(c.def)
		if err != nil {
			t.Fatal(err)
		}
		built, err := def.Build(c.seed)
		if err != nil {
			t.Fatal(err)
		}
		byz, f := built.Byz, built.F
		if def.Kind != graph.DefFigure {
			byz, f = model.NewIDSet(), 1
		}
		ok := report(&b, def, built.G, byz, f, c.seed)
		fmt.Fprintf(&b, "ok=%v\n\n", ok)
	}
	if strings.Contains(b.String(), "{p1,p2,p3,p4,p5,p6,p7,p8}  f_G=0") == false ||
		!strings.Contains(b.String(), "{p5,p7,p8}  f_G=1") || !strings.Contains(b.String(), "2 sink components") {
		t.Fatalf("the three inputs no longer show what they were chosen for:\n%s", b.String())
	}
	const path = "testdata/report.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("report differs from the recorded one:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestReportFormat pins the output contract: first line is the
// matrix-consumable def (with the seed), and that def string parses back to
// the same definition and rebuilds the same graph.
func TestReportFormat(t *testing.T) {
	def, err := graph.ParseDef("kosr:sink=5,nonsink=3,k=2,extra=0.15")
	if err != nil {
		t.Fatal(err)
	}
	built, err := def.Build(7)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	ok := report(&out, def, built.G, model.NewIDSet(), 1, 7)
	if !ok {
		t.Fatal("planted kosr graph failed validation")
	}
	lines := strings.Split(out.String(), "\n")
	if len(lines) < 3 {
		t.Fatalf("report too short:\n%s", out.String())
	}
	defLine := lines[0]
	if !strings.HasPrefix(defLine, "def: ") || !strings.HasSuffix(defLine, " seed=7") {
		t.Fatalf("def line format broken: %q", defLine)
	}
	emitted := strings.TrimSuffix(strings.TrimPrefix(defLine, "def: "), " seed=7")
	back, err := graph.ParseDef(emitted)
	if err != nil {
		t.Fatalf("emitted def %q does not parse: %v", emitted, err)
	}
	if back != def {
		t.Fatalf("emitted def round-trips to %+v, want %+v", back, def)
	}
	rebuilt, err := back.Build(7)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.G.String() != built.G.String() {
		t.Fatal("emitted def + seed rebuilds a different graph")
	}
	if !strings.Contains(out.String(), "BFT-CUP   : ✓") {
		t.Fatalf("missing BFT-CUP verdict:\n%s", out.String())
	}
}

// TestReportWorstPlacement pins the line that looks past the byz set given:
// Fig. 1b passes both models with its scripted p4 Byzantine, and the report
// must still name the placement an optimal adversary would pick at each f.
func TestReportWorstPlacement(t *testing.T) {
	def, err := graph.ParseDef("fig1b")
	if err != nil {
		t.Fatal(err)
	}
	built, err := def.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	for f, want := range []string{
		"worst placement (f=0): {} margin 1\n",
		"worst placement (f=1): {p1} margin 1\n",
		"worst placement (f=2): {p1,p2} margin -1\n",
	} {
		var out strings.Builder
		report(&out, def, built.G, built.Byz, f, 1)
		if !strings.Contains(out.String(), want) {
			t.Fatalf("f=%d: report lacks %q:\n%s", f, want, out.String())
		}
	}
}

// TestRunRefusesBadFlags holds graphgen to the defs the rest of the tool
// chain accepts: a def ParseDef refuses, a fault threshold below -1 or a
// -byz ID outside the graph is a usage error, and nothing is printed.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		err  string
	}{
		{[]string{"-graph", "kosr:sink=5,nonsink=-2,k=2"}, "nonsink ≥ 0"},
		{[]string{"-graph", "kosr:sink=5,nonsink=3,k=2,extra=3"}, "0 ≤ extra ≤ 1"},
		{[]string{"-graph", "kosr:sink=5,nonsink=3,k=2,extra=-1"}, "0 ≤ extra ≤ 1"},
		{[]string{"-graph", "extended:core=5,noncore=3,extra=-1"}, "0 ≤ extra ≤ 1"},
		{[]string{"-graph", "bogus:x=1"}, "unknown graph def"},
		{[]string{"-graph", "fig9z"}, "unknown figure"},
		{[]string{"-f", "-2"}, "must be ≥ 0"},
		{[]string{"-graph", "fig1b", "-f", "-2"}, "must be ≥ 0"},
		{[]string{"-byz", "99"}, "p99, which is not a node"},
		{[]string{"-graph", "fig1b", "-byz", "4,99"}, "p99, which is not a node"},
	} {
		var out strings.Builder
		_, err := run(c.args, &out)
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%v: err = %v, want one containing %q", c.args, err, c.err)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before refusing", c.args, out.String())
		}
	}
}

// TestBuildDefFigure: a figure name given to -graph builds that figure, its
// def line names the figure, and a def of an unknown kind is refused.
func TestBuildDefFigure(t *testing.T) {
	var out strings.Builder
	if _, err := run([]string{"-graph", "fig4a"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "def: fig4a seed=1\n") {
		t.Fatalf("figure def wrong:\n%s", out.String())
	}
	def, err := graph.ParseDef("fig4a")
	if err != nil || def.Kind != graph.DefFigure || def.Figure != "fig4a" {
		t.Fatalf("figure def wrong: %+v, %v", def, err)
	}
	if _, err := run([]string{"-graph", "bogus:sink=1,nonsink=1"}, &out); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestBuildDefExtended: an extended def given to -graph builds the planted
// graph of core+noncore nodes, and that graph passes BFT-CUPFT validation at
// its own threshold f_G, which run uses when -f is not given.
func TestBuildDefExtended(t *testing.T) {
	var out strings.Builder
	ok, err := run([]string{"-graph", "extended:core=6,noncore=2,extra=0.1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("planted extended graph failed validation:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "# 8 nodes,") {
		t.Fatalf("extended graph does not have 8 nodes:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "BFT-CUPFT : ✓") {
		t.Fatalf("missing BFT-CUPFT verdict:\n%s", out.String())
	}
}

// TestRunEmitParses: the def on the report's first line is a def ParseDef
// takes back unchanged, so it can be handed to cupsim -graph as it stands;
// a figure's report states its scripted Byzantine set unless -byz overrides.
func TestRunEmitParses(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-graph", "extended:core=6,noncore=0,extra=1"},
		{"-graph", "kosr:sink=5,nonsink=3,k=1,extra=0", "-f", "0"},
	} {
		var out strings.Builder
		if ok, err := run(args, &out); err != nil || !ok {
			t.Fatalf("%v: ok=%v err=%v", args, ok, err)
		}
		defLine, _, _ := strings.Cut(out.String(), "\n")
		emitted, _, _ := strings.Cut(strings.TrimPrefix(defLine, "def: "), " seed=")
		if def, err := graph.ParseDef(emitted); err != nil || def.String() != emitted {
			t.Fatalf("%v: def line %q parses to %q, %v", args, emitted, def.String(), err)
		}
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-graph", "fig1b"}, "byz={p4}, f=1\n"},
		{[]string{"-graph", "fig1b", "-byz", "1", "-f", "2"}, "byz={p1}, f=2\n"},
	} {
		var out strings.Builder
		if _, err := run(c.args, &out); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if !strings.Contains(out.String(), c.want) {
			t.Fatalf("%v: report lacks %q:\n%s", c.args, c.want, out.String())
		}
	}
}

// TestRunDefaults: without -f a def validates at its family's own threshold,
// and an explicit -f wins. The CLI reaches every family: the er block of the
// pinned golden report is exactly what graphgen prints for it.
func TestRunDefaults(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "byz={}, f=1\n"},
		{[]string{"-graph", "extended:core=6,noncore=2,extra=0.1"}, "8 nodes, 36 edges, byz={}, f=2\n"},
		{[]string{"-graph", "extended:core=6,noncore=2,extra=0.1", "-f", "1"}, "byz={}, f=1\n"},
		{[]string{"-graph", "kosr:sink=5,nonsink=3,k=3,extra=0", "-f", "0"}, "byz={}, f=0\n"},
	} {
		var out strings.Builder
		if _, err := run(c.args, &out); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if !strings.Contains(out.String(), c.want) {
			t.Fatalf("%v: report lacks %q:\n%s", c.args, c.want, out.String())
		}
	}

	var out strings.Builder
	ok, err := run([]string{"-graph", "er:n=20,p=0.3", "-seed", "2374", "-f", "1"}, &out)
	if err != nil || ok {
		t.Fatalf("er report: ok=%v err=%v, want a graph neither model accepts", ok, err)
	}
	golden, err := os.ReadFile("testdata/report.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(golden), out.String()+"ok=false\n") {
		t.Fatalf("graphgen's er report differs from the golden one:\n%s", out.String())
	}
}
