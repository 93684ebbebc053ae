package graph

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestParseDefRoundTrip(t *testing.T) {
	defs := []Def{
		{Kind: DefFigure, Figure: "fig1b"},
		{Kind: DefComplete, N: 7},
		{Kind: DefKOSR, Sink: 7, NonSink: 4, K: 3},
		{Kind: DefKOSR, Sink: 5, NonSink: 2, K: 2, ExtraEdgeP: 0.15},
		{Kind: DefExtended, Sink: 5, NonSink: 3},
		{Kind: DefExtended, Sink: 6, NonSink: 2, ExtraEdgeP: 0.2},
		{Kind: DefER, N: 16, P: 0.3},
		{Kind: DefER, N: 12, P: 0},
		{Kind: DefGeo, N: 16, R: 0.4},
		{Kind: DefSF, N: 16, M: 2},
	}
	for _, want := range defs {
		got, err := ParseDef(want.String())
		if err != nil {
			t.Fatalf("ParseDef(%q): %v", want.String(), err)
		}
		if got != want {
			t.Errorf("ParseDef(%q) = %+v, want %+v", want.String(), got, want)
		}
	}
	// Every family's head renders, parses back and is in the CLI help; a
	// kind without a family keeps its rendering.
	usage := DefUsage()
	for kind := DefComplete; kind <= DefSF; kind++ {
		fam := Def{Kind: kind}.String()
		head, _, _ := strings.Cut(fam, ":")
		if got, ok := defFamilies.Lookup(head); !ok || got.kind != kind {
			t.Errorf("kind %d renders head %q, which does not name it", kind, head)
		}
		if !strings.Contains(usage, head+":") {
			t.Errorf("DefUsage %q leaves out %s", usage, head)
		}
	}
	if got := (Def{Kind: DefKind(9)}).String(); got != "def(9)" {
		t.Errorf("Def{Kind: 9} renders %q, want def(9)", got)
	}
	const wantUsage = "a figure (fig1a…fig4b), complete:N, kosr:sink=S,nonsink=T,k=K[,extra=P], " +
		"extended:core=S,noncore=T[,extra=P], er:n=N,p=P, geo:n=N,r=R, sf:n=N,m=M"
	if usage != wantUsage {
		t.Errorf("DefUsage() = %q, want %q", usage, wantUsage)
	}
}

// TestDefRoundTripProperty sweeps the whole Def space — every figure, a
// range of complete sizes, and the generated k-OSR / extended families over
// enumerated and seeded-random parameters — asserting the canonical-form
// property ParseDef(d.String()) == d for every Def that Validate accepts.
// String and ParseDef are the lingua franca between graphgen, the CLIs and
// the matrix graph axis, so any value that survives one direction must
// survive the round trip exactly.
func TestDefRoundTripProperty(t *testing.T) {
	var defs []Def
	for _, name := range FigureNames() {
		defs = append(defs, Def{Kind: DefFigure, Figure: name})
	}
	for n := 1; n <= 16; n++ {
		defs = append(defs, Def{Kind: DefComplete, N: n})
	}
	extras := []float64{0, 0.15, 0.5, 1}
	for sink := 1; sink <= 8; sink++ {
		for nonsink := 0; nonsink <= 5; nonsink++ {
			for k := 1; k <= 4; k++ {
				for _, p := range extras {
					defs = append(defs, Def{Kind: DefKOSR, Sink: sink, NonSink: nonsink, K: k, ExtraEdgeP: p})
				}
			}
			for _, p := range extras {
				defs = append(defs, Def{Kind: DefExtended, Sink: sink, NonSink: nonsink, ExtraEdgeP: p})
			}
		}
	}
	// Seeded-random extra-edge probabilities: %g renders the shortest exact
	// form, so even arbitrary float64s must survive the round trip.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		defs = append(defs,
			Def{Kind: DefKOSR, Sink: 3 + rng.Intn(30), NonSink: rng.Intn(30), K: 1 + rng.Intn(6), ExtraEdgeP: rng.Float64()},
			Def{Kind: DefExtended, Sink: 3 + rng.Intn(30), NonSink: rng.Intn(30), ExtraEdgeP: rng.Float64()},
			Def{Kind: DefER, N: 1 + rng.Intn(40), P: rng.Float64()},
			Def{Kind: DefGeo, N: 1 + rng.Intn(40), R: 2 * rng.Float64()},
			Def{Kind: DefSF, N: 2 + rng.Intn(40), M: 1 + rng.Intn(6)})
	}
	checked := 0
	for _, want := range defs {
		if want.Validate() != nil {
			continue
		}
		got, err := ParseDef(want.String())
		if err != nil {
			t.Fatalf("ParseDef(%q): %v", want.String(), err)
		}
		if got != want {
			t.Errorf("ParseDef(%q) = %+v, want %+v", want.String(), got, want)
		}
		checked++
	}
	if checked < 500 {
		t.Fatalf("property only checked %d defs — the enumeration broke", checked)
	}
}

// TestValidateMatchesParseDef asserts Validate accepts exactly the Defs
// whose canonical form ParseDef accepts, on the same enumerated space the
// round-trip property uses.
func TestValidateMatchesParseDef(t *testing.T) {
	cases := []Def{
		{Kind: DefFigure, Figure: "fig1b"},
		{Kind: DefFigure, Figure: "nope"},
		{Kind: DefComplete, N: 0},
		{Kind: DefComplete, N: 3},
		{Kind: DefKOSR, Sink: 0, NonSink: 1, K: 1},
		{Kind: DefKOSR, Sink: 3, NonSink: -2, K: 1},
		{Kind: DefKOSR, Sink: 2, NonSink: 1, K: 3}, // structurally fine; fails only at Build
		{Kind: DefExtended, Sink: 2, NonSink: 1},
		{Kind: DefExtended, Sink: 4, NonSink: -1},
		{Kind: DefExtended, Sink: 3, NonSink: 0},
		{Kind: DefER, N: 8, P: 0.5},
		{Kind: DefER, N: 0, P: 0.5},
		{Kind: DefER, N: 8, P: 1.5},
		{Kind: DefER, N: 8, P: -0.1},
		{Kind: DefER, N: 8, P: math.NaN()}, // NaN survives %g→ParseFloat; both sides must reject it
		{Kind: DefGeo, N: 8, R: 0.4},
		{Kind: DefGeo, N: 8, R: -0.4},
		{Kind: DefGeo, N: 8, R: math.NaN()},
		{Kind: DefGeo, N: 0, R: 0.4},
		{Kind: DefSF, N: 8, M: 2},
		{Kind: DefSF, N: 8, M: 0},
		{Kind: DefSF, N: 8, M: 9},
		{Kind: DefKind(99)},
	}
	for _, d := range cases {
		verr := d.Validate()
		_, perr := ParseDef(d.String())
		if (verr == nil) != (perr == nil) {
			t.Errorf("def %+v: Validate err %v, ParseDef(%q) err %v — must agree", d, verr, d.String(), perr)
		}
	}
}

// TestParseDefFigures holds the figure registry's contract: every name
// FigureNames lists parses, and Build materializes exactly the figure of that
// name.
func TestParseDefFigures(t *testing.T) {
	for _, name := range FigureNames() {
		d, err := ParseDef(name)
		if err != nil {
			t.Fatalf("ParseDef(%q): %v", name, err)
		}
		b, err := d.Build(1)
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		if b.G.NumNodes() == 0 {
			t.Errorf("figure %q built empty", name)
		}
		build, _ := figureTable.Lookup(name)
		fig := build()
		if fig.Name != name {
			t.Errorf("registry entry %q builds figure %q", name, fig.Name)
		}
		if b.G.String() != fig.G.String() || b.F != fig.F || !b.Byz.Equal(fig.Byz) {
			t.Errorf("Build(%q) is not the figure of that name", name)
		}
	}
}

func TestParseDefErrors(t *testing.T) {
	for _, bad := range []string{
		"", "figZZ", "complete:0", "complete:x", "kosr:", "kosr:sink=0,nonsink=1,k=1",
		"kosr:bogus=3", "extended:core=2,noncore=1", "random:1:2", "kosr:sink",
		"kosr:sink=3,nonsink=-2,k=1", "extended:core=4,noncore=-1",
		"er:", "er:n=0,p=0.5", "er:n=8,p=1.5", "er:n=8,p=-0.1", "er:n=8,p=NaN",
		"er:n=8,q=0.5", "geo:", "geo:n=0,r=0.4", "geo:n=8,r=-1",
		"geo:n=8,r=NaN", "sf:", "sf:n=8,m=0", "sf:n=8,m=9", "sf:n=8,m=x",
		"complete:4097", "complete:3000000000", "er:n=4097,p=0.1", "geo:n=4097,r=0.1",
		"sf:n=4097,m=1", "kosr:sink=4000,nonsink=97,k=1", "extended:core=3,noncore=4094",
		"kosr:sink=1,nonsink=9223372036854775807,k=1",
	} {
		if _, err := ParseDef(bad); err == nil {
			t.Errorf("ParseDef(%q) unexpectedly succeeded", bad)
		}
	}
}

// TestParseDefLegacyForms pins that the old cupsim forms are refused and
// that the kosr:… and extended:… spellings of the same graphs parse.
func TestParseDefLegacyForms(t *testing.T) {
	for _, c := range []struct{ legacy, canonical string }{
		{"random:5:3:1", "kosr:sink=5,nonsink=3,k=2"},
		{"random-ext:5:3", "extended:core=5,noncore=3"},
	} {
		if _, err := ParseDef(c.legacy); err == nil {
			t.Errorf("ParseDef(%q) unexpectedly succeeded", c.legacy)
		}
		if _, err := ParseDef(c.canonical); err != nil {
			t.Errorf("ParseDef(%q): %v", c.canonical, err)
		}
	}
}

func TestDefBuildDeterministic(t *testing.T) {
	for _, s := range []string{
		"kosr:sink=6,nonsink=3,k=2,extra=0.3", "extended:core=5,noncore=4,extra=0.3",
		"er:n=14,p=0.3", "geo:n=14,r=0.4", "sf:n=14,m=2",
	} {
		d, err := ParseDef(s)
		if err != nil {
			t.Fatal(err)
		}
		a, err := d.Build(42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.Build(42)
		if err != nil {
			t.Fatal(err)
		}
		if a.G.String() != b.G.String() {
			t.Errorf("%s: same seed produced different graphs", s)
		}
		c, err := d.Build(43)
		if err != nil {
			t.Fatal(err)
		}
		if a.G.String() == c.G.String() {
			t.Errorf("%s: different seeds produced identical graphs (suspicious)", s)
		}
	}
}

// TestBuildKey pins the cache-key contract the scenario compile cache keys
// on: seed-insensitive families (figures, complete graphs) normalize every
// seed to one key, random families key by their build seed, and distinct
// defs never collide.
func TestBuildKey(t *testing.T) {
	fig := Def{Kind: DefFigure, Figure: "fig1b"}
	if fig.UsesSeed() {
		t.Error("figure def claims to use the seed")
	}
	if fig.BuildKey(1) != fig.BuildKey(2) {
		t.Error("figure def splits the cache by seed despite ignoring it")
	}
	complete := Def{Kind: DefComplete, N: 7}
	if complete.UsesSeed() || complete.BuildKey(1) != complete.BuildKey(99) {
		t.Error("complete def splits the cache by seed despite ignoring it")
	}
	kosr := Def{Kind: DefKOSR, Sink: 5, NonSink: 3, K: 2, ExtraEdgeP: 0.15}
	if !kosr.UsesSeed() {
		t.Error("kosr def claims to ignore the seed")
	}
	if kosr.BuildKey(1) == kosr.BuildKey(2) {
		t.Error("kosr builds differ by seed but share a key (stale graph reuse)")
	}
	if kosr.BuildKey(1) != kosr.BuildKey(1) {
		t.Error("kosr key is not deterministic")
	}
	ext := Def{Kind: DefExtended, Sink: 5, NonSink: 3, ExtraEdgeP: 0.15}
	if !ext.UsesSeed() {
		t.Error("extended def claims to ignore the seed")
	}
	er := Def{Kind: DefER, N: 12, P: 0.3}
	geo := Def{Kind: DefGeo, N: 12, R: 0.3}
	sf := Def{Kind: DefSF, N: 12, M: 2}
	for _, d := range []Def{er, geo, sf} {
		if !d.UsesSeed() {
			t.Errorf("%s claims to ignore the seed", d)
		}
		if d.BuildKey(1) == d.BuildKey(2) {
			t.Errorf("%s builds differ by seed but share a key (stale graph reuse)", d)
		}
	}
	keys := map[string]Def{}
	for _, d := range []Def{fig, complete, kosr, ext, er, geo, sf} {
		k := d.BuildKey(1)
		if prev, dup := keys[k]; dup {
			t.Errorf("defs %s and %s share key %q", prev, d, k)
		}
		keys[k] = d
	}
}
