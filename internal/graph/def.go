package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"github.com/bftcup/bftcup/internal/model"
)

// DefKind enumerates the graph families a Def can describe.
type DefKind int

// Graph families.
const (
	// DefFigure is a reconstructed paper figure (fig1a … fig4b).
	DefFigure DefKind = iota
	// DefComplete is the complete digraph on N nodes (the permissioned
	// baseline).
	DefComplete
	// DefKOSR is a random k-OSR graph from GenKOSR.
	DefKOSR
	// DefExtended is a random extended k-OSR graph from GenExtendedKOSR.
	DefExtended
	// DefER is a directed Erdős–Rényi graph from GenER.
	DefER
	// DefGeo is a random geometric digraph from GenGeometric.
	DefGeo
	// DefSF is a scale-free (Barabási–Albert-style) digraph from GenScaleFree.
	DefSF
)

// Def is a compact, textual, matrix-consumable description of a knowledge
// connectivity graph: either a paper figure by name or a parameterized random
// family. It is the lingua franca between graphgen (which emits defs),
// cupsim/experiments (which accept them on the command line) and the matrix
// engine (which sweeps over them). The canonical syntax, produced by String
// and accepted by ParseDef:
//
//	fig1b                                  a paper figure
//	complete:7                             complete digraph on 7 nodes
//	kosr:sink=7,nonsink=4,k=3[,extra=0.15] random k-OSR family
//	extended:core=5,noncore=3[,extra=0.15] random extended k-OSR family
//	er:n=16,p=0.3                          directed Erdős–Rényi G(n, p)
//	geo:n=16,r=0.4                         random geometric digraph (unit square)
//	sf:n=16,m=2                            scale-free (Barabási–Albert) digraph
//
// The er/geo/sf families carry no planted sink or core: unlike the
// constructive kosr/extended generators, whether the graded sink/core
// properties hold on a draw is exactly the question a probabilistic sweep
// measures.
type Def struct {
	// Kind selects the family (figure, complete, k-OSR, extended k-OSR,
	// Erdős–Rényi, geometric, scale-free).
	Kind DefKind
	// Figure is the figure name for DefFigure.
	Figure string
	// N is the node count for DefComplete, DefER, DefGeo and DefSF.
	N int
	// Sink is the sink (kosr) or core (extended) size.
	Sink int
	// NonSink is the non-sink / non-core size.
	NonSink int
	// K is the required connectivity for DefKOSR (f+1).
	K int
	// ExtraEdgeP is the extra-edge probability for the kosr/extended families.
	ExtraEdgeP float64
	// P is the edge probability for DefER.
	P float64
	// R is the connection radius for DefGeo (unit square, Euclidean).
	R float64
	// M is the per-node attachment count for DefSF.
	M int
}

// BuiltGraph is the result of materializing a Def.
type BuiltGraph struct {
	// G is the materialized knowledge connectivity graph.
	G *Digraph
	// F is the natural fault threshold of the family: the figure's F, k-1
	// for k-OSR, f_G for extended, ⌊(n-1)/3⌋ for complete. Callers may
	// override it.
	F int
	// Byz is the figure's scripted Byzantine set (empty for generators).
	Byz model.IDSet
	// Sink is the planted sink/core for generators, the expected sink for
	// figures (nil when the figure defines none).
	Sink model.IDSet
}

// defFamily is one generated family: its kind and its fields in canonical
// order.
type defFamily struct {
	kind   DefKind
	fields []defField
}

// defField is one field of a family: its key (empty for complete's bare
// count), the placeholder the CLI help shows, and where its value lives —
// at returns an *int or a *float64 into the Def. An optional field is left
// out of String unless positive and bracketed in the help.
type defField struct {
	key, meta string
	optional  bool
	at        func(*Def) any
}

// defFamilies is the one table of the generated families, by head: String
// writes, ParseDef reads and DefUsage lists exactly these heads and fields.
var defFamilies = model.Names[defFamily]{
	{"complete", defFamily{DefComplete, []defField{
		{"", "N", false, func(d *Def) any { return &d.N }}}}},
	{"kosr", defFamily{DefKOSR, []defField{
		{"sink", "S", false, func(d *Def) any { return &d.Sink }},
		{"nonsink", "T", false, func(d *Def) any { return &d.NonSink }},
		{"k", "K", false, func(d *Def) any { return &d.K }},
		{"extra", "P", true, func(d *Def) any { return &d.ExtraEdgeP }}}}},
	{"extended", defFamily{DefExtended, []defField{
		{"core", "S", false, func(d *Def) any { return &d.Sink }},
		{"noncore", "T", false, func(d *Def) any { return &d.NonSink }},
		{"extra", "P", true, func(d *Def) any { return &d.ExtraEdgeP }}}}},
	{"er", defFamily{DefER, []defField{
		{"n", "N", false, func(d *Def) any { return &d.N }},
		{"p", "P", false, func(d *Def) any { return &d.P }}}}},
	{"geo", defFamily{DefGeo, []defField{
		{"n", "N", false, func(d *Def) any { return &d.N }},
		{"r", "R", false, func(d *Def) any { return &d.R }}}}},
	{"sf", defFamily{DefSF, []defField{
		{"n", "N", false, func(d *Def) any { return &d.N }},
		{"m", "M", false, func(d *Def) any { return &d.M }}}}},
}

// DefUsage lists the def forms for a CLI's help: the figure range, then
// every family's head and fields as String writes them.
func DefUsage() string {
	names := FigureNames()
	forms := []string{"a figure (" + names[0] + "…" + names[len(names)-1] + ")"}
	for _, fam := range defFamilies {
		form := fam.Name + ":"
		for i, f := range fam.Value.fields {
			field := f.meta
			if f.key != "" {
				field = f.key + "=" + f.meta
			}
			if i > 0 {
				field = "," + field
			}
			if f.optional {
				field = "[" + field + "]"
			}
			form += field
		}
		forms = append(forms, form)
	}
	return strings.Join(forms, ", ")
}

// String renders the canonical textual form, parseable by ParseDef.
func (d Def) String() string {
	if d.Kind == DefFigure {
		return d.Figure
	}
	return d.familyString()
}

// familyString renders a generated family's def. It is apart from String so
// that a figure's rendering does not pay for the copy of d that handing &d
// to the field accessors moves to the heap.
func (d Def) familyString() string {
	for _, fam := range defFamilies {
		if fam.Value.kind != d.Kind {
			continue
		}
		b := append(make([]byte, 0, 48), fam.Name...)
		sep := byte(':')
		for _, f := range fam.Value.fields {
			at := f.at(&d)
			if x, ok := at.(*float64); ok && f.optional && !(*x > 0) {
				continue
			}
			if b = append(b, sep); f.key != "" {
				b = append(append(b, f.key...), '=')
			}
			switch v := at.(type) {
			case *int:
				b = strconv.AppendInt(b, int64(*v), 10)
			case *float64:
				b = strconv.AppendFloat(b, *v, 'g', -1, 64)
			}
			sep = ','
		}
		return string(b)
	}
	return fmt.Sprintf("def(%d)", int(d.Kind))
}

// Validate applies the structural checks every Def is held to, parsed or
// built in code: the figure must exist, sizes and probabilities must be in
// range. ParseDef ends with it, and lazy sweep sources call it once per axis
// value instead of materializing every cell; seed-dependent generation
// failures (a spec the generator cannot satisfy) still surface from Build.
func (d Def) Validate() error {
	switch d.Kind {
	case DefFigure:
		if _, ok := figureTable.Lookup(d.Figure); !ok {
			return fmt.Errorf("graph def: unknown figure %q (figures: %s)", d.Figure, figureTable.Join(" "))
		}
	case DefComplete:
		if d.N < 1 {
			return fmt.Errorf("graph def %q: need N ≥ 1", d)
		}
	case DefKOSR:
		if d.Sink <= 0 || d.K <= 0 || d.NonSink < 0 || !(d.ExtraEdgeP >= 0 && d.ExtraEdgeP <= 1) {
			return fmt.Errorf("graph def %q: need sink ≥ 1, k ≥ 1, nonsink ≥ 0 and 0 ≤ extra ≤ 1", d)
		}
	case DefExtended:
		if d.Sink < 3 || d.NonSink < 0 || !(d.ExtraEdgeP >= 0 && d.ExtraEdgeP <= 1) {
			return fmt.Errorf("graph def %q: need core ≥ 3, noncore ≥ 0 and 0 ≤ extra ≤ 1", d)
		}
	case DefER:
		if d.N < 1 || !(d.P >= 0 && d.P <= 1) {
			return fmt.Errorf("graph def %q: need n ≥ 1 and 0 ≤ p ≤ 1", d)
		}
	case DefGeo:
		if d.N < 1 || !(d.R >= 0) {
			return fmt.Errorf("graph def %q: need n ≥ 1 and r ≥ 0", d)
		}
	case DefSF:
		if d.N < 1 || d.M < 1 || d.M > d.N {
			return fmt.Errorf("graph def %q: need n ≥ 1 and 1 ≤ m ≤ n", d)
		}
	default:
		return fmt.Errorf("graph def: unknown kind %d", int(d.Kind))
	}
	// Build allocates every process (a complete graph N(N−1) edges), so the
	// size is capped before anything is built. A family sets N, or Sink and
	// NonSink, and leaves the others zero.
	if d.N > maxProcesses || d.Sink > maxProcesses || d.NonSink > maxProcesses-d.Sink {
		return fmt.Errorf("graph def %q: more than %d processes", d, maxProcesses)
	}
	return nil
}

// maxProcesses caps a def's process count, far above the largest def the
// repository runs (70 processes: er:n=70, kosr:sink=66,nonsink=4).
const maxProcesses = 4096

// UsesSeed reports whether Build's output depends on the seed. Figures and
// complete graphs are fixed constructions; only the random families draw
// from the generator RNG.
func (d Def) UsesSeed() bool {
	switch d.Kind {
	case DefKOSR, DefExtended, DefER, DefGeo, DefSF:
		return true
	}
	return false
}

// BuildKey returns the canonical cache key identifying Build(seed)'s output:
// the canonical def string plus the effective seed, normalized to 0 for
// seed-insensitive families so every seed maps to the one cache entry it
// shares. Two defs with equal BuildKeys build identical graphs; the scenario
// compilation cache keys on it.
func (d Def) BuildKey(seed int64) string {
	if !d.UsesSeed() {
		seed = 0
	}
	return fmt.Sprintf("%s@%d", d.String(), seed)
}

// ParseDef parses the canonical textual form (see Def): it reads the fields
// and leaves the ranges to Validate, so parsed and built-in-code defs are held
// to the same checks.
func ParseDef(s string) (Def, error) {
	s = strings.TrimSpace(s)
	head, rest, hasRest := strings.Cut(s, ":")
	d := Def{Kind: DefFigure, Figure: head}
	if fam, ok := defFamilies.Lookup(head); ok {
		d = Def{Kind: fam.kind}
		if err := fam.parse(&d, head, rest); err != nil {
			return Def{}, fmt.Errorf("graph def %q: %w", s, err)
		}
	} else if hasRest {
		return Def{}, fmt.Errorf("unknown graph def %q", s)
	}
	if err := d.Validate(); err != nil {
		return Def{}, err
	}
	return d, nil
}

// parse reads a family's fields from the text after its head: key=value
// items in any order, or complete's bare count.
func (fam defFamily) parse(d *Def, head, rest string) error {
	if f := fam.fields[0]; f.key == "" {
		if setField(f.at(d), rest) != nil {
			return fmt.Errorf("want %s:%s with %s ≥ 1", head, f.meta, f.meta)
		}
		return nil
	}
	if rest == "" {
		return fmt.Errorf("missing parameters")
	}
	for _, item := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(item, "=")
		if !ok {
			return fmt.Errorf("bad parameter %q (want key=value)", item)
		}
		i := slices.IndexFunc(fam.fields, func(f defField) bool { return f.key == k })
		if i < 0 {
			return fmt.Errorf("unknown parameter %q", k)
		}
		if err := setField(fam.fields[i].at(d), v); err != nil {
			return fmt.Errorf("parameter %q: %w", item, err)
		}
	}
	return nil
}

// setField parses v into the *int or *float64 a defField points at.
func setField(dst any, v string) error {
	var err error
	switch p := dst.(type) {
	case *int:
		*p, err = strconv.Atoi(v)
	case *float64:
		*p, err = strconv.ParseFloat(v, 64)
	}
	return err
}

// Build materializes the def. The seed drives the random families; figures
// and complete graphs ignore it.
func (d Def) Build(seed int64) (BuiltGraph, error) {
	switch d.Kind {
	case DefFigure:
		build, ok := figureTable.Lookup(d.Figure)
		if !ok {
			return BuiltGraph{}, fmt.Errorf("unknown figure %q", d.Figure)
		}
		fig := build()
		return BuiltGraph{G: fig.G, F: fig.F, Byz: fig.Byz, Sink: fig.ExpectedSink}, nil
	case DefComplete:
		if d.N < 1 {
			return BuiltGraph{}, fmt.Errorf("complete graph needs N ≥ 1")
		}
		ids := make([]model.ID, d.N)
		for i := range ids {
			ids[i] = model.ID(i + 1)
		}
		return BuiltGraph{G: CompleteGraph(ids...), F: (d.N - 1) / 3, Byz: model.NewIDSet()}, nil
	case DefKOSR:
		g, sink, err := GenKOSR(rand.New(rand.NewSource(seed)), GenSpec{
			SinkSize: d.Sink, NonSinkSize: d.NonSink, K: d.K, ExtraEdgeP: d.ExtraEdgeP,
		})
		if err != nil {
			return BuiltGraph{}, err
		}
		return BuiltGraph{G: g, F: d.K - 1, Byz: model.NewIDSet(), Sink: sink}, nil
	case DefExtended:
		g, core, fG, err := GenExtendedKOSR(rand.New(rand.NewSource(seed)), GenSpec{
			SinkSize: d.Sink, NonSinkSize: d.NonSink, ExtraEdgeP: d.ExtraEdgeP,
		})
		if err != nil {
			return BuiltGraph{}, err
		}
		return BuiltGraph{G: g, F: fG, Byz: model.NewIDSet(), Sink: core}, nil
	case DefER, DefGeo, DefSF:
		if err := d.Validate(); err != nil {
			return BuiltGraph{}, err
		}
		rng := rand.New(rand.NewSource(seed))
		var g *Digraph
		switch d.Kind {
		case DefER:
			g = GenER(rng, d.N, d.P)
		case DefGeo:
			g = GenGeometric(rng, d.N, d.R)
		default:
			g = GenScaleFree(rng, d.N, d.M)
		}
		return BuiltGraph{G: g, F: (d.N - 1) / 3, Byz: model.NewIDSet()}, nil
	default:
		return BuiltGraph{}, fmt.Errorf("unknown graph def kind %d", int(d.Kind))
	}
}
