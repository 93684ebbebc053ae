package graph

import (
	"fmt"
	"math/rand"
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

// String renders the canonical textual form, parseable by ParseDef.
func (d Def) String() string {
	switch d.Kind {
	case DefFigure:
		return d.Figure
	case DefComplete:
		return fmt.Sprintf("complete:%d", d.N)
	case DefKOSR:
		s := fmt.Sprintf("kosr:sink=%d,nonsink=%d,k=%d", d.Sink, d.NonSink, d.K)
		if d.ExtraEdgeP > 0 {
			s += fmt.Sprintf(",extra=%g", d.ExtraEdgeP)
		}
		return s
	case DefExtended:
		s := fmt.Sprintf("extended:core=%d,noncore=%d", d.Sink, d.NonSink)
		if d.ExtraEdgeP > 0 {
			s += fmt.Sprintf(",extra=%g", d.ExtraEdgeP)
		}
		return s
	case DefER:
		return fmt.Sprintf("er:n=%d,p=%g", d.N, d.P)
	case DefGeo:
		return fmt.Sprintf("geo:n=%d,r=%g", d.N, d.R)
	case DefSF:
		return fmt.Sprintf("sf:n=%d,m=%d", d.N, d.M)
	default:
		return fmt.Sprintf("def(%d)", int(d.Kind))
	}
}

// Validate applies the structural checks every Def is held to, parsed or
// built in code: the figure must exist, sizes and probabilities must be in
// range. ParseDef ends with it, and lazy sweep sources call it once per axis
// value instead of materializing every cell; seed-dependent generation
// failures (a spec the generator cannot satisfy) still surface from Build.
func (d Def) Validate() error {
	switch d.Kind {
	case DefFigure:
		if figure(d.Figure) == nil {
			return fmt.Errorf("graph def: unknown figure %q (figures: %s)", d.Figure, strings.Join(FigureNames(), " "))
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
	return nil
}

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
	var d Def
	var fields map[string]func(string) error
	switch head {
	case "complete":
		n, err := strconv.Atoi(rest)
		if err != nil {
			return Def{}, fmt.Errorf("graph def %q: want complete:N with N ≥ 1", s)
		}
		d = Def{Kind: DefComplete, N: n}
	case "kosr":
		d = Def{Kind: DefKOSR}
		fields = map[string]func(string) error{
			"sink":    intField(&d.Sink),
			"nonsink": intField(&d.NonSink),
			"k":       intField(&d.K),
			"extra":   floatField(&d.ExtraEdgeP),
		}
	case "extended":
		d = Def{Kind: DefExtended}
		fields = map[string]func(string) error{
			"core":    intField(&d.Sink),
			"noncore": intField(&d.NonSink),
			"extra":   floatField(&d.ExtraEdgeP),
		}
	case "er":
		d = Def{Kind: DefER}
		fields = map[string]func(string) error{"n": intField(&d.N), "p": floatField(&d.P)}
	case "geo":
		d = Def{Kind: DefGeo}
		fields = map[string]func(string) error{"n": intField(&d.N), "r": floatField(&d.R)}
	case "sf":
		d = Def{Kind: DefSF}
		fields = map[string]func(string) error{"n": intField(&d.N), "m": intField(&d.M)}
	default:
		if !hasRest {
			d = Def{Kind: DefFigure, Figure: head}
			break
		}
		// Legacy cupsim forms random:SINK:NONSINK:F and random-ext:CORE:NONCORE
		// stay accepted.
		parts := strings.Split(s, ":")
		switch {
		case head == "random" && len(parts) == 4:
			sink, e1 := strconv.Atoi(parts[1])
			non, e2 := strconv.Atoi(parts[2])
			f, e3 := strconv.Atoi(parts[3])
			if e1 != nil || e2 != nil || e3 != nil {
				return Def{}, fmt.Errorf("graph def %q: want random:SINK:NONSINK:F", s)
			}
			d = Def{Kind: DefKOSR, Sink: sink, NonSink: non, K: f + 1, ExtraEdgeP: 0.15}
		case head == "random-ext" && len(parts) == 3:
			core, e1 := strconv.Atoi(parts[1])
			non, e2 := strconv.Atoi(parts[2])
			if e1 != nil || e2 != nil {
				return Def{}, fmt.Errorf("graph def %q: want random-ext:CORE:NONCORE", s)
			}
			d = Def{Kind: DefExtended, Sink: core, NonSink: non, ExtraEdgeP: 0.15}
		default:
			return Def{}, fmt.Errorf("unknown graph def %q", s)
		}
	}
	if fields != nil {
		if err := parseDefFields(rest, fields); err != nil {
			return Def{}, fmt.Errorf("graph def %q: %w", s, err)
		}
	}
	if err := d.Validate(); err != nil {
		return Def{}, err
	}
	return d, nil
}

func parseDefFields(s string, fields map[string]func(string) error) error {
	if s == "" {
		return fmt.Errorf("missing parameters")
	}
	for _, item := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(item, "=")
		if !ok {
			return fmt.Errorf("bad parameter %q (want key=value)", item)
		}
		set, known := fields[k]
		if !known {
			return fmt.Errorf("unknown parameter %q", k)
		}
		if err := set(v); err != nil {
			return fmt.Errorf("parameter %q: %w", item, err)
		}
	}
	return nil
}

func intField(dst *int) func(string) error {
	return func(v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		*dst = n
		return nil
	}
}

func floatField(dst *float64) func(string) error {
	return func(v string) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return err
		}
		*dst = f
		return nil
	}
}

// Build materializes the def. The seed drives the random families; figures
// and complete graphs ignore it.
func (d Def) Build(seed int64) (BuiltGraph, error) {
	switch d.Kind {
	case DefFigure:
		build := figure(d.Figure)
		if build == nil {
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
	case DefER:
		if err := d.Validate(); err != nil {
			return BuiltGraph{}, err
		}
		g := GenER(rand.New(rand.NewSource(seed)), d.N, d.P)
		return BuiltGraph{G: g, F: (d.N - 1) / 3, Byz: model.NewIDSet()}, nil
	case DefGeo:
		if err := d.Validate(); err != nil {
			return BuiltGraph{}, err
		}
		g := GenGeometric(rand.New(rand.NewSource(seed)), d.N, d.R)
		return BuiltGraph{G: g, F: (d.N - 1) / 3, Byz: model.NewIDSet()}, nil
	case DefSF:
		if err := d.Validate(); err != nil {
			return BuiltGraph{}, err
		}
		g := GenScaleFree(rand.New(rand.NewSource(seed)), d.N, d.M)
		return BuiltGraph{G: g, F: (d.N - 1) / 3, Byz: model.NewIDSet()}, nil
	default:
		return BuiltGraph{}, fmt.Errorf("unknown graph def kind %d", int(d.Kind))
	}
}
