// Command graphgen generates random knowledge connectivity graphs and
// validates them (or any paper figure) against the BFT-CUP and BFT-CUPFT
// model requirements. Its first output line is the graph's matrix-consumable
// definition — the exact string cupsim -graph and the matrix engine's graph
// axis accept — so generated topologies feed straight into sweeps:
//
//	cupsim -graph "$(graphgen -kind kosr -sink 7 -nonsink 4 -f 2 -seed 5 -emit)" -seed 5
//
// Examples:
//
//	graphgen -kind kosr -sink 7 -nonsink 4 -f 2 -seed 5
//	graphgen -kind extended -sink 8 -nonsink 5
//	graphgen -fig fig4a -f 1 -byz 4
//	graphgen -kind kosr -sink 5 -nonsink 3 -f 1 -emit     (def string only)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/model"
)

func main() {
	var (
		kind    = flag.String("kind", "kosr", "generator: kosr|extended (ignored with -fig)")
		figName = flag.String("fig", "", "validate a paper figure instead of generating")
		sink    = flag.Int("sink", 5, "sink/core size")
		nonsink = flag.Int("nonsink", 3, "non-sink/non-core size")
		f       = flag.Int("f", 1, "fault threshold for validation")
		byzFlag = flag.String("byz", "", "byzantine nodes for validation, e.g. 4 or 4,9")
		seed    = flag.Int64("seed", 1, "generator seed")
		extraP  = flag.Float64("extra", 0.15, "extra-edge probability")
		emit    = flag.Bool("emit", false, "print only the matrix-consumable graph def and exit")
	)
	flag.Parse()

	def, err := buildDef(*kind, *figName, *sink, *nonsink, *f, *extraP)
	if err != nil {
		fail(err)
	}
	if *emit {
		fmt.Println(def.String())
		return
	}

	byz, err := parseByzIDs(*byzFlag)
	if err != nil {
		fail(err)
	}
	built, err := def.Build(*seed)
	if err != nil {
		fail(err)
	}
	fEff := *f
	if def.Kind == graph.DefFigure {
		// The figure's scripted fault assignment is the default; explicit
		// flags win.
		if byz.Len() == 0 {
			byz = built.Byz
		}
		if !flagSet("f") {
			fEff = built.F
		}
	}

	ok := report(os.Stdout, def, built.G, byz, fEff, *seed)
	if !ok {
		os.Exit(1)
	}
}

// buildDef maps the generator flags onto a graph def.
func buildDef(kind, figName string, sink, nonsink, f int, extraP float64) (graph.Def, error) {
	switch {
	case figName != "":
		return graph.ParseDef(figName)
	case kind == "kosr":
		return graph.Def{Kind: graph.DefKOSR, Sink: sink, NonSink: nonsink, K: f + 1, ExtraEdgeP: extraP}, nil
	case kind == "extended":
		return graph.Def{Kind: graph.DefExtended, Sink: sink, NonSink: nonsink, ExtraEdgeP: extraP}, nil
	default:
		return graph.Def{}, fmt.Errorf("unknown kind %q", kind)
	}
}

func parseByzIDs(s string) (model.IDSet, error) {
	byz := model.NewIDSet()
	if s == "" {
		return byz, nil
	}
	for _, idStr := range strings.Split(s, ",") {
		raw, err := strconv.ParseUint(strings.TrimSpace(idStr), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad byzantine id %q", idStr)
		}
		byz.Add(model.ID(raw))
	}
	return byz, nil
}

// report writes the full validation report: the def line first (the format
// contract the smoke test pins down), then the adjacency list, the
// BFT-CUP / BFT-CUPFT verdicts for the given byz set and the worst placement
// of f Byzantine processes. It returns false when the graph satisfies neither
// model's requirements.
func report(w io.Writer, def graph.Def, g *graph.Digraph, byz model.IDSet, f int, seed int64) bool {
	fmt.Fprintf(w, "def: %s seed=%d\n", def.String(), seed)
	fmt.Fprintf(w, "# %d nodes, %d edges, byz=%v, f=%d\n", g.NumNodes(), g.NumEdges(), byz, f)
	fmt.Fprint(w, g.String())
	fmt.Fprintln(w)

	cup := graph.CheckBFTCUP(g, byz, f)
	if cup.OK {
		fmt.Fprintf(w, "BFT-CUP   : ✓ sink of safe subgraph = %v\n", cup.Sink)
	} else {
		fmt.Fprintf(w, "BFT-CUP   : ✗ %s\n", cup.Reason)
	}
	ft := kosr.CheckBFTCUPFT(g, byz, f)
	if ft.OK {
		fmt.Fprintf(w, "BFT-CUPFT : ✓ core of safe subgraph = %v (f_G=%d, connectivity %d)\n", ft.Core, ft.FG, ft.FG+1)
	} else {
		fmt.Fprintf(w, "BFT-CUPFT : ✗ %s\n", ft.Reason)
	}
	// The verdicts above hold for the byz set given; the theorems quantify
	// over every f-subset, so show the one an optimal adversary would pick.
	if worst, err := kosr.WorstPlacement(g, f); err != nil {
		fmt.Fprintf(w, "worst placement (f=%d): %v\n", f, err)
	} else {
		fmt.Fprintf(w, "worst placement (f=%d): %v margin %d\n", f, worst.Byz, worst.Margin)
	}
	// Enumerate every sink of a 1-OSR full graph for insight.
	if graph.CheckKOSR(g, 1).OK {
		sinks, _ := kosr.SinkSets(g)
		if len(sinks) > 0 {
			fmt.Fprintln(w, "sinks of the full graph (isSink*):")
		}
		for _, s := range sinks {
			fmt.Fprintf(w, "  %v  f_G=%d connectivity=%d\n", s.Members, s.FG, s.FG+1)
		}
	}
	return cup.OK || ft.OK
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(fl *flag.Flag) {
		if fl.Name == name {
			set = true
		}
	})
	return set
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(2)
}
