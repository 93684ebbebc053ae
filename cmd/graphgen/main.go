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
	ok, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run parses args and writes the def (-emit) or the full report to w. Every
// usage error is returned before anything is written; ok is false when the
// graph satisfies neither model's requirements.
func run(args []string, w io.Writer) (ok bool, err error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		kind    = fs.String("kind", "kosr", "generator: kosr|extended (ignored with -fig)")
		figName = fs.String("fig", "", "validate a paper figure instead of generating")
		sink    = fs.Int("sink", 5, "sink/core size")
		nonsink = fs.Int("nonsink", 3, "non-sink/non-core size")
		f       = fs.Int("f", 1, "fault threshold for validation")
		byzFlag = fs.String("byz", "", "byzantine nodes for validation, e.g. 4 or 4,9")
		seed    = fs.Int64("seed", 1, "generator seed")
		extraP  = fs.Float64("extra", 0.15, "extra-edge probability")
		emit    = fs.Bool("emit", false, "print only the matrix-consumable graph def and exit")
	)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *f < 0 {
		return false, fmt.Errorf("-f %d: the fault threshold must be ≥ 0", *f)
	}
	def, err := buildDef(*kind, *figName, *sink, *nonsink, *f, *extraP)
	if err != nil {
		return false, err
	}
	if *emit {
		fmt.Fprintln(w, def.String())
		return true, nil
	}

	byz, err := parseByzIDs(*byzFlag)
	if err != nil {
		return false, err
	}
	built, err := def.Build(*seed)
	if err != nil {
		return false, err
	}
	for _, id := range byz.Sorted() {
		if !built.G.HasNode(id) {
			return false, fmt.Errorf("-byz names %v, which is not a node of the graph", id)
		}
	}
	fEff := *f
	if def.Kind == graph.DefFigure {
		// The figure's scripted fault assignment is the default; explicit
		// flags win.
		if byz.Len() == 0 {
			byz = built.Byz
		}
		fSet := false
		fs.Visit(func(fl *flag.Flag) { fSet = fSet || fl.Name == "f" })
		if !fSet {
			fEff = built.F
		}
	}
	return report(w, def, built.G, byz, fEff, *seed), nil
}

// buildDef maps the generator flags onto a graph def and validates it, so a
// def graphgen prints is one ParseDef accepts.
func buildDef(kind, figName string, sink, nonsink, f int, extraP float64) (graph.Def, error) {
	var def graph.Def
	switch {
	case figName != "":
		return graph.ParseDef(figName)
	case kind == "kosr":
		def = graph.Def{Kind: graph.DefKOSR, Sink: sink, NonSink: nonsink, K: f + 1, ExtraEdgeP: extraP}
	case kind == "extended":
		def = graph.Def{Kind: graph.DefExtended, Sink: sink, NonSink: nonsink, ExtraEdgeP: extraP}
	default:
		return graph.Def{}, fmt.Errorf("unknown kind %q", kind)
	}
	return def, def.Validate()
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
