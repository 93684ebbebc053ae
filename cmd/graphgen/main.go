// Command graphgen builds a knowledge connectivity graph from its def — a
// paper figure or any generated family — and validates it against the
// BFT-CUP and BFT-CUPFT model requirements. Its first output line is the
// graph's def with the seed: the def is the exact string cupsim -graph and
// the matrix engine's graph axis accept, so a generated topology feeds
// straight into a sweep:
//
//	cupsim -graph kosr:sink=7,nonsink=4,k=3,extra=0.15 -seed 5
//
// Examples:
//
//	graphgen -graph kosr:sink=7,nonsink=4,k=3,extra=0.15 -seed 5
//	graphgen -graph extended:core=8,noncore=5,extra=0.15
//	graphgen -graph fig4a -f 1 -byz 4
//	graphgen -graph er:n=20,p=0.3 -seed 2374
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

// run parses args and writes the report to w. Every usage error is returned
// before anything is written; ok is false when the graph satisfies neither
// model's requirements.
func run(args []string, w io.Writer) (ok bool, err error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		defFlag = fs.String("graph", "kosr:sink=5,nonsink=3,k=2,extra=0.15", "graph def: "+graph.DefUsage())
		f       = fs.Int("f", -1, "fault threshold for validation; -1 = the graph family's natural threshold")
		byzFlag = fs.String("byz", "", "byzantine nodes for validation, e.g. 4 or 4,9 (default: a figure's scripted set)")
		seed    = fs.Int64("seed", 1, "generator seed")
	)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *f < -1 {
		return false, fmt.Errorf("-f %d: the fault threshold must be ≥ 0, or -1 for the family's own", *f)
	}
	def, err := graph.ParseDef(*defFlag)
	if err != nil {
		return false, err
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
	// The def's scripted fault assignment and threshold are the defaults
	// (generated families script no Byzantine processes); explicit flags win.
	if byz.Len() == 0 {
		byz = built.Byz
	}
	fEff := built.F
	if *f >= 0 {
		fEff = *f
	}
	return report(w, def, built.G, byz, fEff, *seed), nil
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
