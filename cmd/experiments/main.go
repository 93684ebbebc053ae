// Command experiments drives the scenario-matrix engine. It regenerates
// every table and figure of the paper (paper-expected vs measured outcomes
// as Markdown, the source of EXPERIMENTS.md), runs free parameter sweeps far
// beyond the paper's grid — monolithic or split into deterministic shards
// whose JSONL streams merge back into the identical aggregate report.
// (Performance is measured by `go run ./bench`, not here.)
//
// Usage:
//
//	experiments [-run table1|fig1|fig2|fig3|fig4|all] [-v]       reproduce the paper
//	experiments -matrix [-seeds 1:10] [-parallel N] [-json]      standard sweep (240 cells at 10 seeds)
//	experiments -matrix -chaos [-seeds 1:3]                      chaos degradation sweep (loss × partition × churn × f)
//	experiments -matrix -compare                                 serial-vs-parallel: identical reports + speedup
//	experiments -matrix -shard 2/3 -jsonl part2.jsonl            run one shard, streaming per-cell JSONL
//	experiments -matrix -shard 2/3 -jsonl part2.jsonl -resume    complete an interrupted shard stream
//	experiments -matrix -only 4,17,23 -jsonl cells.jsonl         run explicit global cell indices
//	experiments -merge part1.jsonl part2.jsonl part3.jsonl       reconstruct the aggregate report from shards
//	experiments -merge -summary part*.jsonl                      constant-memory merge (aggregates only)
//
// Flags common to the report-producing modes:
//
//	-parallel N   worker count (0 = GOMAXPROCS, 1 = serial)
//	-json         emit the full matrix report as JSON on stdout
//	-trace        record per-cell event-trace digests in the report
//	-cells        text output lists every cell, not just aggregates
//	-cpuprofile F write a pprof CPU profile of the run to F
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"

	"github.com/bftcup/bftcup/internal/matrix"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/wire"
)

func main() {
	var (
		runSel     = flag.String("run", "all", runHelp)
		verbose    = flag.Bool("v", false, "print per-process details")
		doMatrix   = flag.Bool("matrix", false, "run the standard scenario-matrix sweep instead of the paper suite")
		adversary  = flag.Bool("adversary", false, "with -matrix: sweep the adversary zoo (delay, selective silence, collusion, equivocation) with tail vs worst-case placements instead of the standard axes")
		probSweep  = flag.Bool("probabilistic", false, "with -matrix: sweep the random-graph families (er, geo, sf) over size, density and fault threshold, reporting per-axis emergence rates")
		chaosSweep = flag.Bool("chaos", false, "with -matrix: sweep the chaos fault-injection ladder (loss × partition × churn × f) over the BFT-CUP families, reporting graded-property degradation")
		sweep      = matrix.BindSweepFlags(flag.CommandLine, "1:10", 0)
		trace      = flag.Bool("trace", false, "record per-cell event-trace digests")
		cellRows   = flag.Bool("cells", false, "list every cell in text output")
		compare    = flag.Bool("compare", false, "with -matrix: run serially then in parallel, assert identical reports, print speedup")
		doMerge    = flag.Bool("merge", false, "merge shard JSONL files (positional arguments) into the aggregate report")
		summary    = flag.Bool("summary", false, "with -merge: aggregate in constant memory, dropping per-cell outcomes from the report")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the selected mode to this file (hot-path work starts from a profile artifact)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		// The report-producing paths exit through os.Exit on failure; the
		// profile is flushed only on the success path, which is the one a
		// profiling session cares about.
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", *cpuProfile)
		}()
	}

	switch {
	case *doMerge:
		runMerge(flag.Args(), sweep.JSON, *cellRows, *summary)
	case *doMatrix:
		runMatrix(sweep, *adversary, *probSweep, *chaosSweep, *trace, *cellRows, *compare)
	default:
		runPaperSuite(*runSel, sweep.Parallel, sweep.JSON, *trace, *verbose)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(2)
}

// runMerge reconstructs the aggregate report from shard JSONL files. With
// summary the merge folds in constant memory and the report carries
// aggregates only.
func runMerge(paths []string, jsonOut, cellRows, summary bool) {
	if len(paths) == 0 {
		fail(fmt.Errorf("-merge needs shard files as positional arguments"))
	}
	rep, err := matrix.MergeFilesWith(matrix.MergeOptions{KeepOutcomes: !summary}, paths...)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "merged %d shard file(s): %d cells, fingerprint %s\n",
		len(paths), rep.Cells, rep.Fingerprint())
	emit(rep, jsonOut, cellRows)
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

// runMatrix executes a named sweep: whole, or the -shard/-only slice,
// streamed to JSONL (fresh or resumed) with -jsonl, else into a report. The
// sweep is a lazy cell source end to end — nothing materializes the cell
// list, so seed ranges in the millions are fine.
func runMatrix(sf *matrix.SweepFlags, adversary, probabilistic, chaos, trace, cellRows, compare bool) {
	sweepName := matrix.Sweeps[0].Name
	picked := 0
	for name, on := range map[string]bool{"adversary": adversary, "probabilistic": probabilistic, "chaos": chaos} {
		if on {
			sweepName = name
			picked++
		}
	}
	if picked > 1 {
		fail(fmt.Errorf("-adversary, -probabilistic and -chaos select different sweeps; pick one"))
	}
	if compare && (sf.Shard != "" || sf.Only != "" || sf.JSONL != "" || sf.Resume) {
		fail(fmt.Errorf("-compare runs the whole sweep twice; it cannot be combined with -shard, -only, -jsonl or -resume"))
	}
	src, name, err := matrix.NamedSweep(sweepName, sf.Seeds)
	if err != nil {
		fail(err)
	}
	job := sf.Job(name, src)
	job.Opts.Trace = trace
	if !sf.JSON && sf.JSONL != "-" {
		job.Opts.Progress = progress
	}

	if job.Path != "" {
		tr, err := job.Run()
		if err != nil {
			fail(err)
		}
		if tr.Errors > 0 {
			os.Exit(1)
		}
		return
	}

	var rep *matrix.Report
	if compare {
		serialOpts := job.Opts
		serialOpts.Parallelism = 1
		serial, err := matrix.Run(src, serialOpts)
		if err != nil {
			fail(err)
		}
		rep, err = matrix.Run(src, job.Opts)
		if err != nil {
			fail(err)
		}
		if s, p := serial.Fingerprint(), rep.Fingerprint(); s != p {
			fail(fmt.Errorf("serial and parallel reports diverge:\n  serial   %s\n  parallel %s", s, p))
		}
		speedup := float64(serial.WallNS) / float64(rep.WallNS)
		fmt.Fprintf(os.Stderr, "serial %.2fs, parallel %.2fs on %d workers → %.2fx speedup; reports identical (fingerprint %s)\n",
			float64(serial.WallNS)/1e9, float64(rep.WallNS)/1e9, rep.Parallelism, speedup, rep.Fingerprint()[:12])
		rep.Name = name
	} else if rep, err = job.Report(); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "fingerprint %s\n", rep.Fingerprint())
	emit(rep, sf.JSON, cellRows)
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

// progress counts finished cells on stderr, for sweeps of 40 cells or more.
func progress(done, total int) {
	if total < 40 {
		return
	}
	if done%20 == 0 || done == total {
		fmt.Fprintf(os.Stderr, "\r%d/%d cells", done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

func emit(rep *matrix.Report, jsonOut, cellRows bool) {
	if jsonOut {
		raw, err := rep.JSON()
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(raw)
		fmt.Println()
		return
	}
	rep.WriteText(os.Stdout, cellRows)
}

// paperGroup is one -run group of the paper suite: its experiments and the
// Markdown renderer for them.
type paperGroup struct {
	experiments func() []scenario.Experiment
	render      func([]scenario.Experiment, *matrix.Report, bool, *int)
}

// paperGroups is the paper suite behind -run, in report order.
var paperGroups = model.Names[paperGroup]{
	{"table1", paperGroup{scenario.Table1, renderTable1}},
	{"fig1", paperGroup{scenario.Fig1, renderGroup}},
	{"fig2", paperGroup{scenario.Fig2, renderGroup}},
	{"fig3", paperGroup{scenario.Fig3, renderGroup}},
	{"fig4", paperGroup{scenario.Fig4, renderGroup}},
}

// runHelp is -run's help: every group, then all.
var runHelp = "experiment group: " + paperGroups.Join(", ") + ", all (ignored with -matrix)"

// runPaperSuite reproduces the paper's tables and figures through the matrix
// engine and renders the classic paper-vs-measured Markdown.
func runPaperSuite(runSel string, parallel int, jsonOut, trace, verbose bool) {
	groups := paperGroups
	if runSel != "all" {
		g, ok := paperGroups.Lookup(runSel)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown group %q\n", runSel)
			os.Exit(2)
		}
		groups = model.Names[paperGroup]{{runSel, g}}
	}

	if jsonOut {
		var exps []scenario.Experiment
		for _, g := range groups {
			exps = append(exps, g.Value.experiments()...)
		}
		rep, err := matrix.Run(matrix.FromExperiments(exps), matrix.Options{Parallelism: parallel, Trace: trace})
		if err != nil {
			fail(err)
		}
		rep.Name = "paper suite: " + groups.Join(",")
		emit(rep, true, false)
		if rep.Mismatches > 0 || rep.Errors > 0 {
			os.Exit(1)
		}
		return
	}

	mismatches := 0
	for _, g := range groups {
		fmt.Printf("## %s\n\n", g.Name)
		exps := g.Value.experiments()
		rep, err := matrix.Run(matrix.FromExperiments(exps), matrix.Options{Parallelism: parallel, Trace: trace})
		if err != nil {
			fail(err)
		}
		g.Value.render(exps, rep, verbose, &mismatches)
	}
	if mismatches > 0 {
		fmt.Fprintf(os.Stderr, "%d experiments diverged from the paper's prediction\n", mismatches)
		os.Exit(1)
	}
}

func mark(consensus bool) string {
	if consensus {
		return "✓"
	}
	return "✗"
}

func renderTable1(exps []scenario.Experiment, rep *matrix.Report, verbose bool, mismatches *int) {
	type cell struct{ expected, measured string }
	cells := make(map[string]cell)
	var details []string
	for i, exp := range exps {
		o := &rep.Outcomes[i]
		if o.Err != "" {
			fail(fmt.Errorf("%s: %s", exp.ID, o.Err))
		}
		want := mark(exp.Expect.Consensus)
		got := mark(o.Consensus)
		if got != want {
			*mismatches++
		}
		key := strings.TrimPrefix(exp.ID, "table1/")
		cells[key] = cell{expected: want, measured: got}
		details = append(details, fmt.Sprintf("- `%s`: measured %s (elapsed %v, %d msgs, %d bytes)%s",
			key, got, o.VirtualNS, o.Messages, o.Bytes, failNote(o)))
		if verbose {
			details = append(details, perProcess(exp.Params)...)
		}
	}
	fmt.Println("| Communication | Known n, Known f | Unknown n, Known f | Unknown n, Unknown f |")
	fmt.Println("|---|---|---|---|")
	// One row per network kind, in Table I's order.
	for k, label := range []string{"Synchronous", "Partially synchronous", "Asynchronous (adversarial)"} {
		fmt.Printf("| %s |", label)
		for _, col := range []string{"known-n-known-f", "unknown-n-known-f", "unknown-n-unknown-f"} {
			c := cells[scenario.NetKind(k).String()+"/"+col]
			m := c.measured
			if c.measured != c.expected {
				m = fmt.Sprintf("%s (paper: %s!)", c.measured, c.expected)
			}
			fmt.Printf(" %s |", m)
		}
		fmt.Println()
	}
	fmt.Println()
	for _, d := range details {
		fmt.Println(d)
	}
	fmt.Println()
}

func renderGroup(exps []scenario.Experiment, rep *matrix.Report, verbose bool, mismatches *int) {
	fmt.Println("| Experiment | Paper predicts | Measured | Failure mode | Elapsed | Msgs | Bytes |")
	fmt.Println("|---|---|---|---|---|---|---|")
	var notes []string
	for i, exp := range exps {
		o := &rep.Outcomes[i]
		if o.Err != "" {
			fail(fmt.Errorf("%s: %s", exp.ID, o.Err))
		}
		want := mark(exp.Expect.Consensus)
		got := mark(o.Consensus)
		if got != want {
			*mismatches++
			got += " (MISMATCH)"
		}
		failMode := o.FailureMode
		if failMode == "" {
			failMode = "—"
		}
		fmt.Printf("| `%s` | %s | %s | %s | %v | %d | %d |\n",
			exp.ID, want, got, failMode, o.VirtualNS, o.Messages, o.Bytes)
		notes = append(notes, fmt.Sprintf("- `%s`: %s", exp.ID, exp.Expect.Note))
		if verbose {
			notes = append(notes, perProcess(exp.Params)...)
		}
	}
	fmt.Println()
	for _, n := range notes {
		fmt.Println(n)
	}
	fmt.Println()
}

func failNote(o *matrix.Outcome) string {
	if o.FailureMode != "" {
		return " — " + o.FailureMode
	}
	return ""
}

// perProcess re-runs one experiment serially to report per-process decisions —
// the matrix outcome carries aggregates only.
func perProcess(p scenario.Params) []string {
	res, err := p.Run()
	if err != nil {
		fail(err)
	}
	var out []string
	ids := make([]uint64, 0, len(res.PerProcess))
	for id := range res.PerProcess {
		ids = append(ids, uint64(id))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, raw := range ids {
		pr := res.PerProcess[model.ID(raw)]
		role := "correct"
		if pr.Byzantine {
			role = "byzantine"
		}
		dec := "undecided"
		if pr.Decided {
			dec = fmt.Sprintf("decided %q at %v", pr.Value, pr.DecidedAt)
		}
		out = append(out, fmt.Sprintf("    - p%d (%s): %s, committee %v (g=%d)", raw, role, dec, pr.Committee, pr.G))
	}
	kinds := make([]int, 0, len(res.ByKind))
	for k := range res.ByKind {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	var kindStrs []string
	for _, k := range kinds {
		kindStrs = append(kindStrs, fmt.Sprintf("%s=%d", wire.KindName(byte(k)), res.ByKind[byte(k)]))
	}
	out = append(out, "    - traffic: "+strings.Join(kindStrs, " "))
	return out
}
