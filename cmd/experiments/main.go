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
//	experiments -matrix -only 4,17,23 -jsonl gaps.jsonl          run explicit cells (the fabric's gap back-fill)
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
		runSel     = flag.String("run", "all", "experiment group: table1, fig1, fig2, fig3, fig4, all (ignored with -matrix)")
		verbose    = flag.Bool("v", false, "print per-process details")
		doMatrix   = flag.Bool("matrix", false, "run the standard scenario-matrix sweep instead of the paper suite")
		adversary  = flag.Bool("adversary", false, "with -matrix: sweep the adversary zoo (delay, selective silence, collusion, equivocation) with tail vs worst-case placements instead of the standard axes")
		probSweep  = flag.Bool("probabilistic", false, "with -matrix: sweep the random-graph families (er, geo, sf) over size, density and fault threshold, reporting per-axis emergence rates")
		chaosSweep = flag.Bool("chaos", false, "with -matrix: sweep the chaos fault-injection ladder (loss × partition × churn × f) over the BFT-CUP families, reporting graded-property degradation")
		seedsStr   = flag.String("seeds", "1:10", "seed sweep for -matrix, as FROM:TO or a single count N (= 1:N)")
		parallel   = flag.Int("parallel", 0, "worker count: 0 = GOMAXPROCS, 1 = serial")
		jsonOut    = flag.Bool("json", false, "emit the matrix report as JSON")
		trace      = flag.Bool("trace", false, "record per-cell event-trace digests")
		cellRows   = flag.Bool("cells", false, "list every cell in text output")
		compare    = flag.Bool("compare", false, "with -matrix: run serially then in parallel, assert identical reports, print speedup")
		shardStr   = flag.String("shard", "", "with -matrix: run only span i/n[@t] of the sweep (deterministic partition)")
		onlyStr    = flag.String("only", "", "with -matrix: run only these global cell indices, comma-separated (the fabric's gap back-fill)")
		jsonlPath  = flag.String("jsonl", "", "with -matrix: stream per-cell outcomes as JSONL to this file ('-' = stdout) instead of buffering a report")
		resume     = flag.Bool("resume", false, "with -matrix -jsonl FILE: resume an interrupted stream, running only the cells the file is missing")
		insecure   = flag.Bool("insecure", false, "with -matrix: swap Ed25519 for the insecure crypto suite (faster cells; fingerprints NOT comparable with secure sweeps)")
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
		runMerge(flag.Args(), *jsonOut, *cellRows, *summary)
	case *doMatrix:
		runMatrix(*seedsStr, *adversary, *probSweep, *chaosSweep, *parallel, *jsonOut, *trace, *cellRows, *compare, *shardStr, *onlyStr, *jsonlPath, *resume, *insecure)
	default:
		runPaperSuite(*runSel, *parallel, *jsonOut, *trace, *verbose)
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

// runMatrix executes the standard sweep: whole, or one deterministic shard,
// optionally streaming per-cell JSONL (fresh or resumed) instead of
// buffering a report. The sweep is a lazy cell source end to end — nothing
// materializes the cell list, so seed ranges in the millions are fine.
func runMatrix(seedsStr string, adversary, probabilistic, chaos bool, parallel int, jsonOut, trace, cellRows, compare bool, shardStr, onlyStr, jsonlPath string, resume, insecure bool) {
	sweepName := "standard"
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
	src, name, err := matrix.NamedSweep(sweepName, seedsStr, insecure)
	if err != nil {
		fail(err)
	}
	job := matrix.StreamJob{Name: name, Src: src, Shard: shardStr, Only: onlyStr, Path: jsonlPath, Resume: resume}
	part, spec, err := job.Slice()
	if err != nil {
		fail(err)
	}
	whole := spec == "1/1"
	if compare && (!whole || jsonlPath != "") {
		fail(fmt.Errorf("-compare runs the whole sweep twice; it cannot be combined with -shard, -only or -jsonl"))
	}
	if resume && jsonlPath == "" {
		fail(fmt.Errorf("-resume needs -jsonl FILE (a stream on stdout cannot be resumed)"))
	}
	opts := matrix.Options{Parallelism: parallel, Trace: trace}
	if !jsonOut && jsonlPath != "-" {
		opts.Progress = progressLine(part.Len())
	}
	job.Opts = opts

	if jsonlPath != "" {
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
		serialOpts := opts
		serialOpts.Parallelism = 1
		serial, err := matrix.Run(src, serialOpts)
		if err != nil {
			fail(err)
		}
		rep, err = matrix.Run(src, opts)
		if err != nil {
			fail(err)
		}
		if s, p := serial.Fingerprint(), rep.Fingerprint(); s != p {
			fail(fmt.Errorf("serial and parallel reports diverge:\n  serial   %s\n  parallel %s", s, p))
		}
		speedup := float64(serial.WallNS) / float64(rep.WallNS)
		fmt.Fprintf(os.Stderr, "serial %.2fs, parallel %.2fs on %d workers → %.2fx speedup; reports identical (fingerprint %s)\n",
			float64(serial.WallNS)/1e9, float64(rep.WallNS)/1e9, rep.Parallelism, speedup, rep.Fingerprint()[:12])
	} else {
		rep, err = matrix.Run(part, opts)
		if err != nil {
			fail(err)
		}
	}
	rep.Name = name
	if !whole {
		rep.Name = fmt.Sprintf("%s, shard %s", name, spec)
	}
	fmt.Fprintf(os.Stderr, "fingerprint %s\n", rep.Fingerprint())
	emit(rep, jsonOut, cellRows)
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

func progressLine(total int) func(done, total int) {
	if total < 40 {
		return nil
	}
	return func(done, total int) {
		if done%20 == 0 || done == total {
			fmt.Fprintf(os.Stderr, "\r%d/%d cells", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
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

// runPaperSuite reproduces the paper's tables and figures through the matrix
// engine and renders the classic paper-vs-measured Markdown.
func runPaperSuite(runSel string, parallel int, jsonOut, trace, verbose bool) {
	groups := map[string][]scenario.Experiment{
		"table1": scenario.Table1(),
		"fig1":   scenario.Fig1(),
		"fig2":   scenario.Fig2(),
		"fig3":   scenario.Fig3(),
		"fig4":   scenario.Fig4(),
	}
	var order []string
	if runSel == "all" {
		order = []string{"table1", "fig1", "fig2", "fig3", "fig4"}
	} else if _, ok := groups[runSel]; ok {
		order = []string{runSel}
	} else {
		fmt.Fprintf(os.Stderr, "unknown group %q\n", runSel)
		os.Exit(2)
	}

	if jsonOut {
		var exps []scenario.Experiment
		for _, g := range order {
			exps = append(exps, groups[g]...)
		}
		rep, err := matrix.Run(matrix.FromExperiments(exps), matrix.Options{Parallelism: parallel, Trace: trace})
		if err != nil {
			fail(err)
		}
		rep.Name = "paper suite: " + strings.Join(order, ",")
		emit(rep, true, false)
		if rep.Mismatches > 0 || rep.Errors > 0 {
			os.Exit(1)
		}
		return
	}

	mismatches := 0
	for _, g := range order {
		fmt.Printf("## %s\n\n", g)
		rep, err := matrix.Run(matrix.FromExperiments(groups[g]), matrix.Options{Parallelism: parallel, Trace: trace})
		if err != nil {
			fail(err)
		}
		if g == "table1" {
			renderTable1(groups[g], rep, verbose, &mismatches)
			continue
		}
		renderGroup(groups[g], rep, verbose, &mismatches)
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
	for _, row := range []struct{ label, key string }{
		{"Synchronous", "sync"},
		{"Partially synchronous", "partial"},
		{"Asynchronous (adversarial)", "async"},
	} {
		fmt.Printf("| %s |", row.label)
		for _, col := range []string{"known-n-known-f", "unknown-n-known-f", "unknown-n-unknown-f"} {
			c := cells[row.key+"/"+col]
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
