// Command cupsim runs BFT-CUP / BFT-CUPFT scenarios on the deterministic
// simulator: one scenario with per-process output, or a seed sweep through
// the scenario-matrix engine — monolithic, or as deterministic shards
// streamed to JSONL and merged back into the identical aggregate report.
//
// Examples:
//
//	cupsim -graph fig1b -mode bft-cup -f 1 -byz 4:silent
//	cupsim -graph fig4a -mode bft-cupft -byz 4:silent
//	cupsim -graph fig2c -mode naive -net partial -gst 30s -slow 1,2,3/6,7,8
//	cupsim -graph extended:core=7,noncore=4 -mode bft-cupft -seed 3
//	cupsim -graph kosr:sink=5,nonsink=3,k=2 -mode bft-cup -seeds 1:50 -parallel 0 -json
//	cupsim -graph fig1b -loss 0.15 -dup 0.075 -reorder 2ms -partition 10ms-400ms -churn 2@10ms+500ms
//	cupsim -graph fig1b -seeds 1:100 -shard 1/4 -jsonl part1.jsonl
//	cupsim -merge part1.jsonl part2.jsonl part3.jsonl part4.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/bftcup/bftcup/internal/matrix"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

func main() {
	var (
		params    = scenario.BindFlags(flag.CommandLine)
		autoFlag  = flag.String("autobyz", "", "automatic byzantine placement, kind×count[@place] (place: figure|tail|sink|worst), e.g. silent×2@worst or 'silentx2@worst'")
		slowFlag  = flag.String("slow", "", "pre-GST fast groups, e.g. 1,2,3/6,7,8 (everything else slow)")
		seedsStr  = flag.String("seeds", "", "seed sweep, FROM:TO or a count N (= 1:N) — run the scenario once per seed through the matrix engine (overrides -seed)")
		parallel  = flag.Int("parallel", 0, "sweep worker count: 0 = GOMAXPROCS, 1 = serial")
		jsonOut   = flag.Bool("json", false, "emit the sweep report as JSON")
		shardStr  = flag.String("shard", "", "with -seeds: run only span i/n[@t] of the sweep (deterministic partition)")
		onlyStr   = flag.String("only", "", "with -seeds: run only these global cell indices, comma-separated")
		jsonlPath = flag.String("jsonl", "", "with -seeds: stream per-cell outcomes as JSONL to this file ('-' = stdout)")
		resume    = flag.Bool("resume", false, "with -seeds -jsonl FILE: resume an interrupted stream, running only the cells the file is missing")
		doMerge   = flag.Bool("merge", false, "merge shard JSONL files (positional arguments) into the aggregate report")

		loss       = flag.Float64("loss", 0, "per-message delivery loss probability in [0,1)")
		dup        = flag.Float64("dup", 0, "per-message duplication probability in [0,1)")
		reorder    = flag.Duration("reorder", 0, "extra per-copy delivery jitter bound (reorders messages)")
		partitions = flag.String("partition", "", "partition windows, ';'-separated FROM-UNTIL[:A|B] (Go durations; no groups = deterministic half/half), e.g. 10ms-400ms or 50ms-1s:1,2/3,4")
		churnFlag  = flag.String("churn", "", "crash/restart churn, ';'-separated ID@CRASH[+RESTART[:wipe]] (Go durations), e.g. 2@10ms+500ms or 8@10ms")
		unhardened = flag.Bool("unhardened", false, "with fault injection: keep the send-once protocol profile instead of arming retransmission hardening")
	)
	flag.Parse()

	if *doMerge {
		runMerge(flag.Args(), *jsonOut)
		return
	}

	p, err := params()
	if err != nil {
		fail(err)
	}
	if p.Net.FastGroups, err = parseGroups(*slowFlag); err != nil {
		fail(err)
	}
	if p.Auto, err = scenario.ParseAutoByz(*autoFlag); err != nil {
		fail(err)
	}
	if p.Faults, err = buildFaults(*loss, *dup, *reorder, *partitions, *churnFlag, *unhardened); err != nil {
		fail(err)
	}

	if *seedsStr != "" {
		runSweep(p, *seedsStr, *parallel, *jsonOut, *shardStr, *onlyStr, *jsonlPath, *resume)
		return
	}
	runSingle(p)
}

// runMerge reconstructs the aggregate sweep report from shard JSONL files.
func runMerge(paths []string, jsonOut bool) {
	if len(paths) == 0 {
		fail(fmt.Errorf("-merge needs shard files as positional arguments"))
	}
	rep, err := matrix.MergeFiles(paths...)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "merged %d shard file(s): %d cells, fingerprint %s\n",
		len(paths), rep.Cells, rep.Fingerprint())
	emitSweep(rep, jsonOut)
	if rep.Errors > 0 || rep.Consensus < rep.Cells {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cupsim:", err)
	os.Exit(2)
}

// buildFaults assembles the chaos-injection axis from its flags; validation
// happens at compile time so this only parses.
func buildFaults(loss, dup float64, reorder time.Duration, partitions, churn string, unhardened bool) (scenario.FaultParams, error) {
	fp := scenario.FaultParams{
		Loss:       loss,
		Dup:        dup,
		Reorder:    sim.Time(reorder),
		Unhardened: unhardened,
	}
	for _, s := range splitList(partitions) {
		w, err := scenario.ParsePartition(s)
		if err != nil {
			return fp, err
		}
		fp.Partitions = append(fp.Partitions, w)
	}
	for _, s := range splitList(churn) {
		c, err := scenario.ParseChurn(s)
		if err != nil {
			return fp, err
		}
		fp.Churn = append(fp.Churn, c)
	}
	return fp, nil
}

// splitList splits a ';'-separated flag value, dropping empty items so a
// trailing separator is harmless.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ";") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

func runSweep(params scenario.Params, seedsStr string, parallel int, jsonOut bool, shardStr, onlyStr, jsonlPath string, resume bool) {
	seeds, err := matrix.ParseSeedRange(seedsStr)
	if err != nil {
		fail(err)
	}
	// The sweep is the scenario crossed with the seed axis: a lazy source,
	// so -seeds 1:1000000 costs arithmetic, not memory.
	src, err := matrix.SeedSweep(params, seeds)
	if err != nil {
		fail(err)
	}
	name := fmt.Sprintf("%s seeds %s", params.Name, seedsStr)
	if params.Faults.Enabled() {
		name += " (faults " + params.Faults.Label() + ")"
	}
	if params.Insecure {
		name += " (insecure)"
	}
	job := matrix.StreamJob{
		Name: name, Src: src,
		Shard: shardStr, Only: onlyStr,
		Path: jsonlPath, Resume: resume,
		Opts: matrix.Options{Parallelism: parallel},
	}

	if jsonlPath != "" {
		tr, err := job.Run()
		if err != nil {
			fail(err)
		}
		if tr.Errors > 0 || tr.Consensus < tr.CellsRun {
			os.Exit(1)
		}
		return
	}
	if resume {
		fail(fmt.Errorf("-resume needs -jsonl FILE (a stream on stdout cannot be resumed)"))
	}

	part, spec, err := job.Slice()
	if err != nil {
		fail(err)
	}
	rep, err := matrix.Run(part, job.Opts)
	if err != nil {
		fail(err)
	}
	rep.Name = name
	if spec != "1/1" {
		rep.Name = fmt.Sprintf("%s, shard %s", name, spec)
	}
	emitSweep(rep, jsonOut)
	if rep.Errors > 0 || rep.Consensus < rep.Cells {
		os.Exit(1)
	}
}

// emitSweep renders a sweep report as JSON or per-cell text.
func emitSweep(rep *matrix.Report, jsonOut bool) {
	if jsonOut {
		raw, err := rep.JSON()
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(raw)
		fmt.Println()
	} else {
		rep.WriteText(os.Stdout, true)
	}
}

func runSingle(params scenario.Params) {
	res, err := params.Run()
	if err != nil {
		fail(err)
	}
	res.WriteText(os.Stdout, params.Mode, "")
	if !res.Consensus() {
		os.Exit(1)
	}
}

// parseGroups parses -slow: '/'-separated groups of comma-separated IDs.
func parseGroups(slow string) ([]model.IDSet, error) {
	if slow == "" {
		return nil, nil
	}
	var groups []model.IDSet
	for _, grp := range strings.Split(slow, "/") {
		set := model.NewIDSet()
		for _, idStr := range strings.Split(grp, ",") {
			raw, err := strconv.ParseUint(strings.TrimSpace(idStr), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad group member %q", idStr)
			}
			set.Add(model.ID(raw))
		}
		groups = append(groups, set)
	}
	return groups, nil
}
