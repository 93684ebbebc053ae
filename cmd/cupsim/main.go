// Command cupsim runs BFT-CUP / BFT-CUPFT scenarios on the deterministic
// simulator: one scenario with per-process output, or — with -seeds — the
// scenario once per seed through the scenario-matrix engine, monolithic or
// as deterministic shards streamed to JSONL (the matrix package's shared
// sweep flags; `experiments -merge` folds the shard files back into the
// identical aggregate report). A seed sweep is the one way to sweep a custom
// graph def, such as one graphgen -emit printed.
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

// The flags, on flag.CommandLine. Every example a help text gives after
// "e.g." must parse (main_test.go feeds each through the flag's parser).
var (
	scenarioFlags = scenario.BindFlags(flag.CommandLine)
	sweep         = matrix.BindSweepFlags(flag.CommandLine, "", 0)
	autoFlag      = flag.String("autobyz", "", "automatic byzantine placement, kind×count[@place] (place: "+scenario.ByzPlaces.Join("|")+"), e.g. silent×2@worst or 'silentx2@worst'")
	slowFlag      = flag.String("slow", "", "pre-GST fast groups, e.g. 1,2,3/6,7,8 (everything else slow)")

	loss       = flag.Float64("loss", 0, "per-message delivery loss probability in [0,1)")
	dup        = flag.Float64("dup", 0, "per-message duplication probability in [0,1)")
	reorder    = flag.Duration("reorder", 0, "extra per-copy delivery jitter bound (reorders messages)")
	partitions = flag.String("partition", "", "partition windows, ';'-separated FROM-UNTIL[:A|B] (Go durations; no groups = deterministic half/half), e.g. 10ms-400ms or 50ms-1s:1,2|3,4")
	churnFlag  = flag.String("churn", "", "crash/restart churn, ';'-separated ID@CRASH[+RESTART[:wipe]] (Go durations), e.g. 2@10ms+500ms or 8@10ms")
	unhardened = flag.Bool("unhardened", false, "with fault injection: keep the send-once protocol profile instead of arming retransmission hardening")
)

func main() {
	flag.Parse()

	p, err := scenarioFlags()
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

	if sweep.Seeds != "" {
		runSweep(p, sweep)
		return
	}
	runSingle(p)
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

// runSweep runs the scenario once per seed: streamed with -jsonl, else into
// a report. Lost consensus in any cell exits 1.
func runSweep(params scenario.Params, sf *matrix.SweepFlags) {
	seeds, err := matrix.ParseSeedRange(sf.Seeds)
	if err != nil {
		fail(err)
	}
	// The sweep is the scenario crossed with the seed axis: a lazy source,
	// so -seeds 1:1000000 costs arithmetic, not memory.
	src, err := matrix.SeedSweep(params, seeds)
	if err != nil {
		fail(err)
	}
	name := fmt.Sprintf("%s seeds %s", params.Name, sf.Seeds)
	if params.Faults.Enabled() {
		name += " (faults " + params.Faults.Label() + ")"
	}
	job := sf.Job(name, src)
	if job.Path != "" {
		tr, err := job.Run()
		if err != nil {
			fail(err)
		}
		if tr.Errors > 0 || tr.Consensus < tr.CellsRun {
			os.Exit(1)
		}
		return
	}
	rep, err := job.Report()
	if err != nil {
		fail(err)
	}
	if sf.JSON {
		raw, err := rep.JSON()
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(raw)
		fmt.Println()
	} else {
		rep.WriteText(os.Stdout, true)
	}
	if rep.Errors > 0 || rep.Consensus < rep.Cells {
		os.Exit(1)
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
