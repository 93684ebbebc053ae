// Command bench is the repository's layered benchmark (see README.md in this
// directory and BENCHMARK.json at the repository root).
//
//	go run ./bench                              every workload, untraced + traced pass, kernels
//	go run ./bench -workload sweep_prob,live_cupft   a subset
//	go run ./bench -selfcheck                   two untraced passes, compared against the bounds
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	                                            one measured run of one workload (the form the
//	                                            benchmark driver invokes; last stdout line is the result)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// runConfig is one measured run of one workload.
type runConfig struct {
	seed     int64
	duration time.Duration
	traceOut string
}

// runResult is what one run reports.
type runResult struct {
	attempted int
	failed    int
	notes     []string
	Metrics   map[string]sample
	// Fingerprints are the per-block report fingerprints of a sweep workload,
	// so the parent can compare serial, parallel and distributed runs.
	Fingerprints []string
}

func newResult() *runResult { return &runResult{Metrics: make(map[string]sample)} }

// set records one metric; its unit is the one the metric tables give it. A
// name the tables do not know is a bug in this program.
func (r *runResult) set(name string, v float64, n int) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " is in neither metric table")
	}
	r.Metrics[name] = sample{Value: v, Unit: unit, N: n}
}

// fail records n failed operations and why.
func (r *runResult) fail(n int, notes ...string) {
	r.failed += n
	r.notes = append(r.notes, notes...)
}

// workloadNames is every workload in the order the suite runs them.
var workloadNames = []string{
	"sweep_standard", "sweep_par", "sweep_fabric", "sweep_prob", "sweep_chaos", "graph_check", "live_cupft",
}

// runOne executes one pass of one workload in this process.
func runOne(name string, trace bool, cfg runConfig) (*runResult, error) {
	if w := findSweep(name); w != nil {
		if trace {
			return w.runTraced(cfg)
		}
		return w.runUntraced(cfg)
	}
	switch {
	case name == "graph_check":
		return runGraphCheck(cfg, trace)
	case name == "live_cupft" && !trace:
		return runLiveUntraced(cfg)
	case name == "live_cupft":
		return runLiveTraced(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// driverLine is the result object the benchmark contract asks for on the
// last line of standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detailLine precedes the driver line when the parent asks for it (-detail):
// sample counts, block fingerprints and failure notes.
type detailLine struct {
	Detail struct {
		Metrics      map[string]sample `json:"metrics"`
		Fingerprints []string          `json:"fingerprints,omitempty"`
		Notes        []string          `json:"notes,omitempty"`
	} `json:"detail"`
}

// emit prints one run's result in the contract's form. The metric set is
// exactly the end-to-end list (untraced) or the per-layer list (traced): a
// per-layer metric whose layer did no work on this workload reads 0.
func emit(res *runResult, trace, detail bool) error {
	names := endToEndNames
	if trace {
		names = perLayerNames
	}
	line := driverLine{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]driverMetric, len(names)),
	}
	for _, m := range names {
		s, ok := res.Metrics[m.Name]
		if !trace && (!ok || s.Value == 0) {
			return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		line.Metrics[m.Name] = driverMetric{Value: s.Value, Unit: m.Unit}
	}
	for _, note := range res.notes {
		fmt.Fprintln(os.Stderr, "bench: failed:", note)
	}
	if detail {
		var d detailLine
		d.Detail.Metrics = res.Metrics
		d.Detail.Fingerprints = res.Fingerprints
		d.Detail.Notes = res.notes
		raw, err := json.Marshal(d)
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

func main() {
	var (
		workload  = flag.String("workload", "", "workloads to run, comma-separated (default: all)")
		seed      = flag.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds   = flag.Int("seconds", 0, "how long one pass measures (default 6 per workload in the suite)")
		trace     = flag.Int("trace", -1, "run one workload once: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
		noTrace   = flag.Bool("no-trace", false, "suite: skip the traced pass")
		traceOut  = flag.String("trace-out", "", "write the traced pass's aggregated spans to this file (JSONL)")
		jsonOut   = flag.String("json", "", "suite: also write the JSON document to this file")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced pass twice and compare the two against the bounds")
		detail    = flag.Bool("detail", false, "single run: print a detail line (sample counts, fingerprints) before the result")
		worker    = flag.String("worker", "", "fabric worker: run one task of this sweep (the bench execs these itself)")
		seedRange = flag.String("seeds", "", "with -worker: the block's simulation seeds, FROM:TO")
		shard     = flag.String("shard", "", "with -worker: span i/n[@t]")
		only      = flag.String("only", "", "with -worker: explicit global cell indices")
		jsonl     = flag.String("jsonl", "", "with -worker: stream destination ('-' = stdout)")
		resume    = flag.Bool("resume", false, "with -worker -jsonl FILE: complete an interrupted stream in place")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		die(2, fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	if *worker != "" {
		if err := runWorker(*worker, *seedRange, *shard, *only, *jsonl, *resume); err != nil {
			die(2, err)
		}
		return
	}

	if *trace >= 0 {
		// One measured run of one workload, in this process.
		if *seconds <= 0 {
			*seconds = suiteSeconds
		}
		cfg := runConfig{seed: *seed, duration: time.Duration(*seconds) * time.Second, traceOut: *traceOut}
		res, err := runOne(*workload, *trace == 1, cfg)
		if err != nil {
			die(1, err)
		}
		if err := emit(res, *trace == 1, *detail); err != nil {
			die(1, err)
		}
		return
	}

	names := workloadNames
	if *workload != "" {
		names = strings.Split(*workload, ",")
	}
	if *seconds <= 0 {
		*seconds = suiteSeconds
	}
	s := suite{names: names, seed: *seed, seconds: *seconds, trace: !*noTrace, traceOut: *traceOut, jsonOut: *jsonOut}
	var err error
	if *selfcheck {
		err = s.selfcheck()
	} else {
		err = s.run()
	}
	if err != nil {
		die(1, err)
	}
}

func die(code int, err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(code)
}

// machine describes where the numbers were taken.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Go         string `json:"go"`
}

func thisMachine() machine {
	return machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers(), Go: runtime.Version()}
}
