package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// suite is the whole-benchmark mode: every selected workload in a fresh
// child process each (so the process-wide cryptox caches start cold and
// peak_rss_mib is per workload), an untraced pass for the end-to-end
// metrics and a traced pass for the per-layer ones.
type suite struct {
	names    []string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
	jsonOut  string
}

// childResult is one child pass as the parent sees it.
type childResult struct {
	driverLine
	Samples      map[string]sample
	Fingerprints []string
	Notes        []string
}

// child runs one pass of one workload in a fresh process.
func (s suite) child(name string, trace int) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(s.seed, 10),
		"-seconds", strconv.Itoa(s.seconds), "-trace", strconv.Itoa(trace), "-detail"}
	if trace == 1 && s.traceOut != "" {
		// One file per workload: the children run one after another.
		args = append(args, "-trace-out", s.traceOut+"."+name)
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s (trace %d): %w", name, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("workload %s (trace %d): child printed %d lines, want detail and result", name, trace, len(lines))
	}
	var res childResult
	var d detailLine
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &d); err != nil {
		return nil, fmt.Errorf("workload %s: detail line: %w", name, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res.driverLine); err != nil {
		return nil, fmt.Errorf("workload %s: result line: %w", name, err)
	}
	res.Samples, res.Fingerprints, res.Notes = d.Detail.Metrics, d.Detail.Fingerprints, d.Detail.Notes
	return &res, nil
}

// workloadDoc is one workload's section of the JSON document.
type workloadDoc struct {
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	EndToEnd    map[string]sample `json:"end_to_end"`
	PerLayer    map[string]sample `json:"per_layer,omitempty"`
	TraceFailed int               `json:"trace_failed,omitempty"`
	Notes       []string          `json:"notes,omitempty"`
}

// document is what `go run ./bench` prints on standard output.
type document struct {
	Machine   machine                `json:"machine"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Workloads map[string]workloadDoc `json:"workloads"`
	Kernels   map[string]sample      `json:"kernels,omitempty"`
	Failures  []string               `json:"failures,omitempty"`
}

// endToEnd selects and names the end-to-end metrics that are native to a
// workload: graph_check's throughput is printed as graphs_per_s, and the two
// metrics the single-run form cannot carry as metrics — failed_share and a
// live cluster's boot_ms_p50 — are added.
func endToEnd(name string, c *childResult) map[string]sample {
	out := make(map[string]sample)
	for _, m := range endToEndNames {
		if !m.appliesTo(name) {
			continue
		}
		label := m.Name
		if name == "graph_check" && label == "cells_per_s" {
			label = "graphs_per_s"
		}
		out[label] = c.Samples[m.Name]
	}
	if boot, ok := c.Samples["boot_ms_p50"]; ok {
		out["boot_ms_p50"] = boot
	}
	out["failed_share"] = sample{Value: float64(c.Failed) / float64(c.Attempted), Unit: "share", N: c.Attempted}
	return out
}

func (s suite) run() error {
	doc := document{Machine: thisMachine(), Seed: s.seed, Seconds: s.seconds, Workloads: make(map[string]workloadDoc)}
	fingerprints := make(map[string][]string)
	for _, name := range s.names {
		fmt.Fprintf(os.Stderr, "bench: %s …\n", name)
		u, err := s.child(name, 0)
		if err != nil {
			return err
		}
		wd := workloadDoc{Correct: u.Correct, Attempted: u.Attempted, Failed: u.Failed, EndToEnd: endToEnd(name, u), Notes: u.Notes}
		fingerprints[name] = u.Fingerprints
		if s.trace {
			t, err := s.child(name, 1)
			if err != nil {
				return err
			}
			wd.PerLayer = make(map[string]sample)
			for _, m := range perLayerNames {
				switch {
				case m.On == "kernel":
					if doc.Kernels == nil {
						doc.Kernels = make(map[string]sample)
					}
					if _, ok := doc.Kernels[m.Name]; !ok {
						doc.Kernels[m.Name] = t.Samples[m.Name]
					}
				case m.appliesTo(name):
					wd.PerLayer[m.Name] = t.Samples[m.Name]
				}
			}
			wd.TraceFailed = t.Failed
			wd.Notes = append(wd.Notes, t.Notes...)
			wd.Correct = wd.Correct && t.Correct
		}
		if !wd.Correct {
			doc.Failures = append(doc.Failures, fmt.Sprintf("%s: %d of %d operations failed (traced pass: %d)", name, wd.Failed, wd.Attempted, wd.TraceFailed))
		}
		doc.Workloads[name] = wd
	}

	// For equal seed blocks the serial, parallel and distributed reports must
	// be bit-identical; a differing block fails whole.
	serial := fingerprints["sweep_standard"]
	for _, other := range []string{"sweep_par", "sweep_fabric"} {
		for k, fp := range fingerprints[other] {
			if k < len(serial) && fp != serial[k] {
				doc.Failures = append(doc.Failures, fmt.Sprintf("%s block %d: fingerprint %s differs from sweep_standard's %s", other, k+1, fp, serial[k]))
			}
		}
	}

	s.table(doc)
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	if s.jsonOut != "" {
		if err := os.WriteFile(s.jsonOut, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(doc.Failures) > 0 {
		return fmt.Errorf("%d check(s) failed:\n  %s", len(doc.Failures), strings.Join(doc.Failures, "\n  "))
	}
	return nil
}

// table renders the document for a reader, on standard error.
func (s suite) table(doc document) {
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	m := doc.Machine
	fmt.Fprintf(tw, "\nbench: seed %d, %d s per pass, nproc %d, GOMAXPROCS %d, W %d, %s\n\n", doc.Seed, doc.Seconds, m.NProc, m.GOMAXPROCS, m.Workers, m.Go)
	row := func(kind, name string, v sample) {
		fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%s\tn=%d\n", kind, name, v.Value, v.Unit, v.N)
	}
	section := func(kind string, ms map[string]sample) {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			row(kind, name, ms[name])
		}
	}
	for _, name := range s.names {
		wd := doc.Workloads[name]
		fmt.Fprintf(tw, "%s\n", name)
		section("end-to-end", wd.EndToEnd)
		section("per-layer", wd.PerLayer)
	}
	if len(doc.Kernels) > 0 {
		fmt.Fprintf(tw, "kernels\n")
		section("kernel", doc.Kernels)
	}
	tw.Flush()
}

// selfcheck runs the untraced pass twice and holds the benchmark to its own
// bounds: a deterministic metric may not differ at all, a wall-clock metric's
// two values by no more than its bound.
func (s suite) selfcheck() error {
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\trun 1\trun 2\tratio\tverdict\n")
	var failures []string
	for _, name := range s.names {
		var runs [2]*childResult
		for i := range runs {
			fmt.Fprintf(os.Stderr, "bench: selfcheck %s, run %d …\n", name, i+1)
			c, err := s.child(name, 0)
			if err != nil {
				return err
			}
			if !c.Correct {
				failures = append(failures, fmt.Sprintf("%s run %d: %d of %d operations failed", name, i+1, c.Failed, c.Attempted))
			}
			runs[i] = c
		}
		for _, m := range endToEndNames {
			if !m.appliesTo(name) {
				continue
			}
			a, b := runs[0].Samples[m.Name].Value, runs[1].Samples[m.Name].Value
			verdict := "ok"
			switch {
			case m.deterministicOn(name):
				if a != b {
					verdict = "DIFFERS (deterministic)"
				}
			case m.Better == "lower" && b > a*(1+m.Bound), m.Better == "higher" && b < a*(1-m.Bound):
				verdict = fmt.Sprintf("WORSE by more than %.0f %%", 100*m.Bound)
			case m.Better == "lower" && a > b*(1+m.Bound), m.Better == "higher" && a < b*(1-m.Bound):
				// The runs are of the same code: a first run this much worse
				// than the second is the same instability.
				verdict = fmt.Sprintf("APART by more than %.0f %%", 100*m.Bound)
			}
			if verdict != "ok" {
				failures = append(failures, fmt.Sprintf("%s %s: %g vs %g: %s", name, m.Name, a, b, verdict))
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f\t%s\n", name, m.Name, a, b, ratio(b, a), verdict)
		}
	}
	tw.Flush()
	if len(failures) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(os.Stderr, "bench: selfcheck passed")
	return nil
}
