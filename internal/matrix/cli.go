package matrix

import (
	"fmt"
	"io"
	"os"
)

// NamedSweep resolves one of the four named sweeps over a -seeds string to its
// source and its report name, "(insecure)"-suffixed and switched to the
// insecure suite when asked. experiments -matrix, sweepd's coordinator and
// every sweepd worker build their sweep through it: the name goes into stream
// headers, so constructing it anywhere else lets headers disagree and the
// merge refuse.
func NamedSweep(name, seedsStr string, insecure bool) (CellSource, string, error) {
	seeds, err := ParseSeedRange(seedsStr)
	if err != nil {
		return nil, "", err
	}
	var sweep func([]int64) (CellSource, error)
	switch name {
	case "standard":
		sweep = StandardSweep
	case "adversary":
		sweep = AdversarySweep
	case "probabilistic":
		sweep = ProbabilisticSweep
	case "chaos":
		sweep = ChaosSweep
	default:
		return nil, "", fmt.Errorf("unknown sweep %q (want standard|adversary|probabilistic|chaos)", name)
	}
	src, err := sweep(seeds)
	if err != nil {
		return nil, "", err
	}
	label := fmt.Sprintf("%s sweep, seeds %s", name, seedsStr)
	if insecure {
		src = InsecureSource(src)
		label += " (insecure)"
	}
	return src, label, nil
}

// StreamJob is the worker-side shard/stream CLI mode shared by
// cmd/experiments, cmd/cupsim and sweepd -worker: one place resolves the
// -shard/-only selection against the whole sweep, validates the flag
// combinations, runs or resumes the JSONL stream, and prints the summary —
// so the three CLIs' stream semantics cannot drift and the fabric can drive
// any of them as a worker.
type StreamJob struct {
	// Name labels the sweep in the stream header; every worker of one sweep
	// must derive the same name.
	Name string
	// Src is the whole sweep.
	Src CellSource
	// Shard is the -shard flag: a span spec "i/n[@t]", empty for the whole
	// sweep.
	Shard string
	// Only is the -only flag: explicit global cell indices, comma-separated
	// (the fabric's gap back-fill dispatches). Mutually exclusive with Shard.
	Only string
	// Path is the -jsonl flag: the stream destination, "-" for stdout.
	Path string
	// Resume is the -resume flag: complete an interrupted stream file,
	// running only the cells it is missing.
	Resume bool
	// Opts are the run options (parallelism, tracing, progress).
	Opts Options
	// Log receives the human summary lines; nil means os.Stderr.
	Log io.Writer
}

// Slice resolves the job's selection against the whole sweep: the lazy
// sub-source to run and the canonical spec labelling it ("i/n[@t]", or
// "cells:a,b,c" for explicit index lists). Also used by the CLIs' buffered
// report modes so -shard/-only behave identically with and without -jsonl.
func (j StreamJob) Slice() (CellSource, string, error) {
	if j.Only != "" {
		if j.Shard != "" {
			return nil, "", fmt.Errorf("-shard and -only select different slices; pick one")
		}
		cells, err := ParseCellList(j.Only)
		if err != nil {
			return nil, "", err
		}
		part, err := cellSubset(j.Src, cells)
		if err != nil {
			return nil, "", err
		}
		return part, "cells:" + FormatCellList(cells), nil
	}
	span, err := ParseSpan(j.Shard)
	if err != nil {
		return nil, "", err
	}
	return span.Source(j.Src), span.String(), nil
}

// Run executes the stream job: fresh or resumed, to a file or stdout. The
// returned trailer summarizes the slice; the caller owns the exit policy
// (experiments fails on errors, cupsim also on lost consensus).
func (j StreamJob) Run() (*StreamTrailer, error) {
	logw := j.Log
	if logw == nil {
		logw = io.Writer(os.Stderr)
	}
	if j.Path == "" {
		return nil, fmt.Errorf("stream job needs -jsonl PATH ('-' = stdout)")
	}
	if j.Resume && j.Path == "-" {
		return nil, fmt.Errorf("-resume needs -jsonl FILE (a stream on stdout cannot be resumed)")
	}
	part, spec, err := j.Slice()
	if err != nil {
		return nil, err
	}
	tr, skipped, err := RunOrResumeStreamFile(j.Path, j.Resume, part, j.Opts, StreamHeader{
		Name:       j.Name,
		TotalCells: j.Src.Len(),
		Shard:      spec,
	})
	if err != nil {
		return nil, err
	}
	if skipped > 0 {
		fmt.Fprintf(logw, "resumed %s: %d cells already complete, %d run now\n",
			j.Path, skipped, tr.CellsRun-skipped)
	}
	fmt.Fprintf(logw, "shard %s: %d cells streamed, %d consensus, %d errors, %.2fs\n",
		spec, tr.CellsRun, tr.Consensus, tr.Errors, float64(tr.WallNS)/1e9)
	return tr, nil
}
