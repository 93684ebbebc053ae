package matrix

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/bftcup/bftcup/internal/model"
)

// Sweeps is the one table of named sweeps, in the order the CLI help lists
// them; the first is the CLIs' default.
var Sweeps = model.Names[func([]int64) (CellSource, error)]{
	{"standard", StandardSweep}, {"adversary", AdversarySweep},
	{"probabilistic", ProbabilisticSweep}, {"chaos", ChaosSweep},
}

// NamedSweep resolves one of the named sweeps over a -seeds string to its
// source and its report name. experiments -matrix, sweepd's coordinator and
// every sweepd worker build their sweep through it: the name goes into stream
// headers, so constructing it anywhere else lets headers disagree and the
// merge refuse.
func NamedSweep(name, seedsStr string) (CellSource, string, error) {
	seeds, err := ParseSeedRange(seedsStr)
	if err != nil {
		return nil, "", err
	}
	sweep, err := Sweeps.Parse("sweep", name)
	if err != nil {
		return nil, "", err
	}
	src, err := sweep(seeds)
	if err != nil {
		return nil, "", err
	}
	return src, fmt.Sprintf("%s sweep, seeds %s", name, seedsStr), nil
}

// SweepFlags are the sweep flags experiments, cupsim and sweepd share. They
// are declared once, by BindSweepFlags — the sweep-side mirror of
// scenario.BindFlags — so the three CLIs and the fabric's worker protocol
// (Task.WorkerArgs) cannot drift apart.
type SweepFlags struct {
	// Seeds is -seeds: FROM:TO or a count N (= 1:N).
	Seeds string
	// Parallel is -parallel: the worker count (0 = GOMAXPROCS).
	Parallel int
	// JSON is -json: emit the report as JSON.
	JSON bool
	// Shard, Only, JSONL and Resume are -shard, -only, -jsonl and -resume;
	// see StreamJob.
	Shard, Only, JSONL string
	Resume             bool
}

// BindSweepFlags declares -seeds, -parallel, -json, -shard, -only, -jsonl and
// -resume on fs with the CLI's own -seeds and -parallel defaults. The values
// are read once fs is parsed.
func BindSweepFlags(fs *flag.FlagSet, seeds string, parallel int) *SweepFlags {
	sf := &SweepFlags{}
	fs.StringVar(&sf.Seeds, "seeds", seeds, "seed sweep, FROM:TO or a count N (= 1:N)")
	fs.IntVar(&sf.Parallel, "parallel", parallel, "worker count of this process: 0 = GOMAXPROCS, 1 = serial")
	fs.BoolVar(&sf.JSON, "json", false, "emit the sweep report as JSON")
	fs.StringVar(&sf.Shard, "shard", "", "run only shard i/n of the sweep (deterministic round-robin partition)")
	fs.StringVar(&sf.Only, "only", "", "run only these global cell indices, comma-separated")
	fs.StringVar(&sf.JSONL, "jsonl", "", "stream per-cell outcomes as JSONL to this file ('-' = stdout) instead of buffering a report")
	fs.BoolVar(&sf.Resume, "resume", false, "with -jsonl FILE: resume an interrupted stream, running only the cells the file is missing")
	return sf
}

// Job is the stream job the flags select from the whole sweep src.
func (sf *SweepFlags) Job(name string, src CellSource) StreamJob {
	return StreamJob{
		Name: name, Src: src,
		Shard: sf.Shard, Only: sf.Only,
		Path: sf.JSONL, Resume: sf.Resume,
		Opts: Options{Parallelism: sf.Parallel},
	}
}

// StreamJob is one selection of a sweep, run the way every sweep CLI runs it:
// streamed to JSONL (Run, fresh or resumed) or buffered into a report
// (Report). The fabric drives any CLI built on it as a worker.
type StreamJob struct {
	// Name labels the sweep in the stream header; every worker of one sweep
	// must derive the same name.
	Name string
	// Src is the whole sweep.
	Src CellSource
	// Shard is the -shard flag: a shard spec "i/n", empty for the whole
	// sweep.
	Shard string
	// Only is the -only flag: explicit global cell indices, comma-separated.
	// Mutually exclusive with Shard.
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

// Task is the -shard/-only selection as the fabric task it names: the
// inverse of Task.WorkerArgs.
func (j StreamJob) Task() (Task, error) {
	if j.Only == "" {
		sh, err := ParseShard(j.Shard)
		return Task{Shard: sh}, err
	}
	if j.Shard != "" {
		return Task{}, fmt.Errorf("-shard and -only select different slices; pick one")
	}
	cells, err := ParseCellList(j.Only)
	return Task{Cells: cells}, err
}

// slice resolves the job's selection through Task.Slice.
func (j StreamJob) slice() (CellSource, string, error) {
	t, err := j.Task()
	if err != nil {
		return nil, "", err
	}
	return t.Slice(j.Src)
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
	part, spec, err := j.slice()
	if err != nil {
		return nil, err
	}
	hdr := StreamHeader{Name: j.Name, TotalCells: j.Src.Len(), Shard: spec}
	var tr *StreamTrailer
	skipped := 0
	if j.Resume {
		tr, skipped, err = ResumeStreamFile(j.Path, part, j.Opts, hdr)
	} else {
		tr, err = RunStreamFile(j.Path, part, j.Opts, hdr)
	}
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

// Report executes the job without a stream: the selection runs into an
// in-memory report named after the job, ", shard SPEC" appended when it is
// not the whole sweep.
func (j StreamJob) Report() (*Report, error) {
	if j.Resume {
		return nil, fmt.Errorf("-resume needs -jsonl FILE (a stream on stdout cannot be resumed)")
	}
	part, spec, err := j.slice()
	if err != nil {
		return nil, err
	}
	rep, err := Run(part, j.Opts)
	if err != nil {
		return nil, err
	}
	rep.Name = j.Name
	if spec != "1/1" {
		rep.Name = fmt.Sprintf("%s, shard %s", j.Name, spec)
	}
	return rep, nil
}
