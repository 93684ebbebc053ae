package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/bftcup/bftcup/internal/matrix"
)

// Anchor fingerprints of the two sweeps at their default seed ranges: what
// `experiments -matrix -seeds 1:10` and `experiments -matrix -probabilistic
// -seeds 1:1` print. Block 1 at -seed 1 runs exactly those cells.
const (
	anchorStandard = "4b072439c652d9f4eeb39ecf603b390fd7386fbc746bfcfe6ba2065620e8b0b8"
	anchorProb     = "a7e7a889fe264e59265bd7813649bcad1a1e5c91a2f376b4bd5f1bc5181d747b"
)

// seedStride separates the seed ranges of consecutive -seed values, so two
// runs at different workload seeds never share a simulation seed (and a run
// may take up to seedStride/perBlock blocks before it would).
const seedStride = 10000

// minSetups is the least number of set-ups a run times: a workload whose
// blocks take seconds (sweep_prob) has too few blocks to sample set-up from.
const minSetups = 10

// setupTimer times a workload's set-up. A run sets up afresh before every
// block, so the samples are spread over the whole run like every other
// wall-clock sample, and setup_s is their quiet decile: neither the cold first
// pass nor a spell of interference decides a number only milliseconds long.
type setupTimer struct {
	setup func(rep int) error
	secs  []float64
}

// measure runs one set-up, plus the clock calibration every pass starts with.
func (t *setupTimer) measure() error {
	start := time.Now()
	if err := t.setup(len(t.secs)); err != nil {
		return err
	}
	calibrateClock()
	t.secs = append(t.secs, time.Since(start).Seconds())
	return nil
}

// record tops the samples up to minSetups and sets setup_s.
func (t *setupTimer) record(r *runResult) error {
	for len(t.secs) < minSetups {
		if err := t.measure(); err != nil {
			return err
		}
	}
	r.set("setup_s", lowerDecile(t.secs), len(t.secs))
	return nil
}

// execMode is how a sweep block is executed.
type execMode int

const (
	execSerial execMode = iota // matrix.Run, Parallelism 1
	execPar                    // matrix.Run, Parallelism W
	execFabric                 // matrix.RunFabric over W subprocess workers
)

// sweepWorkload describes one simulator workload: a sweep definition run as
// consecutive blocks of fresh seeds.
type sweepWorkload struct {
	name string
	// sweep is the matrix sweep constructor; sweepName labels worker streams
	// (every worker of one fabric block must derive the same header).
	sweep     func([]int64) (matrix.CellSource, error)
	sweepName string
	// seedsPerBlock seeds make one block; minBlocks blocks always run and are
	// the ones the deterministic metrics are computed over, so those repeat
	// exactly whatever the machine's speed.
	seedsPerBlock int
	minBlocks     int
	mode          execMode
	// anchor, when set, is block 1's fingerprint at -seed 1.
	anchor string
	// mustDecide marks sweeps on which every cell solves consensus by the
	// paper's theorems: a cell without consensus is a failed operation.
	mustDecide bool
	// safetyOnly marks sweeps whose cells may lose termination but never
	// agreement, validity or integrity.
	safetyOnly bool
	// traceStride samples every n-th cell of block 1 in the traced pass.
	traceStride int
	// pinGraphSeed, when non-zero, builds every cell's random graph from this
	// graph seed whatever the cell's simulation seed (see pinnedGraphs).
	pinGraphSeed int64
}

var sweepWorkloads = []*sweepWorkload{
	{name: "sweep_standard", sweep: matrix.StandardSweep, sweepName: "standard", seedsPerBlock: 10, minBlocks: 3,
		mode: execSerial, anchor: anchorStandard, mustDecide: true, traceStride: 1},
	{name: "sweep_par", sweep: matrix.StandardSweep, sweepName: "standard", seedsPerBlock: 10, minBlocks: 3,
		mode: execPar, anchor: anchorStandard, mustDecide: true, traceStride: 1},
	{name: "sweep_fabric", sweep: matrix.StandardSweep, sweepName: "standard", seedsPerBlock: 10, minBlocks: 3,
		mode: execFabric, anchor: anchorStandard, mustDecide: true, traceStride: 1},
	{name: "sweep_prob", sweep: matrix.ProbabilisticSweep, sweepName: "probabilistic", seedsPerBlock: 1, minBlocks: 1,
		mode: execSerial, anchor: anchorProb, traceStride: 3, pinGraphSeed: 1},
	{name: "sweep_chaos", sweep: matrix.ChaosSweep, sweepName: "chaos", seedsPerBlock: 10, minBlocks: 2,
		mode: execSerial, safetyOnly: true, traceStride: 1},
}

func findSweep(name string) *sweepWorkload {
	for _, w := range sweepWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// pinnedGraphs makes every cell of a sweep draw its random graph from one
// fixed graph seed while the simulation seed (keys, message delays) still
// varies. sweep_prob needs it to be steady: whether a random graph admits a
// sink at all decides whether its cell stops after 40 virtual ms or gossips
// to the 30 s horizon, so with per-seed graphs the work of a block swings by
// ±15 % from one workload seed to the next, and no affordable number of cells
// averages that out. The graphs are those of `experiments -matrix
// -probabilistic -seeds 1:1`; a cell whose seed already equals the graph
// seed is left untouched, so block 1 at -seed 1 is exactly that sweep.
type pinnedGraphs struct {
	matrix.CellSource
	graphSeed int64
}

func (p pinnedGraphs) Cell(i int) matrix.Cell {
	c := p.CellSource.Cell(i)
	if c.Params.Seed != p.graphSeed {
		c.Params.GraphSeed = p.graphSeed
	}
	return c
}

// source builds the workload's sweep over the given simulation seeds.
func (w *sweepWorkload) source(seeds []int64) (matrix.CellSource, error) {
	src, err := w.sweep(seeds)
	if err != nil || w.pinGraphSeed == 0 {
		return src, err
	}
	return pinnedGraphs{CellSource: src, graphSeed: w.pinGraphSeed}, nil
}

// blockSeeds returns the simulation seeds of block k (1-based) of a run at
// the given workload seed. Seed 1, block 1 is 1..perBlock — the anchor range.
func blockSeeds(workloadSeed int64, k, perBlock int) []int64 {
	first := (workloadSeed-1)*seedStride + int64(k-1)*int64(perBlock) + 1
	return matrix.Seeds(first, first+int64(perBlock)-1)
}

// workers is W: the parallelism of the multi-core workloads.
func workers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// block is the measured outcome of one sweep block.
type block struct {
	rep   *matrix.Report
	stats matrix.FabricStats
	wall  time.Duration
}

// runBlock executes one block under the workload's execution mode.
func (w *sweepWorkload) runBlock(seeds []int64, mode execMode, spool string) (block, error) {
	src, err := w.source(seeds)
	if err != nil {
		return block{}, err
	}
	start := time.Now()
	var b block
	switch mode {
	case execSerial:
		b.rep, err = matrix.Run(src, matrix.Options{Parallelism: 1})
	case execPar:
		b.rep, err = matrix.Run(src, matrix.Options{Parallelism: workers()})
	case execFabric:
		b.rep, b.stats, err = w.runFabric(src.Len(), seeds, spool)
	}
	b.wall = time.Since(start)
	return b, err
}

// runFabric deals one block to W subprocess workers — this binary in -worker
// mode, speaking the StreamJob protocol sweepd drives — and merges their
// streams. The spool lives under the working directory and is removed again,
// as sweepd's temporary spool is.
func (w *sweepWorkload) runFabric(total int, seeds []int64, spool string) (*matrix.Report, matrix.FabricStats, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, matrix.FabricStats{}, fmt.Errorf("locating own binary for fabric workers: %w", err)
	}
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return nil, matrix.FabricStats{}, err
	}
	defer os.RemoveAll(spool)
	argv := []string{self, "-worker", w.sweepName, "-seeds", fmt.Sprintf("%d:%d", seeds[0], seeds[len(seeds)-1])}
	fleet := make([]matrix.Transport, workers())
	for i := range fleet {
		fleet[i] = matrix.ExecTransport{Argv: argv}
	}
	return matrix.RunFabric(context.Background(), total, fleet, matrix.FabricOptions{SpoolDir: spool, KeepOutcomes: true})
}

// spoolRoot is where fabric blocks spool: inside the working directory (the
// benchmark writes nowhere else), private to this process.
func spoolRoot() string {
	return filepath.Join(".bench_build", "spool", fmt.Sprint(os.Getpid()))
}

// removeSpool deletes this process's spool and, when no other run is using
// them, the then-empty directories above it.
func removeSpool() {
	os.RemoveAll(spoolRoot())
	// Remove refuses a non-empty directory, which is the check wanted here.
	os.Remove(filepath.Dir(spoolRoot()))
	os.Remove(filepath.Dir(filepath.Dir(spoolRoot())))
}

// runWorker is the hidden -worker mode: one fabric task of one block.
func runWorker(sweepName, seedRange, shard, only, jsonl string, resume bool) error {
	var w *sweepWorkload
	for _, c := range sweepWorkloads {
		if c.sweepName == sweepName {
			w = c
			break
		}
	}
	if w == nil {
		return fmt.Errorf("unknown sweep %q", sweepName)
	}
	seeds, err := matrix.ParseSeedRange(seedRange)
	if err != nil {
		return err
	}
	src, err := w.source(seeds)
	if err != nil {
		return err
	}
	_, err = matrix.StreamJob{
		Name: sweepName + " " + seedRange, Src: src,
		Shard: shard, Only: only, Path: jsonl, Resume: resume,
		Opts: matrix.Options{Parallelism: 1},
		Log:  io.Discard,
	}.Run()
	return err
}

// setup is what a sweep user pays before the first cell runs: building the
// sweep and materializing every cell of the first block (the eager
// validation Axes.Expand performs). The fabric additionally deals one
// single-seed warm-up block, so worker start-up is paid once before timing.
func (w *sweepWorkload) setup(workloadSeed int64, rep int) error {
	src, err := w.source(blockSeeds(workloadSeed, 1, w.seedsPerBlock))
	if err != nil {
		return err
	}
	for i := 0; i < src.Len(); i++ {
		if _, err := src.Cell(i).Params.Compile(); err != nil {
			return err
		}
	}
	if w.mode == execFabric {
		// The warm-up seeds sit at the top of this workload seed's range,
		// which no timed block reaches.
		warm := workloadSeed*seedStride - int64(rep)
		if _, err := w.runBlock([]int64{warm}, execFabric, filepath.Join(spoolRoot(), "warm")); err != nil {
			return err
		}
	}
	return nil
}

// failures counts the failed operations of one block and describes them.
func (w *sweepWorkload) failures(rep *matrix.Report) (int, []string) {
	var n int
	var notes []string
	for i := range rep.Outcomes {
		o := &rep.Outcomes[i]
		var why string
		switch {
		case o.Err != "":
			why = "error: " + o.Err
		case w.mustDecide && !o.Consensus:
			why = o.FailureMode
		case w.safetyOnly && !(o.Agreement && o.Validity && o.Integrity):
			why = o.FailureMode
		default:
			continue
		}
		n++
		if len(notes) < 5 {
			notes = append(notes, fmt.Sprintf("%s: %s", o.ID, why))
		}
	}
	return n, notes
}

// runUntraced is the end-to-end pass of a simulator workload.
func (w *sweepWorkload) runUntraced(cfg runConfig) (*runResult, error) {
	res := newResult()
	defer removeSpool()

	var (
		setups     = setupTimer{setup: func(rep int) error { return w.setup(cfg.seed, rep) }}
		throughput []float64 // cells/s per block
		cellMS     []float64 // worker ms per cell, per block
		rss        []float64 // resident MiB at the end of each block
		virtMS     []float64 // virtual ms per consensus cell, first minBlocks
		cells      int
		consensus  int
		msgs       int64
		bytes      int64
	)
	begin := time.Now()
	for k := 1; k <= w.minBlocks || time.Since(begin) < cfg.duration; k++ {
		if err := setups.measure(); err != nil {
			return nil, err
		}
		seeds := blockSeeds(cfg.seed, k, w.seedsPerBlock)
		b, err := w.runBlock(seeds, w.mode, filepath.Join(spoolRoot(), fmt.Sprint(k)))
		if err != nil {
			return nil, fmt.Errorf("%s block %d: %w", w.name, k, err)
		}
		rep := b.rep
		throughput = append(throughput, float64(rep.Cells)/b.wall.Seconds())
		res.attempted += rep.Cells
		nf, notes := w.failures(rep)
		res.fail(nf, notes...)
		fp := rep.Fingerprint()
		res.Fingerprints = append(res.Fingerprints, fp)
		if k == 1 && cfg.seed == 1 && w.anchor != "" && fp != w.anchor {
			res.fail(rep.Cells, fmt.Sprintf("block 1 fingerprint %s, anchor is %s", fp, w.anchor))
		}
		busy := b.wall
		if w.mode != execSerial {
			busy *= time.Duration(workers())
		}
		cellMS = append(cellMS, float64(busy.Nanoseconds())/1e6/float64(rep.Cells))
		rss = append(rss, rssMiB())
		if k <= w.minBlocks {
			for i := range rep.Outcomes {
				if o := &rep.Outcomes[i]; o.Consensus {
					virtMS = append(virtMS, float64(o.VirtualNS)/1e6)
				}
			}
			cells += rep.Cells
			consensus += rep.Consensus
			msgs += rep.TotalMessages
			bytes += rep.TotalBytes
		}
	}

	if w.mode != execSerial {
		// The parallel and distributed paths must reproduce the serial
		// report bit for bit; block 1 is re-run serially, untimed, to check.
		b, err := w.runBlock(blockSeeds(cfg.seed, 1, w.seedsPerBlock), execSerial, "")
		if err != nil {
			return nil, err
		}
		if fp := b.rep.Fingerprint(); fp != res.Fingerprints[0] {
			res.fail(b.rep.Cells, fmt.Sprintf("block 1 fingerprint %s differs from the serial run's %s", res.Fingerprints[0], fp))
		}
	}

	if err := setups.record(res); err != nil {
		return nil, err
	}
	res.set("cells_per_s", upperDecile(throughput), len(throughput))
	// A block yields one latency sample — per-cell times are not to be had,
	// matrix.Outcome.WallNS is always 0 — so both percentiles read the quiet
	// decile of the blocks.
	res.set("decide_ms_p50", lowerDecile(cellMS), len(cellMS))
	res.set("decide_ms_p90", lowerDecile(cellMS), len(cellMS))
	res.set("virt_decide_ms_p50", median(virtMS), len(virtMS))
	v90 := tail(virtMS)
	res.set("virt_decide_ms_p90", v90, len(virtMS))
	res.set("msgs_per_cell", float64(msgs)/float64(cells), cells)
	res.set("kib_per_cell", float64(bytes)/1024/float64(cells), cells)
	res.set("consensus_share", float64(consensus)/float64(cells), cells)
	res.set("peak_rss_mib", upperDecile(rss), len(rss))
	return res, nil
}
