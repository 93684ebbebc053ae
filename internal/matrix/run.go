package matrix

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
)

// Options tunes matrix execution.
type Options struct {
	// Parallelism is the worker count; ≤ 0 means GOMAXPROCS. 1 is fully
	// serial (the baseline the determinism tests compare against).
	Parallelism int
	// Trace enables per-cell event/decision trace digests (costs one SHA-256
	// stream per cell).
	Trace bool
	// Progress, when non-nil, is called after every outcome the pool hands
	// on, in position order, with the number handed on so far and the total.
	// Calls are serialized.
	Progress func(done, total int)
}

// Outcome is the graded result of one cell. Every field except WallNS is
// deterministic, and the JSONL stream round-trips all of them, which is what
// makes a merged shard report fingerprint-identical to a monolithic run.
type Outcome struct {
	// Index is the cell's global position in expansion order.
	Index int `json:"index"`
	// ID is the stable cell identifier (scenario.Params.ID).
	ID string `json:"id"`
	// Graph / Mode / Net / Byz / F / Seed are the cell's axis labels, echoed
	// so shard files and reports are self-describing.
	Graph string `json:"graph"`
	Mode  string `json:"mode"`
	Net   string `json:"net"`
	Byz   string `json:"byz"`
	F     int    `json:"f"`
	Seed  int64  `json:"seed"`

	// Consensus is the conjunction of the four graded properties below;
	// FailureMode names the first violated one (empty for a clean run).
	Consensus   bool   `json:"consensus"`
	Agreement   bool   `json:"agreement"`
	Validity    bool   `json:"validity"`
	Integrity   bool   `json:"integrity"`
	Termination bool   `json:"termination"`
	FailureMode string `json:"failure_mode,omitempty"`

	// Expect / Match are set for cells carrying a paper prediction.
	Expect *bool `json:"expect,omitempty"`
	Match  *bool `json:"match,omitempty"`

	// VirtualNS is the virtual time of the last correct decision; Messages
	// and Bytes are the simulator's traffic counters. TraceDigest/TraceEvents
	// are set when Options.Trace was on.
	VirtualNS   sim.Time `json:"virtual_ns"`
	Messages    int64    `json:"messages"`
	Bytes       int64    `json:"bytes"`
	TraceDigest string   `json:"trace_digest,omitempty"`
	TraceEvents int64    `json:"trace_events,omitempty"`

	// WallNS is measured wall-clock time for this cell. It is the one
	// nondeterministic field; Report.Fingerprint excludes it.
	WallNS int64 `json:"wall_ns"`

	Err string `json:"err,omitempty"`
}

// compileCacheCap bounds each worker's compile cache. A seed sweep needs one
// entry; the standard sweep needs one per (graph, mode, net, byz, f)
// combination its shard touches. Eviction is FIFO — sources expand seeds
// innermost, so a sweep revisits compile keys in long runs, not randomly.
const compileCacheCap = 64

// compiledEntry is one cached compilation: the seed-independent Compiled
// scenario plus its precomputed ID prefix, so per-cell identity is one
// string concatenation instead of re-rendering every axis label.
type compiledEntry struct {
	c        *scenario.Compiled
	idPrefix string
}

// cellRunner is one worker's execution state: a bounded compile cache keyed
// by the cell's seed-independent identity (scenario.Params.CompileKey) and
// the reusable simulation scratch (engine, bookkeeping maps). A SeedSweep
// compiles once per worker and runs N times; caching is observably
// transparent — the fingerprint-identity tests pin cached and per-cell
// uncached execution to byte-identical reports.
type cellRunner struct {
	trace  bool
	runner scenario.Runner
	cache  map[string]compiledEntry
	order  []string // insertion order, for FIFO eviction
}

func newCellRunner(trace bool) *cellRunner {
	return &cellRunner{trace: trace, cache: make(map[string]compiledEntry, compileCacheCap)}
}

// compiled resolves the cell's compilation, from cache when possible.
// Failures are not cached: their messages carry the per-cell name, and a
// failing compile is never the hot path.
func (w *cellRunner) compiled(p scenario.Params) (compiledEntry, error) {
	key := p.CompileKey()
	if e, ok := w.cache[key]; ok {
		return e, nil
	}
	c, err := p.Compile()
	if err != nil {
		return compiledEntry{}, err
	}
	e := compiledEntry{c: c, idPrefix: c.Labels.IDPrefix()}
	if len(w.cache) >= compileCacheCap {
		delete(w.cache, w.order[0])
		copy(w.order, w.order[1:])
		w.order = w.order[:len(w.order)-1]
	}
	w.cache[key] = e
	w.order = append(w.order, key)
	return e, nil
}

// runCell executes one cell on the worker's deterministic simulation
// scratch. Axis labels come from the compiled entry (or, on a compile error,
// are rendered once after the error is known), so the hot loop never renders
// a label twice. The result is named so the deferred WallNS assignment lands
// in the value the caller receives.
func (w *cellRunner) runCell(c Cell) (out Outcome) {
	p := c.Params
	out = Outcome{Index: c.Index, F: p.F, Seed: p.Seed}
	start := time.Now()
	defer func() { out.WallNS = time.Since(start).Nanoseconds() }()
	ent, err := w.compiled(p)
	if err != nil {
		labels := p.Labels()
		out.ID = labels.IDFor(p.Seed)
		out.Graph, out.Mode, out.Net, out.Byz = labels.Graph, labels.Mode, labels.Net, labels.Byz
		out.Err = err.Error()
		return out
	}
	labels := ent.c.Labels
	out.ID = ent.idPrefix + "/seed=" + strconv.FormatInt(p.Seed, 10)
	out.Graph, out.Mode, out.Net, out.Byz = labels.Graph, labels.Mode, labels.Net, labels.Byz
	res, err := w.runner.Run(ent.c, p.Seed, w.trace)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Consensus = res.Consensus()
	out.Agreement = res.Agreement
	out.Validity = res.Validity
	out.Integrity = res.Integrity
	out.Termination = res.Termination
	out.FailureMode = res.FailureMode()
	out.VirtualNS = res.Elapsed
	out.Messages = res.Messages
	out.Bytes = res.Bytes
	out.TraceDigest = res.TraceDigest
	out.TraceEvents = res.TraceEvents
	if c.Expect != nil {
		want := c.Expect.Consensus
		match := want == out.Consensus
		out.Expect, out.Match = &want, &match
	}
	return out
}

// claimWindowPerWorker bounds how far ahead of the next position to sink a
// worker may claim a cell, as a multiple of the pool's parallelism. A worker
// that finishes ahead of that position parks its outcome until the position
// is sunk, so the window is also the pool's parking space: at most
// parallelism × claimWindowPerWorker outcomes wait at any sweep size, however
// skewed per-cell runtimes are. The factor is generous: a worker only ever
// waits when it is a full window ahead of the slowest cell, which costs
// nothing in the uniform-cost common case.
const claimWindowPerWorker = 8

// runPool executes the source's cells on a worker pool and hands sink every
// outcome in position order, so what a sink sees does not depend on the
// parallelism. Workers claim positions sequentially within a sliding window
// of the next position to sink (see claimWindowPerWorker) and materialize
// each cell on demand — nothing holds a cell slice. An outcome finished ahead
// of that position waits in the window's slot for it; whoever finishes the
// next position sinks it and the run of parked outcomes behind it. Sink calls
// are serialized; pos is the cell's position within the source (not its
// global Index). A sink error stops workers from claiming further cells and
// is returned. The effective parallelism is returned alongside.
func runPool(src CellSource, opts Options, sink func(pos int, o Outcome) error) (int, error) {
	n := src.Len()
	if n == 0 {
		return 0, fmt.Errorf("matrix: no cells to run")
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	window := par * claimWindowPerWorker

	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	var (
		next    int // next unclaimed position
		low     int // next position to sink: every position < low is sunk
		stop    bool
		sinkErr error
		// Position i's outcome waits in slot i % window until it is sunk;
		// the claim window keeps every unsunk position in its own slot.
		parked = make([]Outcome, window)
		ready  = make([]bool, window)
	)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cr := newCellRunner(opts.Trace)
			for {
				mu.Lock()
				for !stop && next < n && next >= low+window {
					cond.Wait()
				}
				if stop || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				o := cr.runCell(src.Cell(i))

				mu.Lock()
				parked[i%window], ready[i%window] = o, true
				for s := low % window; !stop && ready[s]; s = low % window {
					if err := sink(low, parked[s]); err != nil {
						sinkErr, stop = err, true
					}
					ready[s] = false
					low++
					if opts.Progress != nil {
						opts.Progress(low, n)
					}
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return par, sinkErr
}

// Run executes the source's cells into a report that retains every outcome;
// stream a shard (RunStream) when a sweep is too large to hold its outcomes.
// The pool hands outcomes to an Aggregator in position order, so the report
// (minus wall-clock fields) is independent of parallelism and scheduling.
func Run(src CellSource, opts Options) (*Report, error) {
	start := time.Now()
	agg := NewAggregator(true)
	par, err := runPool(src, opts, agg.Add)
	if err != nil {
		return nil, err
	}
	rep := agg.Report(par)
	rep.WallNS = time.Since(start).Nanoseconds()
	return rep, nil
}
