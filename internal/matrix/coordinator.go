package matrix

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// FabricOptions tunes the distributed sweep coordinator.
type FabricOptions struct {
	// Shards is the number of shards dealt to the fleet; 0 means one per
	// worker. A shard is the unit of dispatch and of retry: more shards than
	// workers balances load and makes a failure rerun less of the sweep, at
	// the cost of more streams to merge.
	Shards int
	// SpoolDir receives one JSONL spool file per dispatched task. Empty
	// means a temporary directory, removed after a successful merge; a
	// caller-provided directory is always left in place.
	SpoolDir string
	// Heartbeat is how long a worker may go without emitting a record before
	// it is declared stalled and killed; its task then reruns like any
	// failed task. 0 disables stall detection.
	Heartbeat time.Duration
	// KeepOutcomes retains every cell outcome in the merged report.
	KeepOutcomes bool
	// Progress, when set, is called from the coordinator loop with the
	// number of cells spooled so far and the sweep total.
	Progress func(done, total int)
}

// FabricStats records the coordinator's recovery behavior (asserted by the
// fault-injection tests, reported by sweepd -v).
type FabricStats struct {
	// Tasks counts dispatches, including every redispatch.
	Tasks int
	// Redispatches counts failed tasks whose spool was discarded and whose
	// shard was queued again whole.
	Redispatches int
	// Resumes, Seals, Steals and GapTasks are always 0: a failed task is
	// never completed in place, sealed, split or back-filled by cell list.
	// They stay for callers that sum the recovery counters.
	Resumes, Seals, Steals, GapTasks int
}

// The retry policy: a task lineage (the original dispatch plus every rerun
// of it) gets maxAttempts dispatches before the sweep aborts, and each
// redispatch waits a jittered backoff that doubles from retryBase (see
// retryDelay). Without the backoff a worker that dies on startup would burn
// the lineage's budget in milliseconds.
const (
	maxAttempts = 5
	retryBase   = 50 * time.Millisecond
)

// live tracks one in-flight dispatch.
type live struct {
	task    Task
	slot    int
	spool   string
	cancel  context.CancelFunc
	w       *spoolWriter
	started time.Time
}

// exitEvent reports a worker's exit to the coordinator loop.
type exitEvent struct {
	lv  *live
	err error
}

// RunFabric executes a sweep of total cells across the fleet and merges the
// workers' streams into the monolithic report: the fingerprint is
// byte-identical to a single-process Run of the same sweep, including under
// worker death, torn streams and stalls. Memory on the coordinator is
// O(workers × parallelism + axes): each worker's stream spools to disk as it
// arrives and the final fold is the cursor-based streaming Merge. The stats describe the recovery work the run needed.
//
// Cancelling ctx aborts the sweep: every in-flight dispatch context is
// cancelled (transports must kill their worker and return), the queue is
// drained, and RunFabric returns ctx's error once the fleet has been reaped —
// a killed coordinator leaves no orphaned workers behind.
func RunFabric(ctx context.Context, total int, workers []Transport, opts FabricOptions) (*Report, FabricStats, error) {
	var stats FabricStats
	if ctx == nil {
		ctx = context.Background()
	}
	if total <= 0 {
		return nil, stats, fmt.Errorf("fabric: sweep has no cells")
	}
	if len(workers) == 0 {
		return nil, stats, fmt.Errorf("fabric: no workers")
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = len(workers)
	}
	if shards > total {
		shards = total
	}
	// The jitter decorrelates retries across lineages; it is wall-clock
	// scheduling only, invisible to sweep fingerprints, so a non-deterministic
	// seed is fine.
	retryJitter := rand.New(rand.NewSource(time.Now().UnixNano()))
	dir, ownDir := opts.SpoolDir, false
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "sweep-fabric-"); err != nil {
			return nil, stats, err
		}
		ownDir = true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, err
	}

	queue := make([]Task, shards)
	for i := range queue {
		queue[i].Shard = Shard{Index: i + 1, Count: shards}
	}

	idle := make([]int, len(workers))
	for i := range idle {
		idle[i] = len(workers) - 1 - i
	}
	running := make(map[int]*live)
	events := make(chan exitEvent, len(workers))
	var completed []string
	doneCells, seq := 0, 0

	dispatch := func(task Task) error {
		slot := idle[len(idle)-1]
		idle = idle[:len(idle)-1]
		seq++
		spool := filepath.Join(dir, fmt.Sprintf("task-%03d-w%d.jsonl", seq, slot))
		f, err := os.Create(spool)
		if err != nil {
			return err
		}
		// Derived from the caller's ctx: cancelling the sweep cancels every
		// in-flight worker.
		ctx, cancel := context.WithCancel(ctx)
		lv := &live{task: task, slot: slot, spool: spool, cancel: cancel, started: time.Now(),
			w: &spoolWriter{f: f, size: len(task.expected(total))}}
		stats.Tasks++
		go func() {
			err := workers[slot].Run(ctx, task, lv.w)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			events <- exitEvent{lv: lv, err: err}
		}()
		running[slot] = lv
		return nil
	}

	var abortErr error
	abort := func(err error) {
		if abortErr == nil {
			abortErr = err
		}
		queue = queue[:0]
		for _, lv := range running {
			lv.cancel()
		}
	}

	// retry is the fabric's one recovery rule, for a dead worker, a corrupt
	// stream and a stall alike: the spool is discarded and the same shard is
	// queued again whole, after the lineage's jittered exponential backoff.
	retry := func(lv *live, runErr error) {
		attempt := lv.task.attempt + 1
		if attempt >= maxAttempts {
			abort(fmt.Errorf("fabric: task %s failed %d times (last: %v)", lv.task.spec(), attempt, runErr))
			return
		}
		os.Remove(lv.spool)
		stats.Redispatches++
		t := lv.task
		t.attempt, t.notBefore = attempt, time.Now().Add(retryDelay(attempt, retryJitter))
		queue = append(queue, t)
	}

	handleExit := func(ev exitEvent) {
		lv := ev.lv
		delete(running, lv.slot)
		idle = append(idle, lv.slot)
		scan, err := scanStreamFile(lv.spool)
		if err == nil && scan.header != nil && scan.header.TotalCells != total {
			abort(fmt.Errorf("fabric: worker stream claims %d total cells, sweep has %d (misconfigured fleet?)", scan.header.TotalCells, total))
			return
		}
		if err == nil && scan.header != nil && scan.trailer != nil && coversExactly(scan.done, lv.task.expected(total)) {
			completed = append(completed, lv.spool)
			doneCells += len(scan.done)
			return
		}
		if ev.err == nil {
			ev.err = fmt.Errorf("stream incomplete or corrupt")
		}
		retry(lv, ev.err)
	}

	checkStalls := func(now time.Time) {
		for _, lv := range running {
			last := lv.w.lastActivity()
			if last.IsZero() {
				last = lv.started
			}
			if now.Sub(last) > opts.Heartbeat {
				lv.cancel()
			}
		}
	}

	var ticker *time.Ticker
	var tick <-chan time.Time
	if opts.Heartbeat > 0 || opts.Progress != nil {
		period := opts.Heartbeat / 4
		if period <= 0 || period > 500*time.Millisecond {
			period = 500 * time.Millisecond
		}
		if period < 5*time.Millisecond {
			period = 5 * time.Millisecond
		}
		ticker = time.NewTicker(period)
		tick = ticker.C
		defer ticker.Stop()
	}

	progress := func() {
		if opts.Progress == nil {
			return
		}
		inFlight := 0
		for _, lv := range running {
			inFlight += lv.w.outcomeCount()
		}
		opts.Progress(doneCells+inFlight, total)
	}

	ctxDone := ctx.Done()
	for len(queue) > 0 || len(running) > 0 {
		// Dispatch every eligible task; reruns still inside their backoff
		// window stay queued (order otherwise preserved).
		for len(idle) > 0 && abortErr == nil {
			i := -1
			now := time.Now()
			for j, t := range queue {
				if !t.notBefore.After(now) {
					i = j
					break
				}
			}
			if i < 0 {
				break
			}
			task := queue[i]
			queue = append(queue[:i], queue[i+1:]...)
			if err := dispatch(task); err != nil {
				abort(err)
			}
		}
		// When only backed-off tasks remain and a worker could take one, arm
		// a wakeup for the earliest eligibility; without it the loop would
		// deadlock once the fleet drains (no exit events left to wake on).
		var wake <-chan time.Time
		if len(queue) > 0 && len(idle) > 0 && abortErr == nil {
			next := queue[0].notBefore
			for _, t := range queue[1:] {
				if t.notBefore.Before(next) {
					next = t.notBefore
				}
			}
			wake = time.After(time.Until(next))
		}
		if len(running) == 0 && wake == nil {
			break
		}
		select {
		case ev := <-events:
			handleExit(ev)
			progress()
		case now := <-tick:
			if opts.Heartbeat > 0 {
				checkStalls(now)
			}
			progress()
		case <-wake:
			// Re-run the dispatch scan; the earliest backoff has expired.
		case <-ctxDone:
			// Coordinator cancelled: abort cancels every dispatch context, and
			// the loop keeps draining exit events until the fleet is reaped.
			abort(ctx.Err())
			ctxDone = nil
		}
	}

	if abortErr != nil {
		return nil, stats, fmt.Errorf("%w (spools kept in %s)", abortErr, dir)
	}
	rep, err := MergeFilesWith(MergeOptions{KeepOutcomes: opts.KeepOutcomes}, completed...)
	if err != nil {
		return nil, stats, fmt.Errorf("fabric: merging %d worker streams: %w (spools kept in %s)", len(completed), err, dir)
	}
	rep.Parallelism = len(workers)
	if ownDir {
		os.RemoveAll(dir)
	}
	if opts.Progress != nil {
		opts.Progress(total, total)
	}
	return rep, stats, nil
}

// retryDelay computes the jittered exponential backoff before attempt n of a
// task lineage runs (n ≥ 1, counting the original dispatch as attempt 0):
// retryBase·2^(n−1), capped at 5s, jittered uniformly over [½·, 1½·).
func retryDelay(attempt int, rng *rand.Rand) time.Duration {
	const maxDelay = 5 * time.Second
	d := retryBase
	for i := 1; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)))
}

// coversExactly reports whether done is exactly the expected index set.
func coversExactly(done map[int]bool, expected []int) bool {
	if len(done) != len(expected) {
		return false
	}
	for _, g := range expected {
		if !done[g] {
			return false
		}
	}
	return true
}

// spoolWriter copies a worker's stream to its spool file while tracking
// liveness (for the heartbeat) and progress: the complete lines after the
// header, capped at the task's size so the trailer never counts. Which
// record a line holds is the reader's business, checked when the worker
// exits.
type spoolWriter struct {
	f     *os.File
	size  int
	last  atomic.Int64 // unix nanos of the latest write
	lines atomic.Int64
}

// Write implements io.Writer.
func (w *spoolWriter) Write(p []byte) (int, error) {
	w.last.Store(time.Now().UnixNano())
	w.lines.Add(int64(bytes.Count(p, []byte{'\n'})))
	return w.f.Write(p)
}

func (w *spoolWriter) lastActivity() time.Time {
	ns := w.last.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// outcomeCount is the task's in-flight progress.
func (w *spoolWriter) outcomeCount() int {
	return min(max(int(w.lines.Load())-1, 0), w.size)
}
