package matrix

import (
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
	// Shards is the initial number of spans dealt to the fleet; 0 means one
	// per worker. More shards than workers gives natural load balancing at
	// the cost of more streams to merge.
	Shards int
	// SpoolDir receives one JSONL spool file per dispatched task. Empty
	// means a temporary directory, removed after a successful merge; a
	// caller-provided directory is always left in place.
	SpoolDir string
	// Heartbeat is how long a worker may go without emitting a record before
	// it is declared stalled and killed; its spool then recovers like any
	// failed task's. 0 disables stall detection.
	Heartbeat time.Duration
	// MaxAttempts bounds one task lineage's dispatches (the original plus
	// every recovery task descended from it) before the sweep aborts. 0
	// means 5.
	MaxAttempts int
	// RetryBackoff is the base delay before a failed task's lineage is
	// dispatched again; each attempt doubles it, with ±50% jitter, capped at
	// 5s. Without it a worker that dies on startup burns the whole
	// MaxAttempts budget in milliseconds. 0 means 50ms; negative disables
	// the delay (recovery tasks redispatch immediately).
	RetryBackoff time.Duration
	// KeepOutcomes retains every cell outcome in the merged report.
	KeepOutcomes bool
	// Progress, when set, is called from the coordinator loop with the
	// number of cells spooled so far and the sweep total.
	Progress func(done, total int)
}

// FabricStats records the coordinator's recovery behavior (asserted by the
// fault-injection tests, reported by sweepd -v).
type FabricStats struct {
	// Tasks counts dispatches, including every recovery dispatch.
	Tasks int
	// Redispatches counts failed tasks whose spool was discarded (no
	// trusted outcome in it), so all their cells were dealt out again.
	Redispatches int
	// Resumes is always 0: the fabric no longer completes spools in place.
	// It stays for callers that sum the recovery counters.
	Resumes int
	// Seals counts failed tasks whose intact prefix was sealed into the
	// merge set.
	Seals int
	// Steals counts recoveries whose unclaimed tail was split over more
	// than one worker.
	Steals int
	// SubShards counts the sub-spans those splits created.
	SubShards int
	// GapTasks counts explicit cell-list back-fill dispatches.
	GapTasks int
	// Backoffs counts recovery tasks whose dispatch was delayed by the
	// retry backoff.
	Backoffs int
}

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
// worker death, torn streams, and straggler-triggered shard splits. Memory
// on the coordinator is O(workers × parallelism + axes): each worker's
// stream spools to disk as it arrives and the final fold is the cursor-based
// streaming Merge. The stats describe the recovery work the run needed.
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
	maxAttempts := opts.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 5
	}
	retryBase := opts.RetryBackoff
	if retryBase == 0 {
		retryBase = 50 * time.Millisecond
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

	queue := make([]Task, 0, shards)
	for i := 1; i <= shards; i++ {
		sp := Span{Shard: Shard{Index: i, Count: shards}}
		if sp.Len(total) > 0 {
			queue = append(queue, Task{Span: sp})
		}
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
		lv := &live{task: task, slot: slot, spool: spool, cancel: cancel, w: newSpoolWriter(f), started: time.Now()}
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

	// enqueueRecovery is the fabric's one recovery rule, for a dead worker,
	// a corrupt stream and a stall alike. The spool's intact prefix is sealed
	// into the merge set; a spool the reader refuses, without a header, or
	// carrying cells outside its task is discarded instead. The holes below
	// the last completed position go out as one cell-list task, and the
	// unclaimed tail is split over the workers free at that moment. The
	// worker pool claims positions within a bounded window, so the holes are
	// few and the tail is most of what is missing.
	enqueueRecovery := func(lv *live, scan *streamScan, runErr error) {
		attempt := lv.task.attempt + 1
		if attempt >= maxAttempts {
			abort(fmt.Errorf("fabric: task %s failed %d times (last: %v)", lv.task.spec(), attempt, runErr))
			return
		}
		// Every task this recovery enqueues waits out the lineage's jittered
		// exponential backoff before redispatch.
		var notBefore time.Time
		if retryBase > 0 {
			notBefore = time.Now().Add(retryDelay(retryBase, attempt, retryJitter))
			stats.Backoffs++
		}
		enqueue := func(t Task) {
			t.attempt, t.notBefore = attempt, notBefore
			queue = append(queue, t)
		}
		var done map[int]bool
		if scan != nil && scan.header != nil && scan.trailer == nil && len(scan.done) > 0 && ownsAll(lv.task, scan.done) {
			if kept, err := sealStreamFile(lv.spool); err == nil {
				completed = append(completed, lv.spool)
				doneCells += kept
				stats.Seals++
				done = scan.done
			}
		}
		if done == nil {
			os.Remove(lv.spool)
			stats.Redispatches++
		}
		if lv.task.Cells != nil {
			var missing []int
			for _, g := range lv.task.Cells {
				if !done[g] {
					missing = append(missing, g)
				}
			}
			if len(missing) > 0 {
				enqueue(Task{Cells: missing})
				stats.GapTasks++
			}
			return
		}
		span := lv.task.Span
		tail := span
		for g := range done {
			if p := g / span.Shard.Count; p >= tail.From {
				tail.From = p + 1
			}
		}
		var holes []int
		for _, g := range span.Globals(total) {
			if tail.Owns(g) {
				break
			}
			if !done[g] {
				holes = append(holes, g)
			}
		}
		if len(holes) > 0 {
			enqueue(Task{Cells: holes})
			stats.GapTasks++
		}
		// idle includes the slot this exit freed and never outnumbers the
		// fleet, so it caps the split at the fleet size.
		m := min(len(idle), tail.Len(total))
		if m > 1 {
			stats.Steals++
			stats.SubShards += m
		}
		for _, sub := range tail.Split(m) {
			if sub.Len(total) > 0 {
				enqueue(Task{Span: sub})
			}
		}
	}

	handleExit := func(ev exitEvent) {
		lv := ev.lv
		delete(running, lv.slot)
		idle = append(idle, lv.slot)
		scan, err := scanStreamFile(lv.spool)
		if err != nil {
			scan = nil
		} else if scan.header != nil && scan.header.TotalCells != total {
			abort(fmt.Errorf("fabric: worker stream claims %d total cells, sweep has %d (misconfigured fleet?)", scan.header.TotalCells, total))
			return
		}
		if scan != nil && scan.header != nil && scan.trailer != nil && coversExactly(scan.done, lv.task.expected(total)) {
			completed = append(completed, lv.spool)
			doneCells += len(scan.done)
			return
		}
		if ev.err == nil {
			ev.err = fmt.Errorf("stream incomplete or corrupt")
		}
		enqueueRecovery(lv, scan, ev.err)
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
		// Dispatch every eligible task; recovery tasks still inside their
		// backoff window stay queued (order otherwise preserved).
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
// base·2^(n−1) jittered uniformly over [½·, 1½·), capped at 5s so a deep
// lineage under a generous MaxAttempts cannot park work for minutes.
func retryDelay(base time.Duration, attempt int, rng *rand.Rand) time.Duration {
	const maxDelay = 5 * time.Second
	d := base
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

// ownsAll reports whether every index in done belongs to the task's slice.
func ownsAll(t Task, done map[int]bool) bool {
	for g := range done {
		if !t.owns(g) {
			return false
		}
	}
	return true
}

// spoolWriter copies a worker's stream to its spool file while tracking
// liveness (for the heartbeat) and completed outcomes (for progress): it
// counts newline-terminated lines that open with the outcome record prefix,
// robust to writes splitting lines at any byte.
type spoolWriter struct {
	f        *os.File
	last     atomic.Int64 // unix nanos of the latest write
	outcomes atomic.Int64
	// line-prefix matcher state: position within outcomePrefix, -1 once the
	// current line cannot be an outcome record.
	matchPos    int
	matched     bool
	atLineStart bool
}

const outcomePrefix = `{"type":"outcome"`

func newSpoolWriter(f *os.File) *spoolWriter {
	return &spoolWriter{f: f, atLineStart: true}
}

// Write implements io.Writer.
func (w *spoolWriter) Write(p []byte) (int, error) {
	w.last.Store(time.Now().UnixNano())
	for _, b := range p {
		if w.atLineStart {
			w.matchPos, w.matched, w.atLineStart = 0, false, false
		}
		if b == '\n' {
			if w.matched {
				w.outcomes.Add(1)
			}
			w.atLineStart = true
			continue
		}
		if !w.matched && w.matchPos >= 0 {
			if w.matchPos < len(outcomePrefix) && b == outcomePrefix[w.matchPos] {
				w.matchPos++
				if w.matchPos == len(outcomePrefix) {
					w.matched = true
				}
			} else {
				w.matchPos = -1
			}
		}
	}
	return w.f.Write(p)
}

func (w *spoolWriter) lastActivity() time.Time {
	ns := w.last.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

func (w *spoolWriter) outcomeCount() int { return int(w.outcomes.Load()) }
