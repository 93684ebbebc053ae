package matrix

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
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
	// Heartbeat is how long a worker may go without emitting a record (or
	// growing its resume spool) before it is declared stalled, killed, and
	// its unclaimed tail re-specced to idle workers. 0 disables stall
	// detection.
	Heartbeat time.Duration
	// MaxAttempts bounds one task lineage's dispatches (the original plus
	// every redispatch, resume or re-spec descended from it) before the
	// sweep aborts. 0 means 5.
	MaxAttempts int
	// RetryBackoff is the base delay before a failed task's lineage is
	// dispatched again; each attempt doubles it, with ±50% jitter, capped at
	// 5s. Without it a worker that dies on startup burns the whole
	// MaxAttempts budget in milliseconds. 0 means 50ms; negative disables
	// the delay (recovery tasks redispatch immediately).
	RetryBackoff time.Duration
	// MaxSplit caps how many sub-spans one steal creates; 0 means the
	// worker count.
	MaxSplit int
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
	// Redispatches counts tasks re-run from scratch (no usable partial).
	Redispatches int
	// Resumes counts torn spools completed in place by another worker.
	Resumes int
	// Seals counts torn spools sealed as valid partial streams.
	Seals int
	// Steals counts stalled tasks whose unclaimed tail was re-specced.
	Steals int
	// SubShards counts the sub-spans those steals created.
	SubShards int
	// GapTasks counts explicit cell-list back-fill dispatches.
	GapTasks int
	// Backoffs counts recovery tasks whose dispatch was delayed by the
	// retry backoff.
	Backoffs int
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
	return runFabric(ctx, total, workers, opts)
}

// live tracks one in-flight dispatch.
type live struct {
	task    Task
	slot    int
	spool   string
	cancel  context.CancelFunc
	w       *spoolWriter // nil for resume-in-place dispatches
	stalled bool
	// lastSize/lastChange drive the heartbeat for resume dispatches, where
	// progress is spool-file growth rather than sink writes.
	lastSize   int64
	lastChange time.Time
}

// exitEvent reports a worker's exit to the coordinator loop.
type exitEvent struct {
	lv  *live
	err error
}

func runFabric(ctx context.Context, total int, workers []Transport, opts FabricOptions) (*Report, FabricStats, error) {
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
	maxSplit := opts.MaxSplit
	if maxSplit <= 0 {
		maxSplit = len(workers)
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

	// Resume-in-place needs every transport to share the coordinator's
	// filesystem; a mixed fleet falls back to seal-and-resplit for everyone.
	allResume := true
	for _, w := range workers {
		if _, ok := w.(SpoolResumer); !ok {
			allResume = false
		}
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
		// Derived from the caller's ctx: cancelling the sweep cancels every
		// in-flight worker.
		ctx, cancel := context.WithCancel(ctx)
		lv := &live{task: task, slot: slot, cancel: cancel, lastChange: time.Now()}
		stats.Tasks++
		if task.resumeSpool != "" {
			lv.spool = task.resumeSpool
			resumer := workers[slot].(SpoolResumer)
			go func() {
				events <- exitEvent{lv: lv, err: resumer.ResumeSpool(ctx, task, lv.spool)}
			}()
		} else {
			seq++
			lv.spool = filepath.Join(dir, fmt.Sprintf("task-%03d-w%d.jsonl", seq, slot))
			f, err := os.Create(lv.spool)
			if err != nil {
				cancel()
				return err
			}
			lv.w = newSpoolWriter(f)
			go func() {
				err := workers[slot].Run(ctx, task, lv.w)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				events <- exitEvent{lv: lv, err: err}
			}()
		}
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

	// enqueueRecovery routes one failed dispatch: discard-and-redispatch
	// when nothing usable was spooled, resume-in-place when the fleet can,
	// seal plus gap/tail re-spec otherwise (and always on a stall, where
	// the tail split is the work-stealing).
	enqueueRecovery := func(lv *live, runErr error) {
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
		scan, serr := scanStreamFile(lv.spool)
		expected := lv.task.expected(total)
		usable := serr == nil && scan.header != nil && len(scan.done) > 0 && scan.trailer == nil
		if usable && scan.header.TotalCells != total {
			abort(fmt.Errorf("fabric: worker stream claims %d total cells, sweep has %d (misconfigured fleet?)", scan.header.TotalCells, total))
			return
		}
		if usable {
			for g := range scan.done {
				if !lv.task.owns(g) {
					usable = false // outside its task: untrusted stream
					break
				}
			}
		}
		if !usable {
			os.Remove(lv.spool)
			t := lv.task
			t.attempt = attempt
			t.resumeSpool = ""
			t.notBefore = notBefore
			queue = append(queue, t)
			stats.Redispatches++
			return
		}
		if !lv.stalled && allResume {
			// Dead worker, shared filesystem: another worker completes the
			// torn spool in place — the cheapest recovery, one stream.
			t := lv.task
			t.attempt = attempt
			t.resumeSpool = lv.spool
			t.notBefore = notBefore
			queue = append(queue, t)
			stats.Resumes++
			return
		}
		// Seal what ran; back-fill the holes. The sealed stream stays in the
		// merge set with its outcome prefix.
		kept, err := sealStreamFile(lv.spool)
		if err != nil {
			os.Remove(lv.spool)
			t := lv.task
			t.attempt = attempt
			t.resumeSpool = ""
			t.notBefore = notBefore
			queue = append(queue, t)
			stats.Redispatches++
			return
		}
		completed = append(completed, lv.spool)
		doneCells += kept
		stats.Seals++
		var missing []int
		for _, g := range expected {
			if !scan.done[g] {
				missing = append(missing, g)
			}
		}
		if len(missing) == 0 {
			return
		}
		if lv.task.Cells != nil {
			queue = append(queue, Task{Cells: missing, attempt: attempt, notBefore: notBefore})
			stats.GapTasks++
			return
		}
		// The worker pool claims positions within a bounded window, so the
		// completed set is a prefix of the span plus a few holes: everything
		// missing past the last completed position is the unclaimed tail —
		// re-specced as fresh sub-spans — and the holes below it are a small
		// explicit gap task.
		span := lv.task.Span
		tailFrom := span.From
		for g := range scan.done {
			if p := g / span.Shard.Count; p+1 > tailFrom {
				tailFrom = p + 1
			}
		}
		tail := Span{Shard: span.Shard, From: tailFrom}
		var gaps []int
		for _, g := range missing {
			if !tail.Owns(g) {
				gaps = append(gaps, g)
			}
		}
		if len(gaps) > 0 {
			sort.Ints(gaps)
			queue = append(queue, Task{Cells: gaps, attempt: attempt, notBefore: notBefore})
			stats.GapTasks++
		}
		if tailLen := tail.Len(total); tailLen > 0 {
			m := 1
			if lv.stalled {
				// Steal: deal the tail to the workers now idle (plus the
				// slot this exit just freed).
				m = len(idle) + 1
				if m > maxSplit {
					m = maxSplit
				}
				if m > tailLen {
					m = tailLen
				}
				if m > 1 {
					stats.Steals++
					stats.SubShards += m
				}
			}
			for _, sub := range tail.Split(m) {
				if sub.Len(total) > 0 {
					queue = append(queue, Task{Span: sub, attempt: attempt, notBefore: notBefore})
				}
			}
		}
	}

	handleExit := func(ev exitEvent) {
		lv := ev.lv
		delete(running, lv.slot)
		idle = append(idle, lv.slot)
		scan, serr := scanStreamFile(lv.spool)
		expected := lv.task.expected(total)
		if serr == nil && scan.header != nil && scan.trailer != nil && coversExactly(scan.done, expected) {
			if scan.header.TotalCells != total {
				abort(fmt.Errorf("fabric: worker stream claims %d total cells, sweep has %d (misconfigured fleet?)", scan.header.TotalCells, total))
				return
			}
			completed = append(completed, lv.spool)
			doneCells += len(expected)
			return
		}
		if ev.err == nil {
			ev.err = fmt.Errorf("stream incomplete or corrupt")
		}
		enqueueRecovery(lv, ev.err)
	}

	checkStalls := func(now time.Time) {
		for _, lv := range running {
			if lv.stalled {
				continue
			}
			var last time.Time
			if lv.w != nil {
				last = lv.w.lastActivity()
				if last.IsZero() {
					last = lv.lastChange
				}
			} else {
				if st, err := os.Stat(lv.spool); err == nil && st.Size() != lv.lastSize {
					lv.lastSize = st.Size()
					lv.lastChange = now
				}
				last = lv.lastChange
			}
			if now.Sub(last) > opts.Heartbeat {
				lv.stalled = true
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
			if lv.w != nil {
				inFlight += lv.w.outcomeCount()
			}
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
