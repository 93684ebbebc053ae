package matrix

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
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
	// SpoolDir receives one JSONL spool file per dispatch. Empty means a
	// temporary directory, removed after a successful merge; a
	// caller-provided directory is always left in place.
	SpoolDir string
	// Heartbeat is how long a worker may go without emitting a record before
	// it is declared stalled and killed; its shard then reruns like any
	// failed dispatch. 0 disables stall detection.
	Heartbeat time.Duration
	// KeepOutcomes retains every cell outcome in the merged report.
	KeepOutcomes bool
	// Progress, when set, is called from the coordinator's goroutine on each
	// tick, and once at the end, with the number of cells spooled so far and
	// the sweep total.
	Progress func(done, total int)
}

// FabricStats records the coordinator's recovery behavior (asserted by the
// fault-injection tests, reported by sweepd -v).
type FabricStats struct {
	// Tasks counts dispatches of a shard to a worker, including every
	// redispatch.
	Tasks int
	// Redispatches counts failed dispatches whose spool was discarded and
	// whose shard ran again whole.
	Redispatches int
	// Resumes, Seals, Steals and GapTasks are always 0: a failed dispatch is
	// never completed in place, sealed, split or back-filled by cell list.
	// They stay for callers that sum the recovery counters.
	Resumes, Seals, Steals, GapTasks int
}

// The retry policy: a shard's lineage (its first dispatch plus every rerun
// of it) gets maxAttempts dispatches before the sweep aborts, and each
// redispatch waits a jittered backoff that doubles from retryBase (see
// retryDelay). Without the backoff a worker that dies on startup would burn
// the lineage's budget in milliseconds.
const (
	maxAttempts = 5
	retryBase   = 50 * time.Millisecond
)

// RunFabric executes a sweep of total cells across the fleet and merges the
// workers' streams into the monolithic report: the fingerprint is
// byte-identical to a single-process Run of the same sweep, including under
// worker death, torn streams and stalls. Memory on the coordinator is
// O(workers × parallelism + axes): each worker's stream spools to disk as it
// arrives and the final fold is the cursor-based streaming Merge. The stats
// describe the recovery work the run needed.
//
// Each shard is one lineage goroutine; the lineages share the fleet through
// a channel of free worker slots, and the calling goroutine only watches the
// in-flight dispatches (heartbeat, progress) until every lineage is done.
//
// Cancelling ctx aborts the sweep: every in-flight dispatch context is
// cancelled (transports must kill their worker and return), and RunFabric
// returns ctx's error once every lineage has returned — a killed coordinator
// leaves no orphaned workers behind.
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

	// Aborting the sweep, by the caller or by a lineage, cancels every
	// lineage and, through the dispatch contexts derived from it, every
	// in-flight worker.
	sweep, abort := context.WithCancelCause(ctx)
	defer abort(nil)
	slots := make(chan int, len(workers))
	for slot := range workers {
		slots <- slot
	}
	completed := make([]string, shards)
	var (
		mu        sync.Mutex // guards stats, seq, doneCells, inFlight and jitter
		seq       int
		doneCells int
		inFlight  = map[*spoolWriter]context.CancelFunc{}
		// The jitter decorrelates retries across lineages; it is wall-clock
		// scheduling only, invisible to sweep fingerprints, so a
		// non-deterministic seed is fine.
		jitter = rand.New(rand.NewSource(time.Now().UnixNano()))
	)

	// dispatch runs sh once on a free worker and returns its spool, with a
	// nil error when the stream has a trailer and covers the shard exactly:
	// its header names sh and it carries sh's count of outcomes, which the
	// reader holds to ascending cells of sh. A stream claiming another sweep
	// size aborts the sweep.
	dispatch := func(sh Shard) (string, error) {
		var slot int
		select {
		case slot = <-slots:
		case <-sweep.Done():
			return "", context.Cause(sweep)
		}
		defer func() { slots <- slot }()
		mu.Lock()
		stats.Tasks++
		seq++
		spool := filepath.Join(dir, fmt.Sprintf("task-%03d-w%d.jsonl", seq, slot))
		mu.Unlock()
		f, err := os.Create(spool)
		if err != nil {
			abort(err)
			return "", err
		}
		wctx, cancel := context.WithCancel(sweep)
		defer cancel()
		w := &spoolWriter{f: f, size: sh.Len(total)}
		w.last.Store(time.Now().UnixNano())
		mu.Lock()
		inFlight[w] = cancel
		mu.Unlock()
		err = workers[slot].Run(wctx, sh, w)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		rd, serr := scanStreamFile(spool)
		mu.Lock()
		defer mu.Unlock()
		delete(inFlight, w)
		switch {
		case serr == nil && rd.header != nil && rd.header.TotalCells != total:
			err = fmt.Errorf("fabric: worker stream claims %d total cells, sweep has %d (misconfigured fleet?)", rd.header.TotalCells, total)
			abort(err)
		case serr == nil && rd.trailer != nil && rd.shard == sh && rd.outcomes == sh.Len(total):
			doneCells += rd.outcomes
			return spool, nil
		case err == nil:
			err = fmt.Errorf("stream incomplete or corrupt")
		}
		return spool, err
	}

	// lineage is the fabric's one recovery rule, for a dead worker, a
	// corrupt stream and a stall alike: the spool is discarded and the same
	// shard runs again whole, after a jittered exponential backoff spent
	// holding no worker.
	var wg sync.WaitGroup
	lineage := func(sh Shard) {
		defer wg.Done()
		for attempt := 1; ; attempt++ {
			spool, err := dispatch(sh)
			if err == nil {
				completed[sh.Index-1] = spool
				return
			}
			if sweep.Err() != nil {
				return
			}
			if attempt == maxAttempts {
				abort(fmt.Errorf("fabric: shard %s failed %d times (last: %v)", sh, attempt, err))
				return
			}
			os.Remove(spool)
			mu.Lock()
			stats.Redispatches++
			backoff := time.NewTimer(retryDelay(attempt, jitter))
			mu.Unlock()
			select {
			case <-backoff.C:
			case <-sweep.Done():
				backoff.Stop()
				return
			}
		}
	}
	wg.Add(shards)
	for i := range completed {
		go lineage(Shard{Index: i + 1, Count: shards})
	}
	lineagesDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(lineagesDone)
	}()

	var tick <-chan time.Time
	if opts.Heartbeat > 0 || opts.Progress != nil {
		period := opts.Heartbeat / 4
		if period <= 0 || period > 500*time.Millisecond {
			period = 500 * time.Millisecond
		}
		if period < 5*time.Millisecond {
			period = 5 * time.Millisecond
		}
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		tick = ticker.C
	}
	for running := true; running; {
		select {
		case <-lineagesDone:
			running = false
		case now := <-tick:
			mu.Lock()
			done := doneCells
			for w, cancel := range inFlight {
				if opts.Heartbeat > 0 && now.Sub(w.lastActivity()) > opts.Heartbeat {
					cancel()
				}
				done += w.outcomeCount()
			}
			mu.Unlock()
			if opts.Progress != nil {
				opts.Progress(done, total)
			}
		}
	}

	if err := context.Cause(sweep); err != nil {
		return nil, stats, fmt.Errorf("%w (spools kept in %s)", err, dir)
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
// shard's lineage runs (n ≥ 1, counting the original dispatch as attempt 0):
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

// scanStreamFile reads a stream file up to its trailer or its end, and
// refuses a damaged one. The reader it returns holds the header, the trailer
// (nil when the stream stops short) and the outcome count.
func scanStreamFile(path string) (*recordReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd := newRecordReader(f)
	for rd.trailer == nil {
		if _, err := rd.next(); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return rd, nil
}

// spoolWriter copies a worker's stream to its spool file while tracking
// liveness (for the heartbeat) and progress: the complete lines after the
// header, capped at the shard's size so the trailer never counts. Which
// record a line holds is the reader's business, checked when the worker
// exits.
type spoolWriter struct {
	f     *os.File
	size  int
	last  atomic.Int64 // unix nanos of the dispatch or of its latest write
	lines atomic.Int64
}

// Write implements io.Writer.
func (w *spoolWriter) Write(p []byte) (int, error) {
	w.last.Store(time.Now().UnixNano())
	w.lines.Add(int64(bytes.Count(p, []byte{'\n'})))
	return w.f.Write(p)
}

func (w *spoolWriter) lastActivity() time.Time { return time.Unix(0, w.last.Load()) }

// outcomeCount is the dispatch's in-flight progress.
func (w *spoolWriter) outcomeCount() int {
	return min(max(int(w.lines.Load())-1, 0), w.size)
}
