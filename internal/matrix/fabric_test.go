package matrix

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fabricSweeps enumerates the named sweeps the fabric must reproduce
// byte-identically; the probabilistic sweep is the slowest and skipped in
// -short runs.
func fabricSweeps(t *testing.T) map[string]CellSource {
	t.Helper()
	sweeps := map[string]CellSource{}
	std, err := StandardSweep(Seeds(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	sweeps["standard"] = std
	adv, err := AdversarySweep(Seeds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	sweeps["adversary"] = adv
	if !testing.Short() {
		prob, err := ProbabilisticSweep(Seeds(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		sweeps["probabilistic"] = prob
	}
	return sweeps
}

// procFleet builds n in-process workers over one sweep.
func procFleet(name string, src CellSource, n int) []Transport {
	fleet := make([]Transport, n)
	for i := range fleet {
		fleet[i] = ProcTransport{Name: name, Src: src, Opts: Options{Parallelism: 2}}
	}
	return fleet
}

// TestFabricFingerprintIdentity is the tentpole's core claim: the
// distributed sweep reproduces the monolithic fingerprint byte-for-byte on
// every named sweep, with more shards than workers and uneven spans.
func TestFabricFingerprintIdentity(t *testing.T) {
	for name, src := range fabricSweeps(t) {
		t.Run(name, func(t *testing.T) {
			mono, err := Run(src, Options{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			rep, stats, err := RunFabric(context.Background(), src.Len(), procFleet(name, src, 4), FabricOptions{
				Shards:   5,
				SpoolDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Fingerprint() != mono.Fingerprint() {
				t.Fatalf("fabric fingerprint %s != mono %s", rep.Fingerprint(), mono.Fingerprint())
			}
			if rep.Cells != mono.Cells || rep.Consensus != mono.Consensus || rep.Errors != mono.Errors {
				t.Fatalf("fabric report %d/%d/%d diverges from mono %d/%d/%d",
					rep.Cells, rep.Consensus, rep.Errors, mono.Cells, mono.Consensus, mono.Errors)
			}
			if stats.Tasks != 5 || stats.Redispatches != 0 {
				t.Fatalf("clean run dispatched %+v", stats)
			}
		})
	}
}

// faultMode selects which failure the wrapped transport injects on its
// first dispatch.
type faultMode int

const (
	faultDie     faultMode = iota // exit non-zero mid-stream
	faultCorrupt                  // write garbage mid-stream, exit zero
	faultStall                    // stop emitting, hang until killed
	faultTorn                     // cut the next outcome line in half, exit zero
)

// faultTransport wraps an in-process worker and injects a fault on chosen
// dispatches: the worker's true stream is buffered, its header and `after`
// outcomes are emitted, and then the transport dies, corrupts the stream,
// tears its last line, or hangs until the coordinator kills it. The outcomes emitted leave out the
// task's first cell, so the spool has a hole below its last completed
// position, as a worker pool finishing cells out of order leaves.
type faultTransport struct {
	proc  ProcTransport
	mode  faultMode
	after int           // outcome records to emit before the fault
	on    map[int]bool  // fleet-wide dispatch ordinals (1-based) that fault
	seen  *atomic.Int32 // shared dispatch counter
	fired *atomic.Int32 // shared count of faults injected
}

// Run implements Transport.
func (f *faultTransport) Run(ctx context.Context, task Task, sink io.Writer) error {
	if !f.on[int(f.seen.Add(1))] {
		return f.proc.Run(ctx, task, sink)
	}
	f.fired.Add(1)
	var buf bytes.Buffer
	if err := f.proc.Run(ctx, task, &buf); err != nil {
		return err
	}
	// The header, then the outcomes of the task's cells in index order from
	// its second cell on.
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	outcomes := lines[1 : len(lines)-2] // drop the trailer and the empty tail
	sort.Slice(outcomes, func(i, j int) bool { return outcomeIndex(outcomes[i]) < outcomeIndex(outcomes[j]) })
	if len(outcomes) > 0 {
		outcomes = outcomes[1:]
	}
	var next []byte
	if len(outcomes) > f.after {
		outcomes, next = outcomes[:f.after], outcomes[f.after]
	}
	for _, line := range append([][]byte{lines[0]}, outcomes...) {
		if _, err := sink.Write(line); err != nil {
			return err
		}
	}
	switch f.mode {
	case faultDie:
		return errors.New("injected worker death")
	case faultCorrupt:
		_, err := sink.Write([]byte("ca5cade of garbage bytes, not JSON\n{\"type\":\"outcome\",\"outc"))
		return err
	case faultTorn:
		_, err := sink.Write(next[:len(next)/2])
		return err
	default: // faultStall
		<-ctx.Done()
		return ctx.Err()
	}
}

// outcomeIndex reads the global cell index of one outcome line.
func outcomeIndex(line []byte) int {
	var rec streamRecord
	if err := json.Unmarshal(line, &rec); err != nil || rec.Outcome == nil {
		panic(fmt.Sprintf("not an outcome line: %q", line))
	}
	return rec.Outcome.Index
}

// faultFleet builds 4 workers whose dispatches with the given fleet-wide
// ordinals (the first dispatch when none is given) suffer the fault. The
// returned counter reads how many faults were injected.
func faultFleet(name string, src CellSource, mode faultMode, after int, dispatches ...int) ([]Transport, *atomic.Int32) {
	if len(dispatches) == 0 {
		dispatches = []int{1}
	}
	on := map[int]bool{}
	for _, d := range dispatches {
		on[d] = true
	}
	seen, fired := &atomic.Int32{}, &atomic.Int32{}
	fleet := make([]Transport, 4)
	for i := range fleet {
		fleet[i] = &faultTransport{
			proc:  ProcTransport{Name: name, Src: src, Opts: Options{Parallelism: 2}},
			mode:  mode,
			after: after,
			on:    on,
			seen:  seen,
			fired: fired,
		}
	}
	return fleet, fired
}

// checkFabricIdentity runs the fleet and asserts byte-identical convergence
// with the monolithic run, returning the stats for recovery-path assertions.
func checkFabricIdentity(t *testing.T, src CellSource, fleet []Transport, opts FabricOptions) FabricStats {
	t.Helper()
	mono, err := Run(src, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if opts.SpoolDir == "" {
		opts.SpoolDir = t.TempDir()
	}
	rep, stats, err := RunFabric(context.Background(), src.Len(), fleet, opts)
	if err != nil {
		t.Fatalf("fabric: %v (stats %+v)", err, stats)
	}
	if rep.Fingerprint() != mono.Fingerprint() {
		t.Fatalf("fabric fingerprint %s != mono %s (stats %+v)", rep.Fingerprint(), mono.Fingerprint(), stats)
	}
	if rep.Cells != mono.Cells || rep.Consensus != mono.Consensus {
		t.Fatalf("fabric %d cells / %d consensus, mono %d / %d", rep.Cells, rep.Consensus, mono.Cells, mono.Consensus)
	}
	if stats.Resumes+stats.Seals+stats.Steals+stats.GapTasks != 0 {
		t.Fatalf("fabric kept part of a failed spool: %+v", stats)
	}
	return stats
}

// ledgerTransport counts, per cell, the outcomes a fleet delivers to the
// coordinator: every cell of a dispatch that succeeds, and only the outcome
// lines a failed dispatch wrote before it died.
type ledgerTransport struct {
	inner Transport
	total int
	mu    *sync.Mutex
	ran   map[int]int
}

// Run implements Transport.
func (l ledgerTransport) Run(ctx context.Context, task Task, sink io.Writer) error {
	var tee bytes.Buffer
	err := l.inner.Run(ctx, task, io.MultiWriter(sink, &tee))
	l.mu.Lock()
	defer l.mu.Unlock()
	if err == nil {
		for _, g := range task.expected(l.total) {
			l.ran[g]++
		}
		return nil
	}
	for _, line := range bytes.SplitAfter(tee.Bytes(), []byte("\n")) {
		var rec streamRecord
		if json.Unmarshal(line, &rec) == nil && rec.Outcome != nil {
			l.ran[rec.Outcome.Index]++
		}
	}
	return err
}

// TestFabricWorkerDeathResume kills a worker mid-shard and checks how the
// sweep resumes: the dead worker's shard reruns whole on a surviving worker,
// so the cells it delivered before dying run exactly twice and every other
// cell exactly once — a failure costs at most one shard of work.
func TestFabricWorkerDeathResume(t *testing.T) {
	for name, src := range fabricSweeps(t) {
		t.Run(name, func(t *testing.T) {
			const after = 3
			faulty, fired := faultFleet(name, src, faultDie, after)
			ledger := ledgerTransport{total: src.Len(), mu: &sync.Mutex{}, ran: map[int]int{}}
			fleet := make([]Transport, len(faulty))
			for i, tr := range faulty {
				ledger.inner = tr
				fleet[i] = ledger
			}
			checkFabricIdentity(t, src, fleet, FabricOptions{})
			if fired.Load() != 1 {
				t.Fatalf("%d faults injected, want 1", fired.Load())
			}
			twice := 0
			for g := 0; g < src.Len(); g++ {
				switch ledger.ran[g] {
				case 1:
				case 2:
					twice++
				default:
					t.Fatalf("cell %d delivered %d times, want once or, in the dead shard, twice", g, ledger.ran[g])
				}
			}
			if twice != after {
				t.Fatalf("%d cells delivered twice, want the %d the dead worker delivered", twice, after)
			}
		})
	}
}

// specTransport records the spec of every task the fleet is dispatched.
type specTransport struct {
	Transport
	mu    *sync.Mutex
	specs *[]string
}

// Run implements Transport.
func (s specTransport) Run(ctx context.Context, task Task, sink io.Writer) error {
	s.mu.Lock()
	*s.specs = append(*s.specs, task.spec())
	s.mu.Unlock()
	return s.Transport.Run(ctx, task, sink)
}

// TestFabricFailedTaskRerunsWhole pins the fabric's one recovery rule: a
// worker that dies after streaming part of its shard, or whose stream ends
// in a torn line, costs exactly one redispatch of the same i/n spec. Its
// spool is discarded, so the streams the merge reads hold every cell exactly
// once, and the fingerprint is the monolithic one.
func TestFabricFailedTaskRerunsWhole(t *testing.T) {
	src, err := StandardSweep(Seeds(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mode faultMode
	}{{"worker death", faultDie}, {"torn last line", faultTorn}} {
		t.Run(tc.name, func(t *testing.T) {
			faulty, fired := faultFleet("standard", src, tc.mode, 3)
			var mu sync.Mutex
			var specs []string
			fleet := make([]Transport, len(faulty))
			for i, tr := range faulty {
				fleet[i] = specTransport{Transport: tr, mu: &mu, specs: &specs}
			}
			dir := t.TempDir()
			stats := checkFabricIdentity(t, src, fleet, FabricOptions{Shards: 6, SpoolDir: dir})
			if fired.Load() != 1 || stats.Redispatches != 1 || stats.Tasks != 7 {
				t.Fatalf("%d faults injected, stats %+v; want 1 fault, 1 redispatch, 7 tasks", fired.Load(), stats)
			}
			// Seven dispatches of six distinct shards: one spec went out twice.
			seen := map[string]bool{}
			for _, spec := range specs {
				seen[spec] = true
			}
			if len(specs) != 7 || len(seen) != 6 {
				t.Fatalf("dispatched %v, want the 6 shards with one of them twice", specs)
			}
			inputs, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			in := map[int]int{}
			for _, path := range inputs {
				scan, err := scanStreamFile(path)
				if err != nil {
					t.Fatal(err)
				}
				for g := range scan.done {
					in[g]++
				}
			}
			if len(inputs) != 6 || len(in) != src.Len() {
				t.Fatalf("%d merge inputs hold %d cells, want 6 holding %d", len(inputs), len(in), src.Len())
			}
			for g, n := range in {
				if n != 1 {
					t.Fatalf("cell %d in %d merge inputs", g, n)
				}
			}
		})
	}
}

// TestFabricWorkerDeathRedispatch kills a worker mid-shard: its spool must be
// discarded, its shard dispatched once more, and the merged fingerprint must
// not move.
func TestFabricWorkerDeathRedispatch(t *testing.T) {
	for name, src := range fabricSweeps(t) {
		t.Run(name, func(t *testing.T) {
			fleet, _ := faultFleet(name, src, faultDie, 3)
			stats := checkFabricIdentity(t, src, fleet, FabricOptions{})
			if stats.Redispatches != 1 || stats.Tasks != 5 {
				t.Fatalf("death recovered with %+v, want 1 redispatch of 4 shards", stats)
			}
		})
	}
}

// TestFabricDoubleFaultLineage kills a worker mid-shard and then the rerun
// dispatched for it: with as many shards as workers, dispatch 5 is that
// rerun. The lineage must be redispatched twice and still converge
// byte-identically.
func TestFabricDoubleFaultLineage(t *testing.T) {
	for name, src := range fabricSweeps(t) {
		t.Run(name, func(t *testing.T) {
			fleet, fired := faultFleet(name, src, faultDie, 3, 1, 5)
			stats := checkFabricIdentity(t, src, fleet, FabricOptions{Shards: 4})
			if fired.Load() != 2 {
				t.Fatalf("%d faults injected, want 2 (stats %+v)", fired.Load(), stats)
			}
			if stats.Redispatches != 2 || stats.Tasks != 6 {
				t.Fatalf("two faults, recoveries %+v", stats)
			}
		})
	}
}

// TestFabricCorruptStream has a worker exit zero after writing garbage mid-
// stream — the lying-worker case. The coordinator must detect the torn
// stream, rerun the shard, and still converge.
func TestFabricCorruptStream(t *testing.T) {
	for name, src := range fabricSweeps(t) {
		t.Run(name, func(t *testing.T) {
			fleet, _ := faultFleet(name, src, faultCorrupt, 3)
			stats := checkFabricIdentity(t, src, fleet, FabricOptions{})
			if stats.Redispatches != 1 {
				t.Fatalf("corrupt stream recovered with %+v, want 1 redispatch", stats)
			}
		})
	}
}

// TestFabricStallRedispatch stalls a worker holding half the sweep: the
// heartbeat must kill it and its shard must rerun on a free worker,
// converging byte-identically.
func TestFabricStallRedispatch(t *testing.T) {
	for name, src := range fabricSweeps(t) {
		t.Run(name, func(t *testing.T) {
			fleet, _ := faultFleet(name, src, faultStall, 3)
			stats := checkFabricIdentity(t, src, fleet, FabricOptions{
				Shards:    2,
				Heartbeat: 150 * time.Millisecond,
			})
			if stats.Redispatches != 1 || stats.Tasks != 3 {
				t.Fatalf("stall recovered with %+v, want 1 redispatch of 2 shards", stats)
			}
		})
	}
}

// TestFabricProgress pins what FabricOptions.Progress reports: spooled plus
// in-flight cells, never outside [0, total]. A clean run only counts up and
// ends at (total, total); a killed worker's spool is dropped, so the count
// may step back but must stay in range.
func TestFabricProgress(t *testing.T) {
	src, err := StandardSweep(Seeds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	total := src.Len()
	run := func(t *testing.T, fleet []Transport) [][2]int {
		t.Helper()
		var calls [][2]int
		_, _, err := RunFabric(context.Background(), total, fleet, FabricOptions{
			SpoolDir: t.TempDir(),
			Progress: func(done, n int) { calls = append(calls, [2]int{done, n}) },
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range calls {
			if c[0] < 0 || c[0] > total || c[1] != total {
				t.Fatalf("progress call %v outside [0, %d] (calls %v)", c, total, calls)
			}
		}
		return calls
	}
	t.Run("clean", func(t *testing.T) {
		// Each worker lingers after its trailer, as a process does while it
		// exits, so the coordinator reports while finished streams are still
		// in flight.
		fleet := procFleet("standard", src, 4)
		for i, w := range fleet {
			fleet[i] = lingerTransport{w}
		}
		calls := run(t, fleet)
		for i := 1; i < len(calls); i++ {
			if calls[i][0] < calls[i-1][0] {
				t.Fatalf("progress stepped back from %d to %d (calls %v)", calls[i-1][0], calls[i][0], calls)
			}
		}
		if last := calls[len(calls)-1]; last != [2]int{total, total} {
			t.Fatalf("last progress call %v, want [%d %d]", last, total, total)
		}
	})
	t.Run("worker killed", func(t *testing.T) {
		fleet, fired := faultFleet("standard", src, faultDie, 3)
		run(t, fleet)
		if fired.Load() != 1 {
			t.Fatalf("%d faults injected, want 1", fired.Load())
		}
	})
}

// lingerTransport returns 100 ms after its worker's stream ends.
type lingerTransport struct{ Transport }

// Run implements Transport.
func (l lingerTransport) Run(ctx context.Context, task Task, sink io.Writer) error {
	err := l.Transport.Run(ctx, task, sink)
	time.Sleep(100 * time.Millisecond)
	return err
}

// TestFabricEmptyAndTinySweeps pins the edges: more workers than cells, a
// single-cell sweep, and a worker count of one.
func TestFabricEmptyAndTinySweeps(t *testing.T) {
	src, err := StandardSweep(Seeds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	tiny := &subsetCapSource{base: src, n: 3}
	mono, err := Run(tiny, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		rep, _, err := RunFabric(context.Background(), tiny.Len(), procFleet("tiny", tiny, workers), FabricOptions{SpoolDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if rep.Fingerprint() != mono.Fingerprint() {
			t.Fatalf("%d workers: fingerprint diverged", workers)
		}
	}
	if _, _, err := RunFabric(context.Background(), 0, procFleet("tiny", tiny, 2), FabricOptions{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, _, err := RunFabric(context.Background(), 3, nil, FabricOptions{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

// subsetCapSource exposes the first n cells of a sweep as a whole sweep.
type subsetCapSource struct {
	base CellSource
	n    int
}

func (s *subsetCapSource) Len() int        { return s.n }
func (s *subsetCapSource) Index(i int) int { return i }
func (s *subsetCapSource) Cell(i int) Cell { return s.base.Cell(i) }

// blockingTransport parks its worker until the dispatch context is
// cancelled, counting live workers — the stand-in for a hung fleet.
type blockingTransport struct {
	started chan struct{}
	active  *atomic.Int32
}

func (t blockingTransport) Run(ctx context.Context, task Task, sink io.Writer) error {
	t.active.Add(1)
	defer t.active.Add(-1)
	select {
	case t.started <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return ctx.Err()
}

// TestFabricCancelReapsWorkers pins the coordinator's shutdown contract:
// cancelling the RunFabric context kills every in-flight worker dispatch,
// RunFabric returns the context's error, and it does not return before the
// workers have exited.
func TestFabricCancelReapsWorkers(t *testing.T) {
	var active atomic.Int32
	started := make(chan struct{}, 4)
	fleet := make([]Transport, 2)
	for i := range fleet {
		fleet[i] = blockingTransport{started: started, active: &active}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// A cancelled lineage reaches only attempt 1 of 5, so the way out is
		// the cancellation abort, never an exhausted lineage.
		_, _, err := RunFabric(ctx, 8, fleet, FabricOptions{SpoolDir: t.TempDir()})
		done <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no worker ever started")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunFabric did not return after cancellation")
	}
	if n := active.Load(); n != 0 {
		t.Fatalf("%d workers still live after RunFabric returned", n)
	}
}
