package matrix

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
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
			if stats.Tasks != 5 || stats.Redispatches+stats.Seals+stats.Steals != 0 {
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
)

// faultTransport wraps an in-process worker and injects a fault on chosen
// dispatches: the worker's true stream is buffered, its header and `after`
// outcomes are emitted, and then the transport dies, corrupts the stream, or
// hangs until the coordinator kills it. The outcomes emitted leave out the
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
	if len(outcomes) > f.after {
		outcomes = outcomes[:f.after]
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
	opts.SpoolDir = t.TempDir()
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
	if stats.Resumes != 0 {
		t.Fatalf("fabric resumed a spool in place: %+v", stats)
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

// TestFabricWorkerDeathResume kills a worker mid-shard and checks that the
// sweep resumes where the worker died: the cells whose outcomes it
// delivered are never run again, and every other cell runs exactly once on
// a surviving worker.
func TestFabricWorkerDeathResume(t *testing.T) {
	for name, src := range fabricSweeps(t) {
		t.Run(name, func(t *testing.T) {
			faulty, fired := faultFleet(name, src, faultDie, 3)
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
			for g := 0; g < src.Len(); g++ {
				if ledger.ran[g] != 1 {
					t.Fatalf("cell %d delivered %d times, want once", g, ledger.ran[g])
				}
			}
		})
	}
}

// TestFabricWorkerDeathSealSplit kills a worker mid-shard: its intact
// prefix must be sealed into the merge set, the hole below it and the
// unclaimed tail re-dispatched, and the merged fingerprint must not move.
func TestFabricWorkerDeathSealSplit(t *testing.T) {
	for name, src := range fabricSweeps(t) {
		t.Run(name, func(t *testing.T) {
			fleet, _ := faultFleet(name, src, faultDie, 3)
			stats := checkFabricIdentity(t, src, fleet, FabricOptions{})
			if stats.Seals < 1 || stats.GapTasks < 1 {
				t.Fatalf("death recovered without sealing the prefix and back-filling its hole: %+v", stats)
			}
		})
	}
}

// TestFabricDoubleFaultLineage kills a worker mid-shard and then the first
// recovery task dispatched for it: with as many shards as workers, dispatch
// 5 is that recovery task. The lineage must recover twice and still
// converge byte-identically.
func TestFabricDoubleFaultLineage(t *testing.T) {
	for name, src := range fabricSweeps(t) {
		t.Run(name, func(t *testing.T) {
			fleet, fired := faultFleet(name, src, faultDie, 3, 1, 5)
			stats := checkFabricIdentity(t, src, fleet, FabricOptions{Shards: 4})
			t.Logf("stats %+v", stats)
			if fired.Load() != 2 {
				t.Fatalf("%d faults injected, want 2 (stats %+v)", fired.Load(), stats)
			}
			if stats.Seals+stats.Redispatches != 2 || stats.Seals < 1 {
				t.Fatalf("two faults, recoveries %+v", stats)
			}
		})
	}
}

// TestFabricCorruptStream has a worker exit zero after writing garbage mid-
// stream — the lying-worker case. The coordinator must detect the torn
// stream, recover only the missing cells, and still converge.
func TestFabricCorruptStream(t *testing.T) {
	for name, src := range fabricSweeps(t) {
		t.Run(name, func(t *testing.T) {
			fleet, _ := faultFleet(name, src, faultCorrupt, 3)
			stats := checkFabricIdentity(t, src, fleet, FabricOptions{})
			if stats.Seals < 1 {
				t.Fatalf("corrupt stream's intact prefix was not sealed: %+v", stats)
			}
		})
	}
}

// TestFabricStallSteal stalls a worker holding half the sweep: the
// heartbeat must kill it and re-spec the unclaimed tail as sub-shards dealt
// to the idle workers (the work-stealing path), converging byte-identically.
func TestFabricStallSteal(t *testing.T) {
	for name, src := range fabricSweeps(t) {
		t.Run(name, func(t *testing.T) {
			fleet, _ := faultFleet(name, src, faultStall, 3)
			stats := checkFabricIdentity(t, src, fleet, FabricOptions{
				Shards:    2,
				Heartbeat: 150 * time.Millisecond,
			})
			if stats.Steals < 1 || stats.SubShards < 2 {
				t.Fatalf("stall did not trigger a tail steal: %+v", stats)
			}
			if stats.Seals < 1 {
				t.Fatalf("stalled worker's prefix was discarded, not sealed: %+v", stats)
			}
		})
	}
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

// TestSealStreamFile pins the seal primitive: a torn spool (header, some
// outcomes, torn final line) becomes a valid partial stream whose header
// ShardCells matches the surviving outcomes, and merging it with a stream
// of the missing cells reproduces the monolithic fingerprint.
func TestSealStreamFile(t *testing.T) {
	src, err := StandardSweep(Seeds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	mono, err := Run(src, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spool := filepath.Join(dir, "torn.jsonl")
	span := Span{Shard: Shard{Index: 1, Count: 2}}
	hdr := StreamHeader{Name: "seal", TotalCells: src.Len(), Shard: span.String()}
	if _, err := RunStreamFile(spool, slice(t, src, Task{Span: span}), Options{Parallelism: 1}, hdr); err != nil {
		t.Fatal(err)
	}
	truncateStream(t, spool, 4) // drop trailer + 3 outcomes
	raw, err := os.ReadFile(spool)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final line too: seals must drop partial writes.
	if err := os.WriteFile(spool, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	kept, err := sealStreamFile(spool)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := scanStreamFile(spool)
	if err != nil {
		t.Fatal(err)
	}
	if scan.trailer == nil || scan.header.ShardCells != kept || scan.trailer.CellsRun != kept || len(scan.done) != kept {
		t.Fatalf("sealed stream inconsistent: kept %d, header %d, trailer %v, done %d",
			kept, scan.header.ShardCells, scan.trailer, len(scan.done))
	}
	// Complete the sweep with the cells the sealed stream no longer claims.
	var missing []int
	for g := 0; g < src.Len(); g++ {
		if !scan.done[g] {
			missing = append(missing, g)
		}
	}
	rest := filepath.Join(dir, "rest.jsonl")
	part := slice(t, src, Task{Cells: missing})
	restHdr := StreamHeader{Name: "seal", TotalCells: src.Len(), Shard: "cells:" + FormatCellList(missing)}
	if _, err := RunStreamFile(rest, part, Options{Parallelism: 1}, restHdr); err != nil {
		t.Fatal(err)
	}
	merged, err := MergeFilesWith(MergeOptions{}, spool, rest)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Fingerprint() != mono.Fingerprint() {
		t.Fatalf("sealed+gap merge fingerprint %s != mono %s", merged.Fingerprint(), mono.Fingerprint())
	}
}

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
		// MaxAttempts is high so the only way out is the cancellation abort,
		// not an attempts-exhausted failure racing it.
		_, _, err := RunFabric(ctx, 8, fleet, FabricOptions{
			SpoolDir: t.TempDir(), MaxAttempts: 100,
		})
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
