package matrix

import (
	"flag"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/scenario"
)

// slice is Task.Slice failing the test on a refused selection.
func slice(t *testing.T, src CellSource, task Task) CellSource {
	t.Helper()
	part, _, err := task.Slice(src)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// parseSweepFlags binds the shared sweep flags on a fresh flag set (the
// defaults sweepd uses) and parses argv.
func parseSweepFlags(t *testing.T, argv []string) (*SweepFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(new(strings.Builder))
	sf := BindSweepFlags(fs, "1:10", 1)
	return sf, fs.Parse(argv)
}

// TestSweepFlagsJobRoundTrip is the flag → job table: each command line
// selects the task, header spec and global cells it names, and every task
// rendered back through WorkerArgs — what the fabric hands a worker —
// parses to the same task and destination, without -resume.
func TestSweepFlagsJobRoundTrip(t *testing.T) {
	src, err := StandardSweep(Seeds(1, 1)) // 24 cells
	if err != nil {
		t.Fatal(err)
	}
	total := src.Len()
	shard := func(i, n int) Task { return Task{Shard: Shard{Index: i, Count: n}} }
	for _, tc := range []struct {
		argv  string
		task  Task
		spec  string
		cells []int
	}{
		{"", shard(1, 1), "1/1", Shard{Index: 1, Count: 1}.Globals(total)},
		{"-shard 2/3 -jsonl part.jsonl", shard(2, 3), "2/3", []int{1, 4, 7, 10, 13, 16, 19, 22}},
		{"-shard 3/8 -jsonl - -parallel 4", shard(3, 8), "3/8", []int{2, 10, 18}},
		{"-shard 1/2", shard(1, 2), "1/2", Shard{Index: 1, Count: 2}.Globals(total)},
		{"-shard 30/30", shard(30, 30), "30/30", []int{}},
		{"-only 17,3,9 -jsonl gaps.jsonl -resume", Task{Cells: []int{3, 9, 17}}, "cells:3,9,17", []int{3, 9, 17}},
	} {
		sf, err := parseSweepFlags(t, strings.Fields(tc.argv))
		if err != nil {
			t.Fatalf("%q: %v", tc.argv, err)
		}
		job := sf.Job("standard sweep, seeds 1:1", src)
		task, err := job.Task()
		if err != nil {
			t.Fatalf("%q: %v", tc.argv, err)
		}
		if !reflect.DeepEqual(task, tc.task) {
			t.Fatalf("%q selects %+v, want %+v", tc.argv, task, tc.task)
		}
		part, spec, err := task.Slice(src)
		if err != nil {
			t.Fatalf("%q: %v", tc.argv, err)
		}
		if spec != tc.spec {
			t.Fatalf("%q: header spec %q, want %q", tc.argv, spec, tc.spec)
		}
		got := []int{}
		for i := 0; i < part.Len(); i++ {
			if part.Cell(i).Index != part.Index(i) {
				t.Fatalf("%q position %d: Cell.Index %d, Index %d", tc.argv, i, part.Cell(i).Index, part.Index(i))
			}
			got = append(got, part.Index(i))
		}
		if !reflect.DeepEqual(got, tc.cells) {
			t.Fatalf("%q runs cells %v, want %v", tc.argv, got, tc.cells)
		}
		if job.Opts.Parallelism != sf.Parallel || job.Path != sf.JSONL || job.Resume != sf.Resume {
			t.Fatalf("%q: job %+v does not carry the flags %+v", tc.argv, job, sf)
		}

		// Back through the worker protocol.
		back, err := parseSweepFlags(t, task.WorkerArgs("spool.jsonl"))
		if err != nil {
			t.Fatalf("%q WorkerArgs: %v", tc.argv, err)
		}
		again, err := back.Job(job.Name, src).Task()
		if err != nil {
			t.Fatalf("%q WorkerArgs: %v", tc.argv, err)
		}
		if !reflect.DeepEqual(again, task) || back.JSONL != "spool.jsonl" || back.Resume {
			t.Fatalf("%q: WorkerArgs %v parse back to %+v (jsonl %q, resume %t)",
				tc.argv, task.WorkerArgs("spool.jsonl"), again, back.JSONL, back.Resume)
		}
	}
}

// TestSeedRangeRefused: a seed range longer than maxSeeds, or one whose
// length overflows int64, is refused before anything is allocated. Each
// subtest is one spelling; the cap's edge still parses.
func TestSeedRangeRefused(t *testing.T) {
	for _, tc := range []struct{ name, seeds string }{
		{"huge", "0:9223372036854775807"},
		{"wrapping", "-9223372036854775808:9223372036854775807"},
		{"overcap", "1:16777217"},
		{"count", "16777217"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if seeds, err := ParseSeedRange(tc.seeds); err == nil {
				t.Fatalf("-seeds %s parsed to %d seeds", tc.seeds, len(seeds))
			}
		})
	}
	t.Run("edge", func(t *testing.T) {
		for _, s := range []string{"9223372036854775805:9223372036854775807", "-3:-1"} {
			seeds, err := ParseSeedRange(s)
			if err != nil || len(seeds) != 3 || seeds[2]-seeds[0] != 2 {
				t.Fatalf("-seeds %s: %v, %v", s, seeds, err)
			}
		}
		if n, ok := seedCount(1, maxSeeds); n != maxSeeds || !ok {
			t.Fatalf("1:%d counts %d seeds, within the cap %t", maxSeeds, n, ok)
		}
	})
}

// TestSeedSweepHoldsNoSeedList: a seed sweep computes each seed from its
// index, so parsing and building the source for the largest range -seeds
// accepts, 1:16777216, allocates a few bytes, not a 128 MiB seed slice. A
// sweep past the cap or past the largest int64 is refused.
func TestSeedSweepHoldsNoSeedList(t *testing.T) {
	base := scenario.Params{Graph: graph.Def{Kind: graph.DefFigure, Figure: "fig1b"}, Mode: core.ModeKnownF, F: -1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	from, count, err := ParseSeedBounds("1:16777216")
	if err != nil {
		t.Fatal(err)
	}
	src, err := SeedSweep(base, from, count)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	// The bound leaves room for allocations of other goroutines; the seed
	// slice this replaces is 128 times larger.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("building the 1:16777216 seed sweep allocated %d bytes", grew)
	}
	if src.Len() != maxSeeds || src.Cell(0).Params.Seed != 1 || src.Cell(maxSeeds-1).Params.Seed != maxSeeds {
		t.Fatalf("source of %d cells, seeds %d…%d", src.Len(), src.Cell(0).Params.Seed, src.Cell(src.Len()-1).Params.Seed)
	}
	for _, c := range []struct {
		from  int64
		count int
	}{{1, maxSeeds + 1}, {math.MaxInt64, 2}, {1, -1}} {
		if _, err := SeedSweep(base, c.from, c.count); err == nil {
			t.Errorf("SeedSweep(%d, %d) accepted", c.from, c.count)
		}
	}
}

// TestSweepFlagsRefused pins the selections a job refuses, before or when it
// meets the sweep.
func TestSweepFlagsRefused(t *testing.T) {
	src, err := StandardSweep(Seeds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, argv := range []string{
		"-shard 1/2 -only 3",
		"-shard 0/2",
		"-shard 2/2@-1",
		"-shard 3/8@2",
		"-shard 1/2@0",
		"-shard 5/5@9",
		"-only 3,3",
		"-only 24",
	} {
		sf, err := parseSweepFlags(t, strings.Fields(argv))
		if err != nil {
			t.Fatalf("%q: %v", argv, err)
		}
		job := sf.Job("refused", src)
		if _, err := job.Report(); err == nil {
			t.Errorf("%q: Report accepted the selection", argv)
		}
	}
	sf, err := parseSweepFlags(t, []string{"-resume"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sf.Job("resume", src).Report(); err == nil {
		t.Error("a buffered report accepted -resume")
	}
	// A slice of a slice is not a whole sweep: its global indices and its
	// positions differ, so neither spans nor cell lists mean anything there.
	part := slice(t, src, Task{Shard: Shard{Index: 2, Count: 3}})
	for _, task := range []Task{{Shard: Shard{Index: 1, Count: 2}}, {Cells: []int{1}}} {
		if _, _, err := task.Slice(part); err == nil {
			t.Errorf("task %+v sliced a shard", task)
		}
	}
}
