package matrix

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/scenario"
)

// slice is Shard.Slice failing the test on a refused selection.
func slice(t *testing.T, src CellSource, sh Shard) CellSource {
	t.Helper()
	part, _, err := sh.Slice(src)
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
// selects the shard, header spec and global cells it names, and every shard
// rendered back through WorkerArgs — what the fabric hands a worker —
// parses to the same shard and destination.
func TestSweepFlagsJobRoundTrip(t *testing.T) {
	src, err := StandardSweep(Seeds(1, 1)) // 24 cells
	if err != nil {
		t.Fatal(err)
	}
	total := src.Len()
	shard := func(i, n int) Shard { return Shard{Index: i, Count: n} }
	for _, tc := range []struct {
		argv  string
		sel   Shard
		spec  string
		cells []int
	}{
		{"", shard(1, 1), "1/1", Shard{Index: 1, Count: 1}.Globals(total)},
		{"-shard 2/3 -jsonl part.jsonl", shard(2, 3), "2/3", []int{1, 4, 7, 10, 13, 16, 19, 22}},
		{"-shard 3/8 -jsonl - -parallel 4", shard(3, 8), "3/8", []int{2, 10, 18}},
		{"-shard 1/2", shard(1, 2), "1/2", Shard{Index: 1, Count: 2}.Globals(total)},
		{"-shard 30/30", shard(30, 30), "30/30", []int{}},
	} {
		sf, err := parseSweepFlags(t, strings.Fields(tc.argv))
		if err != nil {
			t.Fatalf("%q: %v", tc.argv, err)
		}
		job := sf.Job("standard sweep, seeds 1:1", src)
		sel, err := job.Selection()
		if err != nil {
			t.Fatalf("%q: %v", tc.argv, err)
		}
		if !reflect.DeepEqual(sel, tc.sel) {
			t.Fatalf("%q selects %+v, want %+v", tc.argv, sel, tc.sel)
		}
		part, spec, err := sel.Slice(src)
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
		if job.Opts.Parallelism != sf.Parallel || job.Path != sf.JSONL {
			t.Fatalf("%q: job %+v does not carry the flags %+v", tc.argv, job, sf)
		}

		// Back through the worker protocol.
		back, err := parseSweepFlags(t, sel.WorkerArgs("spool.jsonl"))
		if err != nil {
			t.Fatalf("%q WorkerArgs: %v", tc.argv, err)
		}
		again, err := back.Job(job.Name, src).Selection()
		if err != nil {
			t.Fatalf("%q WorkerArgs: %v", tc.argv, err)
		}
		if !reflect.DeepEqual(again, sel) || back.JSONL != "spool.jsonl" {
			t.Fatalf("%q: WorkerArgs %v parse back to %+v (jsonl %q)",
				tc.argv, sel.WorkerArgs("spool.jsonl"), again, back.JSONL)
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
		"-shard 0/2",
		"-shard 2/2@-1",
		"-shard 3/8@2",
		"-shard 1/2@0",
		"-shard 5/5@9",
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
	// A slice of a slice is not a whole sweep: its global indices and its
	// positions differ, so a shard of it means nothing.
	part := slice(t, src, Shard{Index: 2, Count: 3})
	if _, _, err := (Shard{Index: 1, Count: 2}).Slice(part); err == nil {
		t.Error("a shard of a shard was sliced")
	}
}

// TestOnlyAndResumeRefused: a shard is the only part of a sweep a job runs.
// The -only and -resume flags do not parse, and a job that still carries a
// cell list or a resume is refused by Run and Report with an error that
// names -shard.
func TestOnlyAndResumeRefused(t *testing.T) {
	for _, argv := range []string{"-only 3", "-resume", "-shard 1/2 -jsonl part.jsonl -resume"} {
		if _, err := parseSweepFlags(t, strings.Fields(argv)); err == nil {
			t.Errorf("%q parsed", argv)
		}
	}
	src, err := StandardSweep(Seeds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "refused.jsonl")
	for _, job := range []StreamJob{{Only: "3"}, {Resume: true}, {Only: "3", Path: path}, {Resume: true, Path: path}} {
		job.Name, job.Src = "refused", src
		if _, err := job.Run(); err == nil || !strings.Contains(err.Error(), "-shard") {
			t.Errorf("Run of %+v: %v, want a refusal naming -shard", job, err)
		}
		if _, err := job.Report(); err == nil || !strings.Contains(err.Error(), "-shard") {
			t.Errorf("Report of %+v: %v, want a refusal naming -shard", job, err)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a refused job touched its stream file: %v", err)
	}
}
