package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/bftcup/bftcup/internal/matrix"
)

// parse binds sweepd's flags on a fresh flag set and parses argv.
func parse(t *testing.T, argv []string) *config {
	t.Helper()
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := bind(fs)
	if err := fs.Parse(argv); err != nil {
		t.Fatalf("%q: %v", argv, err)
	}
	return c
}

// TestWorkerArgvRoundTrip follows a coordinator's command line through the
// worker protocol: the argv its fleet execs, plus each shard's WorkerArgs,
// parses in the worker into the same named sweep, the same per-worker
// parallelism and exactly the shard dispatched.
func TestWorkerArgvRoundTrip(t *testing.T) {
	for _, argv := range []string{
		"-sweep standard -seeds 1:2 -workers 2",
		"-sweep adversary -seeds 3 -parallel 2 -workers 1 -json",
	} {
		coord := parse(t, strings.Fields(argv))
		wantSrc, wantName, err := matrix.NamedSweep(coord.sweepSel, coord.sweep.Seeds)
		if err != nil {
			t.Fatal(err)
		}
		fleet, err := coord.fleet()
		if err != nil {
			t.Fatal(err)
		}
		if len(fleet) != coord.workers {
			t.Fatalf("%q: %d transports, want %d", argv, len(fleet), coord.workers)
		}
		base := fleet[0].(matrix.ExecTransport).Argv[1:]
		for _, shard := range []matrix.Shard{
			{Index: 1, Count: 1},
			{Index: 3, Count: 4},
			{Index: 2, Count: 8},
		} {
			w := parse(t, append(append([]string{}, base...), shard.WorkerArgs("-")...))
			if !w.worker {
				t.Fatalf("%q: the fleet's argv does not start a worker", argv)
			}
			src, name, err := matrix.NamedSweep(w.sweepSel, w.sweep.Seeds)
			if err != nil {
				t.Fatal(err)
			}
			if name != wantName || src.Len() != wantSrc.Len() {
				t.Fatalf("%q: worker runs %q (%d cells), coordinator %q (%d cells)", argv, name, src.Len(), wantName, wantSrc.Len())
			}
			job := w.sweep.Job(name, src)
			got, err := job.Selection()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, shard) || job.Path != "-" || job.Opts.Parallelism != coord.sweep.Parallel {
				t.Fatalf("%q: shard %+v reaches the worker as %+v (jsonl %q, parallel %d)",
					argv, shard, got, job.Path, job.Opts.Parallelism)
			}
		}
	}
}

// TestSweepFlagListsEverySweep: -sweep's help lists every named sweep, each
// name resolves to a sweep labelled with it, and an unknown one is refused
// with that same list.
func TestSweepFlagListsEverySweep(t *testing.T) {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	bind(fs)
	_, list, _ := strings.Cut(fs.Lookup("sweep").Usage, ": ")
	sweeps := map[string]func([]int64) (matrix.CellSource, error){
		"standard": matrix.StandardSweep, "adversary": matrix.AdversarySweep,
		"probabilistic": matrix.ProbabilisticSweep, "chaos": matrix.ChaosSweep,
	}
	var names []string
	for _, s := range matrix.Sweeps {
		names = append(names, s.Name)
		c := parse(t, []string{"-sweep", s.Name, "-seeds", "1"})
		got, label, err := matrix.NamedSweep(c.sweepSel, c.sweep.Seeds)
		if err != nil || !strings.HasPrefix(label, s.Name+" sweep") {
			t.Fatalf("-sweep %s: %q, %v", s.Name, label, err)
		}
		want, err := sweeps[s.Name]([]int64{1})
		if err != nil || got.Len() != want.Len() || got.Cell(0).Params.ID() != want.Cell(0).Params.ID() {
			t.Errorf("-sweep %s does not run %s's cells", s.Name, s.Name)
		}
	}
	if len(names) != len(sweeps) {
		t.Errorf("%d named sweeps, want %d", len(names), len(sweeps))
	}
	if want := strings.Join(names, "|"); list != want {
		t.Errorf("-sweep help lists %q, want %q", list, want)
	}
	if _, _, err := matrix.NamedSweep("bogus", "1"); err == nil || !strings.Contains(err.Error(), "(want "+list+")") {
		t.Errorf("unknown sweep: %v", err)
	}
}
