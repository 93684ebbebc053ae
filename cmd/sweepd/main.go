// Command sweepd is the distributed sweep coordinator: it deals a scenario
// sweep to a fleet of workers as shards, spools their JSONL streams, survives
// worker death, torn streams and stalls (a failed shard reruns whole on the
// next free worker), and folds everything through the streaming merge into
// the monolithic report — the fingerprint is byte-identical to a
// single-process run of the same sweep.
//
// The default fleet is local subprocesses of sweepd itself in -worker mode;
// -ssh swaps in remote workers over ssh. The worker protocol is the shared
// sweep flag set (matrix.BindSweepFlags: -shard/-jsonl), so experiments
// -matrix and cupsim sweeps speak it too.
//
// Usage:
//
//	sweepd -sweep standard -seeds 1:10 -workers 4               4 local subprocess workers
//	sweepd -sweep adversary -seeds 1:3 -workers 4 -shards 16    finer-grained load balancing
//	sweepd -sweep standard -seeds 1:100 -ssh hostA,hostB        ssh fleet (remote sweepd on PATH)
//	sweepd -sweep standard -seeds 1:10 -spool spool/ -v         keep spools, print recovery stats
//	sweepd -worker -sweep standard -seeds 1:10 -shard 2/4 -jsonl -   one worker task by hand
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/bftcup/bftcup/internal/matrix"
)

// config is sweepd's command line: the shared sweep flags plus the sweep
// selection, the fleet and the coordinator's knobs. The coordinator's
// -parallel is what each worker gets.
type config struct {
	sweep                        *matrix.SweepFlags
	worker                       bool
	sweepSel                     string
	workers                      int
	sshHosts, remoteCmd, sshArgs string
	shards                       int
	spoolDir                     string
	heartbeat                    time.Duration
	cellRows, verbose            bool
}

// bind declares sweepd's flags on fs.
func bind(fs *flag.FlagSet) *config {
	c := &config{sweep: matrix.BindSweepFlags(fs, "1:10", 1)}
	fs.BoolVar(&c.worker, "worker", false, "run one worker task (the coordinator execs these) instead of coordinating")
	fs.StringVar(&c.sweepSel, "sweep", matrix.Sweeps[0].Name, "sweep to run: "+matrix.Sweeps.Join("|"))
	fs.IntVar(&c.workers, "workers", 4, "local subprocess workers (ignored with -ssh)")
	fs.StringVar(&c.sshHosts, "ssh", "", "comma-separated ssh destinations; replaces the local fleet")
	fs.StringVar(&c.remoteCmd, "remote-cmd", "sweepd", "worker command on ssh hosts (binary plus flags)")
	fs.StringVar(&c.sshArgs, "ssh-args", "", "extra ssh client flags, space-separated")
	fs.IntVar(&c.shards, "shards", 0, "shards dealt to the fleet, each the unit a failure reruns (0 = one per worker)")
	fs.StringVar(&c.spoolDir, "spool", "", "spool directory for worker streams (empty = temp dir, removed on success)")
	fs.DurationVar(&c.heartbeat, "heartbeat", 2*time.Minute, "declare a worker stalled after this long without stream progress (0 = off)")
	fs.BoolVar(&c.cellRows, "cells", false, "keep per-cell outcomes in the merged report and list them in text output")
	fs.BoolVar(&c.verbose, "v", false, "print recovery stats (failed shards redispatched)")
	return c
}

func main() {
	c := bind(flag.CommandLine)
	flag.Parse()

	src, name, err := matrix.NamedSweep(c.sweepSel, c.sweep.Seeds)
	if err != nil {
		fail(err)
	}
	if c.worker {
		runWorker(c.sweep.Job(name, src))
		return
	}
	runCoordinator(name, src, c)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sweepd:", err)
	os.Exit(2)
}

// runWorker executes one fabric task: the coordinator side dispatches exactly
// these flags, but the mode also works by hand for debugging a single shard.
func runWorker(job matrix.StreamJob) {
	tr, err := job.Run()
	if err != nil {
		fail(err)
	}
	if tr.Errors > 0 {
		os.Exit(1)
	}
}

// fleet builds the worker transports: one ExecTransport per local slot
// self-execing sweepd -worker, or one SSHTransport per -ssh host.
func (c *config) fleet() ([]matrix.Transport, error) {
	base := []string{
		"-worker",
		"-sweep", c.sweepSel,
		"-seeds", c.sweep.Seeds,
		"-parallel", fmt.Sprint(c.sweep.Parallel),
	}
	if c.sshHosts != "" {
		argv := append(strings.Fields(c.remoteCmd), base...)
		var fleet []matrix.Transport
		for _, host := range strings.Split(c.sshHosts, ",") {
			host = strings.TrimSpace(host)
			if host == "" {
				continue
			}
			fleet = append(fleet, matrix.SSHTransport{Host: host, Argv: argv, SSHArgs: strings.Fields(c.sshArgs)})
		}
		if len(fleet) == 0 {
			return nil, fmt.Errorf("-ssh lists no hosts")
		}
		return fleet, nil
	}
	if c.workers <= 0 {
		return nil, fmt.Errorf("need at least one worker")
	}
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary for worker exec: %w", err)
	}
	fleet := make([]matrix.Transport, c.workers)
	for i := range fleet {
		fleet[i] = matrix.ExecTransport{Argv: append([]string{self}, base...)}
	}
	return fleet, nil
}

func runCoordinator(name string, src matrix.CellSource, c *config) {
	fleet, err := c.fleet()
	if err != nil {
		fail(err)
	}
	total := src.Len()
	fmt.Fprintf(os.Stderr, "sweepd: %s — %d cells across %d workers\n", name, total, len(fleet))
	opts := matrix.FabricOptions{
		Shards:       c.shards,
		SpoolDir:     c.spoolDir,
		Heartbeat:    c.heartbeat,
		KeepOutcomes: c.cellRows,
	}
	if !c.sweep.JSON {
		last := -1
		opts.Progress = func(done, total int) {
			if done == last {
				return
			}
			last = done
			fmt.Fprintf(os.Stderr, "\r%d/%d cells", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	// A killed coordinator reaps its fleet: SIGINT/SIGTERM cancel the sweep
	// context, RunFabric cancels every in-flight dispatch and waits for the
	// workers to exit before returning.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	rep, stats, err := matrix.RunFabric(ctx, total, fleet, opts)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "sweepd: interrupted; fleet reaped")
			os.Exit(130)
		}
		fail(err)
	}
	rep.Name = name
	wall := time.Since(start)
	fmt.Fprintf(os.Stderr, "fabric: %d cells in %.2fs (%.2f cells/s) over %d workers, %d dispatches\n",
		rep.Cells, wall.Seconds(), float64(rep.Cells)/wall.Seconds(), len(fleet), stats.Tasks)
	if c.verbose || stats.Redispatches > 0 {
		fmt.Fprintf(os.Stderr, "fabric: recovery — %d redispatched\n", stats.Redispatches)
	}
	fmt.Fprintf(os.Stderr, "fingerprint %s\n", rep.Fingerprint())
	if c.sweep.JSON {
		raw, err := rep.JSON()
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(raw)
		fmt.Println()
	} else {
		rep.WriteText(os.Stdout, c.cellRows)
	}
	if rep.Errors > 0 {
		os.Exit(1)
	}
}
