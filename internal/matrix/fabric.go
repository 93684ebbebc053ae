package matrix

import (
	"context"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// The distributed sweep fabric runs one sweep across a fleet of workers.
// The wire protocol is the JSONL stream format unchanged: the coordinator
// dispatches Tasks (one shard of the sweep each), each worker runs its slice
// with the same RunStream every single-machine shard run uses, and the
// coordinator spools
// the streams to disk and folds them through the cursor-based Merge — so the
// distributed fingerprint is byte-identical to the monolithic run's by the
// same argument that shard merges are.

// Task is one shard of the sweep as the fabric dispatches it, with its
// lineage's retry state.
type Task struct {
	// Shard is the slice of the sweep to run.
	Shard Shard
	// attempt counts how many dispatches this task's lineage has consumed;
	// the coordinator aborts rather than retry forever.
	attempt int
	// notBefore delays the dispatch of a recovery task: the jittered
	// exponential backoff that keeps a flapping worker from burning the
	// lineage's attempt budget in milliseconds. Zero means immediately
	// eligible.
	notBefore time.Time
}

// WorkerArgs renders the CLI flags that make a worker run exactly this task:
// the fabric's half of the worker protocol. Every worker-capable CLI
// (sweepd -worker, experiments -matrix, cupsim sweeps) declares them through
// BindSweepFlags, and StreamJob.Task parses them back into this task.
func (t Task) WorkerArgs(jsonl string) []string {
	var args []string
	if !t.Shard.IsAll() {
		args = append(args, "-shard", t.Shard.String())
	}
	return append(args, "-jsonl", jsonl)
}

// Transport launches one worker per Run call. Implementations must stream
// the worker's JSONL output to sink as it is produced (the coordinator's
// heartbeat watches sink activity), kill the worker when ctx is cancelled,
// and return only once the worker has exited and sink will see no further
// writes.
type Transport interface {
	Run(ctx context.Context, task Task, sink io.Writer) error
}

// ExecTransport runs workers as local subprocesses: the default, fully
// testable fabric backend. Argv is the worker command prefix (binary plus
// its sweep-selection flags); the task flags are appended per dispatch.
type ExecTransport struct {
	// Argv is the worker command: Argv[0] is the binary, the rest its base
	// flags (sweep selection, parallelism). Task flags are appended.
	Argv []string
}

// Run implements Transport.
func (t ExecTransport) Run(ctx context.Context, task Task, sink io.Writer) error {
	return t.exec(ctx, task.WorkerArgs("-"), sink)
}

func (t ExecTransport) exec(ctx context.Context, taskArgs []string, sink io.Writer) error {
	if len(t.Argv) == 0 {
		return fmt.Errorf("fabric: ExecTransport needs a worker command")
	}
	args := append(append([]string{}, t.Argv[1:]...), taskArgs...)
	cmd := exec.CommandContext(ctx, t.Argv[0], args...)
	cmd.Stdout = sink
	stderr := &tailBuffer{limit: 2048}
	cmd.Stderr = stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		if msg := stderr.String(); msg != "" {
			return fmt.Errorf("fabric: worker %s: %w: %s", t.Argv[0], err, msg)
		}
		return fmt.Errorf("fabric: worker %s: %w", t.Argv[0], err)
	}
	return nil
}

// tailBuffer retains the last limit bytes written — enough of a worker's
// stderr to attribute a failure without buffering a chatty worker's logs.
type tailBuffer struct {
	buf   []byte
	limit int
}

// Write implements io.Writer.
func (t *tailBuffer) Write(p []byte) (int, error) {
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.limit {
		t.buf = t.buf[len(t.buf)-t.limit:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string { return strings.TrimSpace(string(t.buf)) }

// SSHTransport runs workers over ssh in batch mode: the same worker argv,
// quoted through a remote shell.
type SSHTransport struct {
	// Host is the ssh destination (user@host or a ssh_config alias).
	Host string
	// Argv is the remote worker command, as for ExecTransport.
	Argv []string
	// SSHArgs are extra ssh client flags (port, identity, …).
	SSHArgs []string
}

// Run implements Transport.
func (t SSHTransport) Run(ctx context.Context, task Task, sink io.Writer) error {
	if t.Host == "" || len(t.Argv) == 0 {
		return fmt.Errorf("fabric: SSHTransport needs a host and a worker command")
	}
	remote := make([]string, 0, len(t.Argv)+4)
	for _, a := range append(append([]string{}, t.Argv...), task.WorkerArgs("-")...) {
		remote = append(remote, shellQuote(a))
	}
	args := append([]string{"-o", "BatchMode=yes"}, t.SSHArgs...)
	args = append(args, t.Host, strings.Join(remote, " "))
	exec := ExecTransport{Argv: append([]string{"ssh"}, args...)}
	return exec.exec(ctx, nil, sink)
}

// shellQuote single-quotes one argument for the remote shell.
func shellQuote(s string) string {
	return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'"
}

// ProcTransport runs workers in-process: the zero-overhead backend tests
// and benchmarks use, and the reference Transport implementation. Run does
// not observe ctx mid-sweep (cells are short; a kill takes effect at the
// next dispatch), which is fine for the clean paths it serves — fault
// injection wraps it.
type ProcTransport struct {
	// Name labels the sweep in stream headers (all workers must agree).
	Name string
	// Src is the whole sweep.
	Src CellSource
	// Opts are the per-worker run options.
	Opts Options
}

// Run implements Transport.
func (t ProcTransport) Run(ctx context.Context, task Task, sink io.Writer) error {
	part, spec, err := task.Slice(t.Src)
	if err != nil {
		return err
	}
	hdr := StreamHeader{Name: t.Name, TotalCells: t.Src.Len(), Shard: spec}
	_, err = RunStream(part, t.Opts, sink, hdr)
	return err
}

// Slice resolves the task against the whole sweep src: the lazy sub-source
// to run and the spec its stream header carries. It is the one place a
// selection meets a sweep — fabric workers, and the CLIs' stream and report
// modes through StreamJob.Task. Shards deal by global index residue, so src
// must be a whole sweep (Index(i) == i).
func (t Task) Slice(src CellSource) (CellSource, string, error) {
	total := src.Len()
	if total > 0 && (src.Index(0) != 0 || src.Index(total-1) != total-1) {
		return nil, "", fmt.Errorf("matrix: slicing needs a whole-sweep source (Index(i) == i)")
	}
	if t.Shard.IsAll() {
		return src, t.Shard.String(), nil
	}
	first, stride := t.Shard.Index-1, t.Shard.Count
	return indexMap{base: src, n: t.Shard.Len(total), at: func(i int) int { return first + i*stride }}, t.Shard.String(), nil
}
