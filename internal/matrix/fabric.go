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
// dispatches shards of the sweep, each worker runs its slice with the same
// RunStream every single-machine shard run uses, and the coordinator spools
// the streams to disk and folds them through the cursor-based Merge — so the
// distributed fingerprint is byte-identical to the monolithic run's by the
// same argument that shard merges are.

// WorkerArgs renders the CLI flags that make a worker run exactly this shard:
// the fabric's half of the worker protocol. Every worker-capable CLI
// (sweepd -worker, experiments -matrix, cupsim sweeps) declares them through
// BindSweepFlags, and StreamJob.Selection parses them back into this shard.
func (s Shard) WorkerArgs(jsonl string) []string {
	var args []string
	if !s.IsAll() {
		args = append(args, "-shard", s.String())
	}
	return append(args, "-jsonl", jsonl)
}

// Transport launches one worker per Run call. Implementations must stream
// the worker's JSONL output to sink as it is produced (the coordinator's
// heartbeat watches sink activity), kill the worker when ctx is cancelled,
// and return only once the worker has exited and sink will see no further
// writes.
type Transport interface {
	Run(ctx context.Context, shard Shard, sink io.Writer) error
}

// ExecTransport runs workers as local subprocesses: the default, fully
// testable fabric backend. Argv is the worker command prefix (binary plus
// its sweep-selection flags); the shard flags are appended per dispatch.
type ExecTransport struct {
	// Argv is the worker command: Argv[0] is the binary, the rest its base
	// flags (sweep selection, parallelism). Shard flags are appended.
	Argv []string
}

// Run implements Transport.
func (t ExecTransport) Run(ctx context.Context, shard Shard, sink io.Writer) error {
	return t.exec(ctx, shard.WorkerArgs("-"), sink)
}

func (t ExecTransport) exec(ctx context.Context, shardArgs []string, sink io.Writer) error {
	if len(t.Argv) == 0 {
		return fmt.Errorf("fabric: ExecTransport needs a worker command")
	}
	args := append(append([]string{}, t.Argv[1:]...), shardArgs...)
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
func (t SSHTransport) Run(ctx context.Context, shard Shard, sink io.Writer) error {
	if t.Host == "" || len(t.Argv) == 0 {
		return fmt.Errorf("fabric: SSHTransport needs a host and a worker command")
	}
	remote := make([]string, 0, len(t.Argv)+4)
	for _, a := range append(append([]string{}, t.Argv...), shard.WorkerArgs("-")...) {
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
