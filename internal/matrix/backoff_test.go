package matrix

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestRetryDelay pins the backoff envelope: attempt n draws uniformly from
// [½d, 1½d) where d = retryBase·2^(n−1), and deep lineages cap at 5s.
func TestRetryDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for attempt := 1; attempt <= 12; attempt++ {
		want := retryBase << (attempt - 1)
		if want > 5*time.Second {
			want = 5 * time.Second
		}
		for i := 0; i < 100; i++ {
			d := retryDelay(attempt, rng)
			if d < want/2 || d >= want/2+want {
				t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, want/2, want/2+want)
			}
		}
	}
}

// flapTransport fails instantly on every dispatch without writing a byte —
// the flapping-worker shape the retry backoff exists for.
type flapTransport struct{}

// Run implements Transport.
func (flapTransport) Run(context.Context, Task, io.Writer) error {
	return errors.New("injected flap")
}

// TestFabricBackoffBoundsFlappingWorker runs a fleet of one permanently
// flapping worker: the lineage must burn its 5 dispatches and abort, but
// only after waiting out the backoff between them — the minimum jittered
// delays for attempts 1 to 4, ½·(50+100+200+400) ms, put a hard floor on
// the wall clock, which is what stops a flapping worker exhausting the
// budget in milliseconds.
func TestFabricBackoffBoundsFlappingWorker(t *testing.T) {
	start := time.Now()
	_, stats, err := RunFabric(context.Background(), 3, []Transport{flapTransport{}}, FabricOptions{
		SpoolDir: t.TempDir(),
	})
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "failed 5 times") {
		t.Fatalf("flapping worker did not exhaust its lineage: %v", err)
	}
	if stats.Tasks != 5 || stats.Redispatches != 4 {
		t.Fatalf("unexpected recovery stats: %+v", stats)
	}
	if min := (50 + 100 + 200 + 400) * time.Millisecond / 2; elapsed < min {
		t.Fatalf("lineage burned in %v, backoff floor is %v", elapsed, min)
	}
}
