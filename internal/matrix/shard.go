package matrix

import (
	"fmt"
	"strconv"
	"strings"
)

// Shard identifies one deterministic slice of a sweep: shard Index of Count,
// 1-based ("2/3" is the second of three shards). Cells are dealt round-robin
// by global cell index, so shards are balanced regardless of which axes
// expand, and the same (sweep, shard spec) always yields the same cells —
// shards can run on different machines at different times and still merge
// into the monolithic report. A shard is also the fabric's unit of work:
// each dispatch runs one, and a failed one runs again whole.
type Shard struct {
	// Index is the 1-based shard number.
	Index int
	// Count is the total number of shards.
	Count int
}

// ParseShard parses "i/n" (1 ≤ i ≤ n). The empty string means the whole
// sweep (shard 1/1).
func ParseShard(s string) (Shard, error) {
	if s == "" {
		return Shard{Index: 1, Count: 1}, nil
	}
	idx, cnt, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("bad shard %q (want i/n)", s)
	}
	i, err1 := strconv.Atoi(idx)
	n, err2 := strconv.Atoi(cnt)
	if err1 != nil || err2 != nil || n < 1 || i < 1 || i > n {
		return Shard{}, fmt.Errorf("bad shard %q (want i/n with 1 ≤ i ≤ n)", s)
	}
	return Shard{Index: i, Count: n}, nil
}

// String renders the canonical "i/n" form.
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// IsAll reports whether the shard covers the whole sweep.
func (s Shard) IsAll() bool { return s.Count <= 1 }

// Owns reports whether global cell index g belongs to the shard.
func (s Shard) Owns(g int) bool { return g%s.Count == s.Index-1 }

// Len is the number of cells the shard holds in a sweep of total cells. It
// never overflows, whatever the shard's count.
func (s Shard) Len(total int) int {
	if s.Index > total {
		return 0
	}
	return (total-s.Index)/s.Count + 1
}

// Globals lists the shard's global cell indices in ascending order (the
// coordinator's expected-coverage set).
func (s Shard) Globals(total int) []int {
	out := make([]int, s.Len(total))
	for i := range out {
		out[i] = s.Index - 1 + i*s.Count
	}
	return out
}
