package matrix

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Span is the shard-spec algebra the distributed fabric schedules with: the
// tail of a round-robin shard, written "i/n@t" — the cells of shard i/n at
// shard-local positions t and beyond. "i/n" (t = 0) is the whole shard, so
// every spec a single-machine sweep ever wrote is a Span.
//
// The point of the type is closure under work-stealing. When a worker stalls
// partway through a span, the positions it has completed form a prefix (the
// pool claims positions within a bounded window, so the unclaimed region is
// a tail plus a few gaps). The tail is itself a Span, and Split deals it
// round-robin into m sub-Spans — each again of the form "i'/n'@t'" — that
// can be dispatched to idle workers as ordinary shard specs. No new stream
// format, no cell lists shipped over the wire: the algebra keeps re-specs
// arithmetic at any splitting depth.
type Span struct {
	// Shard is the round-robin slice of the sweep.
	Shard Shard
	// From is the first shard-local position included (0 = whole shard).
	From int
}

// ParseSpan parses "i/n@t" or the plain shard form "i/n"; the empty string
// means the whole sweep.
func ParseSpan(s string) (Span, error) {
	spec, tail, cut := strings.Cut(s, "@")
	if cut && spec == "" {
		return Span{}, fmt.Errorf("bad span %q (want i/n@t)", s)
	}
	sh, err := ParseShard(spec)
	if err != nil {
		return Span{}, err
	}
	sp := Span{Shard: sh}
	if cut {
		t, err := strconv.Atoi(tail)
		if err != nil || t < 0 {
			return Span{}, fmt.Errorf("bad span %q (want i/n@t with t ≥ 0)", s)
		}
		// The tail's global start, i−1 + t·n, must be an int.
		if t > (math.MaxInt-(sh.Index-1))/sh.Count {
			return Span{}, fmt.Errorf("bad span %q (tail starts past the largest cell index)", s)
		}
		sp.From = t
	}
	return sp, nil
}

// String renders the canonical form: "i/n" when the span is a whole shard,
// "i/n@t" otherwise — so specs written by non-distributed runs are
// byte-identical to what they always were.
func (s Span) String() string {
	if s.From == 0 {
		return s.Shard.String()
	}
	return fmt.Sprintf("%s@%d", s.Shard, s.From)
}

// IsAll reports whether the span covers the whole sweep.
func (s Span) IsAll() bool { return s.Shard.IsAll() && s.From == 0 }

// start is the global index of the span's first cell.
func (s Span) start() int { return s.Shard.Index - 1 + s.From*s.Shard.Count }

// Owns reports whether global cell index g belongs to the span.
func (s Span) Owns(g int) bool {
	return g%s.Shard.Count == s.Shard.Index-1 && g >= s.start()
}

// Len is the number of cells the span holds in a sweep of total cells.
func (s Span) Len(total int) int {
	if first := s.start(); first < total {
		return (total-first-1)/s.Shard.Count + 1
	}
	return 0
}

// Globals lists the span's global cell indices in ascending order (the
// coordinator's expected-coverage set; spans dispatched as tasks are small
// multiples of the worker count, never O(cells) of them).
func (s Span) Globals(total int) []int {
	out := make([]int, 0, s.Len(total))
	for g := s.start(); g < total; g += s.Shard.Count {
		out = append(out, g)
	}
	return out
}

// Split deals the span round-robin into m sub-spans. Sub-span k starts at
// the span's local position From+k and strides m shard-steps, i.e. global
// start gₖ = (Index-1) + (From+k)·Count with stride Count·m — which is again
// a residue class from a point on: shard 1+gₖ mod (Count·m) of Count·m, from
// local position gₖ div (Count·m). The union of the sub-spans is exactly the
// span, pairwise disjoint, at any nesting depth.
func (s Span) Split(m int) []Span {
	if m <= 1 {
		return []Span{s}
	}
	stride := s.Shard.Count * m
	out := make([]Span, 0, m)
	for k := 0; k < m; k++ {
		g := s.start() + k*s.Shard.Count
		out = append(out, Span{
			Shard: Shard{Index: g%stride + 1, Count: stride},
			From:  g / stride,
		})
	}
	return out
}
