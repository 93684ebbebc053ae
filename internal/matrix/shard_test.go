package matrix

import (
	"slices"
	"testing"
)

// Globals lists the shard's global cell indices in ascending order: the
// arithmetic's enumeration, which the tests hold Owns, Len, Slice and the
// streams to.
func (s Shard) Globals(total int) []int {
	out := make([]int, s.Len(total))
	for i := range out {
		out[i] = s.Index - 1 + i*s.Count
	}
	return out
}

// TestSpanParseRoundTrip pins the shard spec grammar: "i/n" parses and
// renders back byte-identically, the empty spec is the whole sweep, and
// malformed specs are rejected — every "i/n@t" tail form among them, since a
// shard is the smallest span the fabric dispatches.
func TestSpanParseRoundTrip(t *testing.T) {
	good := map[string]Shard{
		"":    {Index: 1, Count: 1},
		"1/1": {Index: 1, Count: 1},
		"3/8": {Index: 3, Count: 8},
	}
	for spec, want := range good {
		got, err := ParseShard(spec)
		if err != nil {
			t.Fatalf("ParseShard(%q): %v", spec, err)
		}
		if got != want {
			t.Fatalf("ParseShard(%q) = %+v, want %+v", spec, got, want)
		}
	}
	if s := (Shard{Index: 3, Count: 8}).String(); s != "3/8" {
		t.Fatalf("shard renders %q, want \"3/8\"", s)
	}
	for _, bad := range []string{"0/4", "5/4", "x/4", "3/8@", "3/8@-1", "3/8@x", "@2",
		"3/8@0", "3/8@5",
		"1/3@6148914691236517204", "1/3@3074457345618258603", "1/3@3074457345618258602"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

// TestSpanLenAtIntExtremes: a shard count or index near the largest int
// still yields the cells it names, without overflowing.
func TestSpanLenAtIntExtremes(t *testing.T) {
	for spec, want := range map[string]int{
		"1/9223372036854775807":                   1,
		"2/9223372036854775807":                   1,
		"9223372036854775807/9223372036854775807": 0,
	} {
		sh, err := ParseShard(spec)
		if err != nil {
			t.Fatalf("ParseShard(%q): %v", spec, err)
		}
		if got, globals := sh.Len(10), sh.Globals(10); got != want || len(globals) != want {
			t.Errorf("shard %s holds %d of 10 cells (Globals %v), want %d", spec, got, globals, want)
		}
	}
}

// TestShardOwnsMatchesGlobals pins the shard arithmetic to brute
// enumeration: Owns, Len and Globals agree with the residue class across
// sweep sizes and shard geometries, and the shards of one count partition
// the sweep.
func TestShardOwnsMatchesGlobals(t *testing.T) {
	for _, total := range []int{1, 7, 48, 100} {
		for _, count := range []int{1, 3, 4, 150} {
			covered := map[int]int{}
			for idx := 1; idx <= count; idx++ {
				sh := Shard{Index: idx, Count: count}
				var want []int
				for g := 0; g < total; g++ {
					if g%count == idx-1 {
						want = append(want, g)
					}
					if sh.Owns(g) != (g%count == idx-1) {
						t.Fatalf("shard %s: Owns(%d) = %v", sh, g, sh.Owns(g))
					}
				}
				got := sh.Globals(total)
				if sh.Len(total) != len(want) || !slices.Equal(got, want) {
					t.Fatalf("shard %s total %d: Len %d, Globals %v, brute %v", sh, total, sh.Len(total), got, want)
				}
				for _, g := range got {
					covered[g]++
				}
			}
			if len(covered) != total {
				t.Fatalf("%d shards of %d cells cover %d", count, total, len(covered))
			}
			for g, n := range covered {
				if n != 1 {
					t.Fatalf("%d shards of %d cells: cell %d in %d shards", count, total, g, n)
				}
			}
		}
	}
}

// TestSpanSourceMatchesGlobals pins the lazy shard view to the arithmetic:
// Shard.Slice enumerates exactly Globals, in order, with global indices
// intact.
func TestSpanSourceMatchesGlobals(t *testing.T) {
	src, err := StandardSweep(Seeds(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	total := src.Len()
	for _, sh := range []Shard{
		{Index: 1, Count: 1},
		{Index: 2, Count: 5},
		{Index: 3, Count: 7},
		{Index: 5, Count: total + 10},
	} {
		view := slice(t, src, sh)
		globals := sh.Globals(total)
		if view.Len() != len(globals) {
			t.Fatalf("shard %s: Source len %d, Globals %d", sh, view.Len(), len(globals))
		}
		for i, g := range globals {
			if view.Index(i) != g || view.Cell(i).Index != g {
				t.Fatalf("shard %s position %d: Index %d, Cell.Index %d, want %d",
					sh, i, view.Index(i), view.Cell(i).Index, g)
			}
		}
	}
}
