package matrix

import (
	"testing"
)

// TestSpanParseRoundTrip pins the span spec grammar: plain shards parse as
// whole-shard spans and render back byte-identically (so distributed specs
// are a strict superset of the historical "i/n" form), tails round-trip, and
// malformed specs are rejected.
func TestSpanParseRoundTrip(t *testing.T) {
	good := map[string]Span{
		"":      {Shard: Shard{Index: 1, Count: 1}},
		"1/1":   {Shard: Shard{Index: 1, Count: 1}},
		"3/8":   {Shard: Shard{Index: 3, Count: 8}},
		"3/8@0": {Shard: Shard{Index: 3, Count: 8}},
		"3/8@5": {Shard: Shard{Index: 3, Count: 8}, From: 5},
	}
	for spec, want := range good {
		got, err := ParseSpan(spec)
		if err != nil {
			t.Fatalf("ParseSpan(%q): %v", spec, err)
		}
		if got != want {
			t.Fatalf("ParseSpan(%q) = %+v, want %+v", spec, got, want)
		}
	}
	if s := (Span{Shard: Shard{Index: 3, Count: 8}}).String(); s != "3/8" {
		t.Fatalf("whole-shard span renders %q, want \"3/8\"", s)
	}
	if s := (Span{Shard: Shard{Index: 3, Count: 8}, From: 5}).String(); s != "3/8@5" {
		t.Fatalf("tail span renders %q, want \"3/8@5\"", s)
	}
	for _, bad := range []string{"0/4", "5/4", "x/4", "3/8@", "3/8@-1", "3/8@x", "@2",
		// Tails whose global start, i−1 + t·n, overflows int.
		"1/3@6148914691236517204", "1/3@3074457345618258603"} {
		if _, err := ParseSpan(bad); err == nil {
			t.Errorf("ParseSpan(%q) accepted", bad)
		}
	}
}

// TestSpanLenAtIntExtremes: a shard count or a tail near the largest int
// still yields the cells it names, without overflowing.
func TestSpanLenAtIntExtremes(t *testing.T) {
	for spec, want := range map[string]int{
		"1/9223372036854775807":   1,
		"2/9223372036854775807":   1,
		"1/3@3074457345618258602": 0,
	} {
		span, err := ParseSpan(spec)
		if err != nil {
			t.Fatalf("ParseSpan(%q): %v", spec, err)
		}
		if got := span.Len(10); got != want {
			t.Errorf("span %s holds %d of 10 cells, want %d", spec, got, want)
		}
	}
}

// TestSpanSplitPartition is the algebra's load-bearing property: Split deals
// a span into disjoint sub-spans whose union is exactly the span, at any
// nesting depth — what makes work-stealing re-specs sound. Checked by brute
// enumeration against Owns, Len and Globals across sweep sizes, shard
// geometries, tails and split factors, including a second-level split.
func TestSpanSplitPartition(t *testing.T) {
	for _, total := range []int{1, 7, 48, 100} {
		for _, count := range []int{1, 3, 4} {
			for idx := 1; idx <= count; idx++ {
				for _, from := range []int{0, 1, 5} {
					span := Span{Shard: Shard{Index: idx, Count: count}, From: from}
					want := map[int]bool{}
					for g := 0; g < total; g++ {
						if g%count == idx-1 && g >= idx-1+from*count {
							want[g] = true
						}
					}
					if got := span.Globals(total); len(got) != len(want) || span.Len(total) != len(want) {
						t.Fatalf("span %s total %d: Globals %d, Len %d, brute %d", span, total, len(got), span.Len(total), len(want))
					}
					for g := 0; g < total; g++ {
						if span.Owns(g) != want[g] {
							t.Fatalf("span %s total %d: Owns(%d) = %v, brute %v", span, total, g, span.Owns(g), want[g])
						}
					}
					for _, m := range []int{1, 2, 3, 5} {
						covered := map[int]int{}
						for _, sub := range span.Split(m) {
							for _, g := range sub.Globals(total) {
								covered[g]++
							}
							// Second-level split must still partition the sub-span.
							inner := map[int]int{}
							for _, sub2 := range sub.Split(2) {
								for _, g := range sub2.Globals(total) {
									inner[g]++
								}
							}
							if len(inner) != sub.Len(total) {
								t.Fatalf("span %s split %d then 2: %d cells, want %d", span, m, len(inner), sub.Len(total))
							}
						}
						if len(covered) != len(want) {
							t.Fatalf("span %s total %d split %d: covers %d cells, want %d", span, total, m, len(covered), len(want))
						}
						for g, n := range covered {
							if !want[g] || n != 1 {
								t.Fatalf("span %s total %d split %d: cell %d covered %d times (owned: %v)", span, total, m, g, n, want[g])
							}
						}
					}
				}
			}
		}
	}
}

// TestSpanSourceMatchesGlobals pins the lazy span view to the arithmetic:
// Task.Slice enumerates exactly Globals, in order, with global indices
// intact.
func TestSpanSourceMatchesGlobals(t *testing.T) {
	src, err := StandardSweep(Seeds(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	total := src.Len()
	for _, span := range []Span{
		{Shard: Shard{Index: 1, Count: 1}},
		{Shard: Shard{Index: 2, Count: 5}},
		{Shard: Shard{Index: 2, Count: 5}, From: 4},
		{Shard: Shard{Index: 3, Count: 7}, From: 100},
	} {
		view := slice(t, src, Task{Span: span})
		globals := span.Globals(total)
		if view.Len() != len(globals) {
			t.Fatalf("span %s: Source len %d, Globals %d", span, view.Len(), len(globals))
		}
		for i, g := range globals {
			if view.Index(i) != g || view.Cell(i).Index != g {
				t.Fatalf("span %s position %d: Index %d, Cell.Index %d, want %d",
					span, i, view.Index(i), view.Cell(i).Index, g)
			}
		}
	}
}

// TestParseCellList pins the -only flag grammar.
func TestParseCellList(t *testing.T) {
	got, err := ParseCellList("41, 3,17")
	if err != nil {
		t.Fatal(err)
	}
	if FormatCellList(got) != "3,17,41" {
		t.Fatalf("cell list canonicalized to %q, want \"3,17,41\"", FormatCellList(got))
	}
	for _, bad := range []string{"", "1,,2", "1,-2", "x", "3,3"} {
		if _, err := ParseCellList(bad); err == nil {
			t.Errorf("ParseCellList(%q) accepted", bad)
		}
	}
}
