package matrix

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDamagedStreamContract feeds one table of broken streams to Merge and
// pins its verdict: it refuses every damaged stream and names it. Damage an
// interrupted write can leave (a torn final line, garbage or an unknown
// record after the header, a missing trailer) and damage to the record order
// (a second header, an outcome before the header or after the trailer, a
// cell index twice or out of order, a cell the header's shard does not own,
// a cell another stream carries too) are refused alike: a stream that stops
// short or out of order is not completed in place, its shard runs again.
//
// The stream under test is shard 1/2 of the 8-cell test sweep (header, four
// outcomes, trailer); Merge reads it beside the intact shard 2/2, and the
// intact pair merges to the monolithic fingerprint.
func TestDamagedStreamContract(t *testing.T) {
	cells := testCells(t)
	stream := func(spec string, sh Shard) []string {
		t.Helper()
		var buf bytes.Buffer
		part := slice(t, CellList(cells), sh)
		if _, err := RunStream(part, Options{Parallelism: 1}, &buf, StreamHeader{
			Name: "stream-test", TotalCells: len(cells), Shard: spec,
		}); err != nil {
			t.Fatal(err)
		}
		return strings.SplitAfter(strings.TrimSuffix(buf.String(), "\n"), "\n")
	}
	one, two := Shard{Index: 1, Count: 2}, Shard{Index: 2, Count: 2}
	l := stream(one.String(), one) // header, 4 outcomes, trailer
	otherLines := stream(two.String(), two)
	other := strings.Join(otherLines, "") + "\n"
	if len(l) != 6 {
		t.Fatalf("shard 1/2 stream has %d lines, want 6", len(l))
	}
	l[5] += "\n"
	specless := stream("", one)
	specless[5] += "\n"
	whole := stream("1/1", Shard{Index: 1, Count: 1})
	whole[len(whole)-1] += "\n"
	h, o, tr := l[0], l[1:5], l[5]

	mono, err := Run(CellList(cells), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	mono.Name = "stream-test"
	intact, err := Merge(MergeOptions{}, strings.NewReader(strings.Join(l, "")), strings.NewReader(other))
	if err != nil {
		t.Fatalf("the intact shards do not merge: %v", err)
	}
	if intact.Fingerprint() != mono.Fingerprint() {
		t.Fatal("the intact shards merge to another fingerprint")
	}

	swapped := h + o[1] + o[0] + o[2] + o[3] + tr
	for _, row := range []struct{ name, stream, why string }{
		{"torn last line", h + o[0] + o[1] + o[2] + o[3][:len(o[3])/2], ""},
		{"garbage mid-stream", h + o[0] + o[1] + "ca5cade, not JSON\n" + o[2] + o[3] + tr, ""},
		{"duplicate header", h + o[0] + h + o[1] + o[2] + o[3] + tr, ""},
		{"outcome before header", o[0] + h + o[1] + o[2] + o[3] + tr, ""},
		{"duplicate cell index", h + o[0] + o[1] + o[1] + o[2] + o[3] + tr, ""},
		{"outcome after trailer", h + o[0] + o[1] + o[2] + o[3] + tr + o[3], ""},
		{"unknown record type", h + o[0] + o[1] + `{"type":"checkpoint"}` + "\n" + o[2] + o[3] + tr, ""},
		{"missing trailer", h + o[0] + o[1] + o[2] + o[3], ""},
		// Every stream's header names its shard; one that names none is
		// refused.
		{"header with no spec", strings.Join(specless, ""), ""},
		// A stream is in cell-index order and carries only its shard's
		// cells, each once across the set.
		{"two outcomes swapped", swapped, "cell index 0 missing from shard 1/2"},
		{"cell of another shard", h + o[0] + otherLines[1] + o[1] + o[2] + o[3] + tr, "cell index 1 is not a cell of shard 1/2"},
		{"cell in two streams", strings.Join(whole, ""), "cell index 1 is in stream 1 too"},
	} {
		t.Run(row.name, func(t *testing.T) {
			_, err := Merge(MergeOptions{}, strings.NewReader(row.stream), strings.NewReader(other))
			switch {
			case err == nil:
				t.Error("Merge accepted the damaged stream")
			case !strings.Contains(err.Error(), "stream 0"):
				t.Errorf("Merge refused without naming the stream: %v", err)
			case !strings.Contains(err.Error(), row.why):
				t.Errorf("Merge refused for another reason: %v, want %q", err, row.why)
			}
		})
	}

	// The fabric's coverage check counts a spool's outcomes, so it leans on
	// the reader's order: a spool with its shard's count of outcomes, two of
	// them swapped, is refused when read.
	path := filepath.Join(t.TempDir(), "swapped.jsonl")
	if err := os.WriteFile(path, []byte(swapped), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := scanStreamFile(path); err == nil || !strings.Contains(err.Error(), "cell index 0 after cell index 2") {
		t.Errorf("the coverage check read the swapped spool with error %v", err)
	}
}
