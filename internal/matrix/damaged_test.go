package matrix

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDamagedStreamContract feeds one table of broken streams to the two
// consumers of the stream format — ResumeStreamFile and Merge — and pins
// what each does with it. Damage that an interrupted write can leave (a torn
// final line, garbage or an unknown record after the header) is a truncation
// point: resume keeps the intact prefix and goes on from there. Damage to the
// record order (a second header, an outcome before the header, a cell index
// twice) is refused, and the file is left as it was. A trailer closes the
// stream for resume, so what follows it is never read there. Merge refuses
// every damaged stream and names it.
//
// The stream under test is shard 1/2 of the 8-cell test sweep (header, four
// outcomes, trailer); Merge reads it beside the intact shard 2/2.
func TestDamagedStreamContract(t *testing.T) {
	cells := testCells(t)
	stream := func(spec string, sh Shard) []string {
		t.Helper()
		var buf bytes.Buffer
		part := slice(t, CellList(cells), Task{Shard: sh})
		if _, err := RunStream(part, Options{Parallelism: 1}, &buf, StreamHeader{
			Name: "stream-test", TotalCells: len(cells), Shard: spec,
		}); err != nil {
			t.Fatal(err)
		}
		return strings.SplitAfter(strings.TrimSuffix(buf.String(), "\n"), "\n")
	}
	one, two := Shard{Index: 1, Count: 2}, Shard{Index: 2, Count: 2}
	l := stream(one.String(), one) // header, 4 outcomes, trailer
	other := strings.Join(stream(two.String(), two), "") + "\n"
	if len(l) != 6 {
		t.Fatalf("shard 1/2 stream has %d lines, want 6", len(l))
	}
	l[5] += "\n"
	specless := stream("", one)
	specless[5] += "\n"
	h, o, tr := l[0], l[1:5], l[5]

	mono, err := Run(CellList(cells), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	mono.Name = "stream-test"

	const refused = -1
	for _, row := range []struct {
		name   string
		stream string
		// specless: the stream's header names no slice.
		specless bool
		// resumed is how many cells resume finds complete and kept the
		// intact prefix it cuts the stream to. refused: it refuses the
		// stream.
		resumed int
		kept    string
		// closed: the stream already carries a trailer before its damage, so
		// resume returns without writing.
		closed bool
		// mergeRefused: Merge refuses the damaged stream beside shard 2/2.
		mergeRefused bool
	}{
		{name: "torn last line", stream: h + o[0] + o[1] + o[2] + o[3][:len(o[3])/2],
			resumed: 3, kept: h + o[0] + o[1] + o[2], mergeRefused: true},
		{name: "garbage mid-stream", stream: h + o[0] + o[1] + "ca5cade, not JSON\n" + o[2] + o[3] + tr,
			resumed: 2, kept: h + o[0] + o[1], mergeRefused: true},
		{name: "duplicate header", stream: h + o[0] + h + o[1] + o[2] + o[3] + tr,
			resumed: refused, mergeRefused: true},
		{name: "outcome before header", stream: o[0] + h + o[1] + o[2] + o[3] + tr,
			resumed: refused, mergeRefused: true},
		{name: "duplicate cell index", stream: h + o[0] + o[1] + o[1] + o[2] + o[3] + tr,
			resumed: refused, mergeRefused: true},
		{name: "outcome after trailer", stream: h + o[0] + o[1] + o[2] + o[3] + tr + o[3],
			resumed: 4, closed: true, mergeRefused: true},
		{name: "unknown record type", stream: h + o[0] + o[1] + `{"type":"checkpoint"}` + "\n" + o[2] + o[3] + tr,
			resumed: 2, kept: h + o[0] + o[1], mergeRefused: true},
		{name: "missing trailer", stream: h + o[0] + o[1] + o[2] + o[3],
			resumed: 4, kept: h + o[0] + o[1] + o[2] + o[3], mergeRefused: true},
		// A header that names no slice is not damage to resume (the
		// resumed header must only match). It is the one row whose verdict
		// changed: the merge once scheduled such a stream by buffer pressure
		// and merged it; it now routes every stream by the slice its header
		// names and refuses one that names none.
		{name: "header with no spec", stream: strings.Join(specless, ""), specless: true,
			resumed: 4, closed: true, mergeRefused: true},
	} {
		t.Run(row.name, func(t *testing.T) {
			spec := one.String()
			if row.specless {
				spec = ""
			}
			hdr := StreamHeader{Name: "stream-test", TotalCells: len(cells), Shard: spec}
			part := slice(t, CellList(cells), Task{Shard: one})
			dir := t.TempDir()
			write := func(name string) string {
				path := filepath.Join(dir, name)
				if err := os.WriteFile(path, []byte(row.stream), 0o644); err != nil {
					t.Fatal(err)
				}
				return path
			}
			unchanged := func(path, who string) {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if string(raw) != row.stream {
					t.Errorf("%s rewrote a stream it refused or found closed", who)
				}
			}

			_, err := Merge(MergeOptions{}, strings.NewReader(row.stream), strings.NewReader(other))
			switch {
			case row.mergeRefused && err == nil:
				t.Error("Merge accepted the damaged stream")
			case row.mergeRefused && !strings.Contains(err.Error(), "stream 0"):
				t.Errorf("Merge refused without naming the stream: %v", err)
			case !row.mergeRefused && err != nil:
				t.Errorf("Merge refused: %v", err)
			}

			path := write("resume.jsonl")
			tr, skipped, err := ResumeStreamFile(path, part, Options{Parallelism: 1}, hdr)
			switch {
			case row.resumed == refused:
				if err == nil {
					t.Fatalf("resume accepted the stream (skipped %d)", skipped)
				}
				unchanged(path, "resume")
			case err != nil:
				t.Fatalf("resume refused: %v", err)
			case skipped != row.resumed:
				t.Fatalf("resume found %d cells complete, want %d", skipped, row.resumed)
			case row.closed:
				unchanged(path, "resume")
			default:
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.HasPrefix(string(raw), row.kept) || tr.CellsRun != part.Len() {
					t.Fatalf("resume did not cut at the intact prefix (%d bytes) or left %d of %d cells",
						len(row.kept), tr.CellsRun, part.Len())
				}
				merged, err := MergeFilesWith(MergeOptions{}, path, writeStream(t, dir, other))
				if err != nil {
					t.Fatalf("resumed stream does not merge: %v", err)
				}
				if merged.Fingerprint() != mono.Fingerprint() {
					t.Fatal("resumed stream merges to another fingerprint")
				}
			}

		})
	}
}

// writeStream stores the intact shard 2/2 beside the damaged one.
func writeStream(t *testing.T, dir, stream string) string {
	t.Helper()
	path := filepath.Join(dir, "other.jsonl")
	if err := os.WriteFile(path, []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
