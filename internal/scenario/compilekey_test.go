package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/model"
)

var updateKeys = flag.Bool("update-keys", false, "rewrite testdata/compile_keys.golden")

// TestCompileKeysPinned pins Params.CompileKey, byte for byte, for every row of
// AllExperiments and for each command line of the flags table
// (TestBindFlagsRoundTrip). The key is the compile cache's identity, so a
// change to how explicit Byzantine assignments are described must leave it
// alone. Regenerate with -update-keys only for an intended key change.
func TestCompileKeysPinned(t *testing.T) {
	var b strings.Builder
	for _, e := range AllExperiments() {
		b.WriteString(e.ID + "\t" + e.Params.CompileKey() + "\n")
	}
	for _, args := range [][]string{
		nil,
		{"-graph", "fig4a", "-mode", "bft-cupft", "-byz", "4", "-seed", "7"},
		{"-graph", "kosr:sink=4,nonsink=3,k=2", "-f", "1", "-byz", "7:fake-pd,5:collude", "-net", "partial", "-gst", "500ms", "-horizon", "10s"},
		{"-graph", "complete:7", "-mode", "permissioned", "-f", "2", "-net", "async", "-byz", "3:silent,6:silent"},
		{"-mode", "naive"},
	} {
		p, err := parseFlags(t, args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		b.WriteString(strings.Join(args, " ") + "\t" + p.CompileKey() + "\n")
	}
	golden := filepath.Join("testdata", "compile_keys.golden")
	if *updateKeys {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-keys to create)", err)
	}
	if got := b.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("compile key line %d moved:\n  want %s\n  got  %s", i+1, w[i], g[i])
			}
		}
		t.Fatalf("%d compile key lines, golden has %d", len(g), len(w))
	}
}

// TestCompileKeyTellsEmptyFromDefault: a nil set picks the kind's default
// claim, an empty one claims no out-neighbours. They compile to different
// runs, so they must not share a compile cache entry.
func TestCompileKeyTellsEmptyFromDefault(t *testing.T) {
	base := Params{Graph: figDef("fig1b"), Mode: core.ModeKnownF, F: -1}
	dflt, empty := base, base
	dflt.Byz = map[model.ID]ByzSpec{4: {Kind: ByzFakePD}}
	empty.Byz = map[model.ID]ByzSpec{4: {Kind: ByzFakePD, ClaimedPD: model.NewIDSet()}}
	if dflt.CompileKey() == empty.CompileKey() {
		t.Fatalf("nil and empty claims share the compile key %s", dflt.CompileKey())
	}
}
