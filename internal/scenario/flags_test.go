package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/sim"
)

// parseFlags runs one command line through a fresh BindFlags binder.
func parseFlags(t *testing.T, args ...string) (Params, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	build := BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("flag syntax %v: %v", args, err)
	}
	return build()
}

// TestBindFlagsRoundTrip pins flag string → Params → CompileKey against the
// hand-written Params each command line means, and the way back: the -byz
// value a Params renders (ByzLabel) parses to the same compiled identity.
func TestBindFlagsRoundTrip(t *testing.T) {
	def := func(s string) graph.Def {
		d, err := graph.ParseDef(s)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, tc := range []struct {
		args []string
		want Params
	}{
		{nil, Params{
			Name: "fig1b", Graph: def("fig1b"), Mode: core.ModeKnownF, F: -1,
			Net: NetParams{Kind: NetSync, GST: 2 * sim.Second}, Horizon: 60 * sim.Second, Seed: 1,
		}},
		{[]string{"-graph", "fig4a", "-mode", "bft-cupft", "-byz", "4", "-seed", "7"}, Params{
			Name: "fig4a", Graph: def("fig4a"), Mode: core.ModeUnknownF, F: -1,
			Byz: map[model.ID]ByzSpec{4: {Kind: ByzSilent}},
			Net: NetParams{Kind: NetSync, GST: 2 * sim.Second}, Horizon: 60 * sim.Second, Seed: 7,
		}},
		{[]string{"-graph", "kosr:sink=4,nonsink=3,k=2", "-f", "1", "-byz", "7:fake-pd,5:collude", "-net", "partial", "-gst", "500ms", "-horizon", "10s"}, Params{
			Name: "kosr:sink=4,nonsink=3,k=2", Graph: def("kosr:sink=4,nonsink=3,k=2"), Mode: core.ModeKnownF, F: 1,
			Byz: map[model.ID]ByzSpec{5: {Kind: ByzCollude}, 7: {Kind: ByzFakePD}},
			Net: NetParams{Kind: NetPartial, GST: 500 * sim.Millisecond}, Horizon: 10 * sim.Second, Seed: 1,
		}},
		{[]string{"-graph", "complete:7", "-mode", "permissioned", "-f", "2", "-net", "async", "-byz", "3:silent,6:silent"}, Params{
			Name: "complete:7", Graph: def("complete:7"), Mode: core.ModePermissioned, F: 2,
			Byz: map[model.ID]ByzSpec{3: {Kind: ByzSilent}, 6: {Kind: ByzSilent}},
			Net: NetParams{Kind: NetAsync, GST: 2 * sim.Second}, Horizon: 60 * sim.Second, Seed: 1,
		}},
		{[]string{"-mode", "naive"}, Params{
			Name: "fig1b", Graph: def("fig1b"), Mode: core.ModeNaive, F: -1,
			Net: NetParams{Kind: NetSync, GST: 2 * sim.Second}, Horizon: 60 * sim.Second, Seed: 1,
		}},
	} {
		got, err := parseFlags(t, tc.args...)
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		if got.CompileKey() != tc.want.CompileKey() {
			t.Errorf("%v:\n  compile key %s\n  want        %s", tc.args, got.CompileKey(), tc.want.CompileKey())
		}
		if got.Seed != tc.want.Seed || got.ID() != tc.want.ID() {
			t.Errorf("%v: cell %s seed %d, want %s seed %d", tc.args, got.ID(), got.Seed, tc.want.ID(), tc.want.Seed)
		}
		if _, err := got.Compile(); err != nil {
			t.Errorf("%v: does not compile: %v", tc.args, err)
		}
		if len(got.Byz) == 0 {
			continue
		}
		again, err := ParseByzList(got.ByzLabel())
		if err != nil {
			t.Errorf("%v: ByzLabel %q does not parse back: %v", tc.args, got.ByzLabel(), err)
			continue
		}
		back := got
		back.Byz = again
		if back.CompileKey() != got.CompileKey() {
			t.Errorf("%v: -byz %q round-trips to a different compile key", tc.args, got.ByzLabel())
		}
	}

	// Every declared mode, network kind and Byzantine kind: its name given to
	// its flag parses back to it (cupsim's flag-help test checks that the
	// help lists it); a value outside its table keeps its numeric rendering.
	for m := core.ModeKnownF; m <= core.ModePermissioned; m++ {
		if p, err := parseFlags(t, "-mode", m.String()); err != nil || p.Mode != m {
			t.Errorf("-mode %s parsed to %v, %v", m, p.Mode, err)
		}
	}
	for k := NetSync; k <= NetAsync; k++ {
		if p, err := parseFlags(t, "-net", k.String()); err != nil || p.Net.Kind != k {
			t.Errorf("-net %s parsed to %v, %v", k, p.Net.Kind, err)
		}
	}
	for _, k := range allByzKinds {
		if p, err := parseFlags(t, "-byz", "4:"+k.String()); err != nil || p.Byz[4].Kind != k {
			t.Errorf("-byz 4:%s parsed to %v, %v", k, p.Byz, err)
		}
	}
	for v, want := range map[fmt.Stringer]string{
		core.Mode(9): "mode(9)", NetKind(9): "net(9)", ByzKind(9): "byz(9)", ByzPlace(9): "place(9)",
		core.Mode(-1): "mode(-1)",
	} {
		if got := v.String(); got != want {
			t.Errorf("out-of-range %T renders %q, want %q", v, got, want)
		}
	}
}

// TestBindFlagsErrors walks every error path of the binder.
func TestBindFlagsErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-graph", "fig9z"}, "fig9z"},
		{[]string{"-mode", "raft"}, `unknown mode "raft"`},
		{[]string{"-net", "lossy"}, `unknown network kind "lossy"`},
		{[]string{"-byz", "four:silent"}, `bad byzantine spec "four:silent"`},
		{[]string{"-byz", "4:silent,"}, `bad byzantine spec ""`},
		{[]string{"-byz", ":silent"}, `bad byzantine spec ":silent"`},
		{[]string{"-byz", "4:"}, `unknown byzantine kind ""`},
		{[]string{"-byz", "4:loud"}, `unknown byzantine kind "loud"`},
	} {
		_, err := parseFlags(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestResultWriteText pins the report cupsim and cupd print: the runtime
// line only for a live run, processes in ID order, ⊥ for the undecided.
func TestResultWriteText(t *testing.T) {
	res := &Result{
		Name: "demo", Termination: true, Agreement: true, Validity: true, Integrity: true,
		Elapsed: 36 * sim.Millisecond, Messages: 12, Bytes: 345,
		PerProcess: map[model.ID]ProcessResult{
			10: {Byzantine: true},
			2:  {Decided: true, Value: model.Value("v2"), DecidedAt: 19 * sim.Millisecond, Committee: model.NewIDSet(2), G: 1},
		},
	}
	const table = `verdict   : ✓
elapsed   : 36ms virtual, 12 messages, 345 bytes

process  role       decision          committee
p2       correct    "v2" @ 19ms       {p2} (g=1)
p10      byzantine  ⊥                 {} (g=0)
`
	var simOut, liveOut bytes.Buffer
	res.WriteText(&simOut, core.ModeKnownF, "")
	if want := "scenario  : demo (mode=bft-cup, 2 processes)\n" + table; simOut.String() != want {
		t.Errorf("simulator report:\n%s\nwant:\n%s", simOut.String(), want)
	}
	res.WriteText(&liveOut, core.ModeKnownF, "live/tcp, scale=10, 5ms wall")
	if want := "scenario  : demo (mode=bft-cup, 2 processes)\nruntime   : live/tcp, scale=10, 5ms wall\n" + table; liveOut.String() != want {
		t.Errorf("live report:\n%s\nwant:\n%s", liveOut.String(), want)
	}
	var coalescedOut bytes.Buffer
	res.Coalesced = 5
	res.WriteText(&coalescedOut, core.ModeKnownF, "")
	if line := "elapsed   : 36ms virtual, 12 messages, 345 bytes\ncoalesced : 5 sends left unqueued as replays (counted above, not simulated)\n"; !strings.Contains(coalescedOut.String(), line) {
		t.Errorf("simulator report with coalesced sends:\n%s\nwant the line after elapsed:\n%s", coalescedOut.String(), line)
	}
}
