package scenario

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/sim"
)

// ParseMode parses a protocol mode's CLI name.
func ParseMode(name string) (core.Mode, error) { return core.Modes.Parse("mode", name) }

// ParseByzList parses an explicit Byzantine assignment, ID[:kind]
// comma-separated (kind defaults to silent), e.g. "4:silent,7:fake-pd".
func ParseByzList(s string) (map[model.ID]ByzSpec, error) {
	out := make(map[model.ID]ByzSpec)
	if s == "" {
		return out, nil
	}
	for _, item := range strings.Split(s, ",") {
		idStr, kind, hasKind := strings.Cut(item, ":")
		raw, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad byzantine spec %q", item)
		}
		var bs ByzSpec // ByzSilent when no kind is given
		if hasKind {
			if bs.Kind, err = ParseByzKind(kind); err != nil {
				return nil, err
			}
		}
		out[model.ID(raw)] = bs
	}
	return out, nil
}

// BindFlags declares the scenario flags cupsim and cupd share — graph, mode,
// f, byz, net, gst, horizon, seed — on fs and returns the function
// that, after fs is parsed, builds the Params they describe (named after the
// graph def).
func BindFlags(fs *flag.FlagSet) func() (Params, error) {
	var (
		graphName = fs.String("graph", "fig1b", "graph def: "+graph.DefUsage())
		modeName  = fs.String("mode", core.ModeKnownF.String(), "protocol: "+core.Modes.Join("|"))
		f         = fs.Int("f", -1, "fault threshold handed to processes; -1 = the graph family's natural threshold")
		byzFlag   = fs.String("byz", "", "byzantine processes, e.g. 4:silent,7:fake-pd,3:delay,5:collude (kinds: "+ByzKinds.Join("|")+")")
		netName   = fs.String("net", NetSync.String(), "network model: "+NetKinds.Join("|"))
		gst       = fs.Duration("gst", time.Duration(DefaultGST), "GST for -net partial (virtual)")
		horizon   = fs.Duration("horizon", 60*time.Second, "virtual-time horizon")
		seed      = fs.Int64("seed", 1, "run seed: engine and reactor RNGs, keyring derivation, random graph families")
	)
	return func() (Params, error) {
		p := Params{
			Name:    *graphName,
			F:       *f,
			Net:     NetParams{GST: sim.Time(*gst)},
			Horizon: sim.Time(*horizon),
			Seed:    *seed,
		}
		var err error
		if p.Graph, err = graph.ParseDef(*graphName); err != nil {
			return Params{}, err
		}
		if p.Mode, err = ParseMode(*modeName); err != nil {
			return Params{}, err
		}
		if p.Byz, err = ParseByzList(*byzFlag); err != nil {
			return Params{}, err
		}
		if p.Net.Kind, err = ParseNetKind(*netName); err != nil {
			return Params{}, err
		}
		return p, nil
	}
}

// WriteText renders a single run the way cupsim and cupd report it: the
// scenario line, the runtime line (omitted when runtime is empty — the
// simulator), verdict, traffic and the per-process table.
func (r *Result) WriteText(w io.Writer, mode core.Mode, runtime string) {
	fmt.Fprintf(w, "scenario  : %s (mode=%s, %d processes)\n", r.Name, mode, len(r.PerProcess))
	if runtime != "" {
		fmt.Fprintf(w, "runtime   : %s\n", runtime)
	}
	fmt.Fprintf(w, "verdict   : %s", r.Verdict())
	if fm := r.FailureMode(); fm != "" {
		fmt.Fprintf(w, "  (%s)", fm)
	}
	fmt.Fprintf(w, "\nelapsed   : %v virtual, %d messages, %d bytes\n", time.Duration(r.Elapsed), r.Messages, r.Bytes)
	if r.Dropped != 0 {
		fmt.Fprintf(w, "dropped   : %d sends on full outbound queues\n", r.Dropped)
	}
	if r.Rejected != 0 {
		fmt.Fprintf(w, "rejected  : %d inbound streams closed for what they carried\n", r.Rejected)
	}
	if r.Coalesced != 0 {
		fmt.Fprintf(w, "coalesced : %d sends left unqueued as replays (counted above, not simulated)\n", r.Coalesced)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "process  role       decision          committee")
	for _, id := range sortedIDs(r.PerProcess) {
		pr := r.PerProcess[id]
		role := "correct"
		if pr.Byzantine {
			role = "byzantine"
		}
		dec := "⊥"
		if pr.Decided {
			dec = fmt.Sprintf("%q @ %v", pr.Value, time.Duration(pr.DecidedAt).Round(time.Millisecond))
		}
		fmt.Fprintf(w, "p%-7d %-10s %-17s %v (g=%d)\n", uint64(id), role, dec, pr.Committee, pr.G)
	}
}
