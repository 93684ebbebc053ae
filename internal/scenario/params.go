package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/sim"
)

// NetKind selects one of the paper's three communication assumptions.
type NetKind int

// Network kinds.
const (
	NetSync NetKind = iota
	NetPartial
	NetAsync
)

// NetKinds spells every network kind, in the order of the paper's Table I.
var NetKinds = model.Names[NetKind]{
	{"sync", NetSync}, {"partial", NetPartial}, {"async", NetAsync},
}

// String implements fmt.Stringer.
func (k NetKind) String() string { return model.NameOf(NetKinds, k, "net") }

// ParseNetKind parses the String form.
func ParseNetKind(s string) (NetKind, error) { return NetKinds.Parse("network kind", s) }

// The network defaults a zero (or negative) NetParams knob stands for.
const (
	DefaultDelta       = 5 * sim.Millisecond
	DefaultGST         = 2 * sim.Second
	DefaultAsyncDelta  = 2 * sim.Second
	DefaultAsyncFactor = 3
)

// NetParams is a pure-data description of a network model; Model builds the
// corresponding sim.NetworkModel. Zero timing knobs pick the Default*
// constants above.
type NetParams struct {
	// Kind selects the communication assumption.
	Kind NetKind
	// Delta is the post-GST (or always, for sync) delivery bound.
	Delta sim.Time
	// GST is the global stabilization time for NetPartial.
	GST sim.Time
	// FastGroups, when non-empty, keeps only intra-group links fast before
	// GST (the Theorem 7 schedules). SlowTouch slows every link touching one
	// of its members (the Fig. 4 schedule). When both are empty, every link
	// is slow before GST.
	FastGroups []model.IDSet
	// SlowTouch slows every link touching one of its members before GST.
	SlowTouch model.IDSet
	// AsyncDelta and AsyncFactor tune the adversarial scheduler.
	AsyncDelta sim.Time
	// AsyncFactor is the delay growth factor (floored at 3).
	AsyncFactor int64
}

// withDefaults returns np with every unset timing knob resolved to its
// default — the one place Label and Model read the defaults from.
func (np NetParams) withDefaults() NetParams {
	if np.Delta <= 0 {
		np.Delta = DefaultDelta
	}
	if np.GST <= 0 {
		np.GST = DefaultGST
	}
	if np.AsyncDelta <= 0 {
		np.AsyncDelta = DefaultAsyncDelta
	}
	if np.AsyncFactor <= 0 {
		np.AsyncFactor = DefaultAsyncFactor
	}
	return np
}

// Label renders the network model with its distinguishing parameters
// (effective defaults applied), so sweeps over GST, delta or slow-link
// schedules stay attributable in cell IDs and per-axis statistics.
func (np NetParams) Label() string {
	np = np.withDefaults()
	deltaPart := ""
	if np.Delta != DefaultDelta {
		deltaPart = ",delta=" + np.Delta.String()
	}
	switch np.Kind {
	case NetPartial:
		parts := []string{"gst=" + np.GST.String()}
		if deltaPart != "" {
			parts = append(parts, deltaPart[1:])
		}
		if len(np.FastGroups) > 0 {
			var gs []string
			for _, g := range np.FastGroups {
				gs = append(gs, g.String())
			}
			parts = append(parts, "fast="+strings.Join(gs, "|"))
		}
		if np.SlowTouch.Len() > 0 {
			parts = append(parts, "slow-touch="+np.SlowTouch.String())
		}
		return "partial(" + strings.Join(parts, ",") + ")"
	case NetAsync:
		if np.AsyncDelta == DefaultAsyncDelta && np.AsyncFactor == DefaultAsyncFactor {
			return "async"
		}
		return fmt.Sprintf("async(delta=%s,factor=%d)", np.AsyncDelta, np.AsyncFactor)
	default:
		if deltaPart != "" {
			return "sync(" + deltaPart[1:] + ")"
		}
		return "sync"
	}
}

// Model materializes the network model.
func (np NetParams) Model() sim.NetworkModel {
	np = np.withDefaults()
	switch np.Kind {
	case NetPartial:
		slow := func(a, b model.ID) bool { return true }
		switch {
		case len(np.FastGroups) > 0:
			slow = sim.SlowBetweenGroups(np.FastGroups...)
		case np.SlowTouch.Len() > 0:
			slow = sim.SlowTouching(np.SlowTouch)
		}
		return sim.PartialSync{GST: np.GST, Delta: np.Delta, Slow: slow}
	case NetAsync:
		return sim.AsyncAdversarial{Delta: np.AsyncDelta, Factor: np.AsyncFactor}
	default:
		return sim.Synchronous{Delta: np.Delta}
	}
}

// ByzPlace selects a deterministic automatic placement for swept Byzantine
// processes.
type ByzPlace int

// Placements.
const (
	// PlaceFigure uses the figure's scripted Byzantine set (generators have
	// none, so it degenerates to no Byzantine processes).
	PlaceFigure ByzPlace = iota
	// PlaceTail picks the highest-ID processes (the non-sink/non-core region
	// of generated graphs), which keeps the planted sink intact.
	PlaceTail
	// PlaceSink picks the lowest-ID sink/core members — adversarial
	// placement that stresses the committee itself.
	PlaceSink
	// PlaceWorst runs the worst-case placement search: per compiled graph,
	// every Count-subset is graded by the knowledge margin the correct-only
	// view retains (kosr.WorstPlacement), and the minimal-margin subset is
	// placed. Deterministic per graph, so sweep fingerprints stay stable.
	PlaceWorst
)

// ByzPlaces spells every placement, in declaration order.
var ByzPlaces = model.Names[ByzPlace]{
	{"figure", PlaceFigure}, {"tail", PlaceTail}, {"sink", PlaceSink}, {"worst", PlaceWorst},
}

// String implements fmt.Stringer.
func (p ByzPlace) String() string { return model.NameOf(ByzPlaces, p, "place") }

// ParseByzPlace parses a ByzPlace's String form.
func ParseByzPlace(s string) (ByzPlace, error) { return ByzPlaces.Parse("byzantine placement", s) }

// AutoByz places Count Byzantine processes of the given Kind according to
// Place. The zero value means "no automatic placement".
type AutoByz struct {
	// Kind is the behavior every placed process gets.
	Kind ByzKind
	// Count is how many processes to place (0 = none).
	Count int
	// Place selects which processes.
	Place ByzPlace
}

// String renders a compact axis label.
func (a AutoByz) String() string {
	if a.Count == 0 {
		return "none"
	}
	return fmt.Sprintf("%s×%d@%s", a.Kind, a.Count, a.Place)
}

// ParseAutoByz parses the String form — "kind×count@place" (an ASCII "x"
// also separates kind and count, for shells without the multiplication
// sign), "kind×count" (default tail placement), or "none".
func ParseAutoByz(s string) (AutoByz, error) {
	if s == "" || s == "none" {
		return AutoByz{}, nil
	}
	rest := s
	place := PlaceTail
	if at := strings.LastIndexByte(rest, '@'); at >= 0 {
		p, err := ParseByzPlace(rest[at+1:])
		if err != nil {
			return AutoByz{}, fmt.Errorf("auto byz %q: %w", s, err)
		}
		place, rest = p, rest[:at]
	}
	sep := strings.LastIndex(rest, "×")
	sepLen := len("×")
	if sep < 0 {
		sep, sepLen = strings.LastIndexByte(rest, 'x'), 1
	}
	if sep <= 0 {
		return AutoByz{}, fmt.Errorf("auto byz %q: want kind×count[@place] or none", s)
	}
	kind, err := ParseByzKind(rest[:sep])
	if err != nil {
		return AutoByz{}, fmt.Errorf("auto byz %q: %w", s, err)
	}
	count, err := strconv.Atoi(rest[sep+sepLen:])
	if err != nil || count <= 0 {
		return AutoByz{}, fmt.Errorf("auto byz %q: bad count %q", s, rest[sep+sepLen:])
	}
	return AutoByz{Kind: kind, Count: count, Place: place}, nil
}

// Params is a fully data-driven experiment description: every field is a
// plain value (no graphs, callbacks or network models), so Params can be
// swept by the matrix engine, serialized, diffed and reproduced from a CLI
// flag string. Compile materializes it; Run is Compile plus one run.
type Params struct {
	// Name labels the cell; empty defaults to ID().
	Name string
	// Graph is the knowledge-connectivity-graph family to build.
	Graph graph.Def
	// GraphSeed drives random graph families; 0 falls back to Seed.
	GraphSeed int64
	// Mode selects the committee-identification protocol.
	Mode core.Mode
	// F is the threshold handed to processes. -1 uses the graph family's
	// natural threshold (figure F, k-1, f_G, ⌊(n-1)/3⌋).
	F int
	// Byz assigns explicit Byzantine behaviors; Auto adds swept placements
	// on top (explicit entries win on collision).
	Byz map[model.ID]ByzSpec
	// Auto places additional swept Byzantine processes.
	Auto AutoByz
	// Values maps processes to proposals (defaults to "v<id>").
	Values map[model.ID]model.Value
	// Net describes the network model.
	Net NetParams
	// Horizon bounds the run. Default 60s.
	Horizon sim.Time
	// Seed drives the simulation (and graph generation when GraphSeed is 0).
	Seed int64
	// SlowDiscovery stretches the gossip/poll periods, keeping the event
	// volume of non-terminating (async) runs sane.
	SlowDiscovery bool
	// Faults is the chaos fault-injection axis: link loss/duplication/
	// reorder, partition windows and crash/restart churn, all serializable
	// data resolved at compile time. The zero value means no injection and
	// leaves CompileKey, labels and traces byte-identical to pre-fault
	// scenarios. Active faults arm the hardened protocol profile unless
	// Faults.Unhardened opts out.
	Faults FaultParams
	// Trace enables event/decision trace digests on the result.
	Trace bool
}

// CellLabels are the seed-independent axis labels of one Params — what a
// matrix outcome echoes as its Graph/Mode/Net/Byz/F columns, and the prefix
// of the cell identifier. Computing them once per compiled scenario (instead
// of once per cell) is part of the compile-once fast path.
type CellLabels struct {
	// Graph / Mode / Net / Byz are the rendered axis labels.
	Graph, Mode, Net, Byz string
	// F is the unresolved fault-threshold knob (-1 = family default, and
	// then omitted from the ID).
	F int
}

// Labels renders the seed-independent axis labels. Active fault injection is
// folded into the network label (it is a property of the channel, not a new
// column), so zero-fault cell IDs and outcome rows are unchanged.
func (p Params) Labels() CellLabels {
	net := p.Net.Label()
	if p.Faults.Enabled() {
		net += "+faults(" + p.Faults.Label() + ")"
	}
	return CellLabels{
		Graph: p.Graph.String(),
		Mode:  p.Mode.String(),
		Net:   net,
		Byz:   p.ByzLabel(),
		F:     p.F,
	}
}

// IDPrefix renders the seed-independent prefix of the cell identifier:
// graph/mode/net/byz[/f=…].
func (l CellLabels) IDPrefix() string {
	parts := []string{l.Graph, l.Mode, l.Net, "byz=" + l.Byz}
	if l.F >= 0 {
		parts = append(parts, fmt.Sprintf("f=%d", l.F))
	}
	return strings.Join(parts, "/")
}

// IDFor completes the cell identifier for one seed.
func (l CellLabels) IDFor(seed int64) string {
	return l.IDPrefix() + "/seed=" + strconv.FormatInt(seed, 10)
}

// ID renders a stable, human-readable cell identifier:
// graph/mode/net/byz/f=…/seed=….
func (p Params) ID() string {
	return p.Labels().IDFor(p.Seed)
}

// nameOrID attributes errors: the fixed name when one was given, the
// derived cell ID otherwise. Only error paths pay the ID rendering.
func (p Params) nameOrID() string {
	if p.Name != "" {
		return p.Name
	}
	return p.ID()
}

// ByzLabel renders the Byzantine assignment as a stable axis label.
func (p Params) ByzLabel() string {
	if len(p.Byz) == 0 && p.Auto.Count == 0 {
		return "none"
	}
	var parts []string
	if len(p.Byz) > 0 {
		ids := make([]model.ID, 0, len(p.Byz))
		for id := range p.Byz {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			parts = append(parts, fmt.Sprintf("%d:%s", uint64(id), p.Byz[id].Kind))
		}
	}
	if p.Auto.Count > 0 {
		parts = append(parts, p.Auto.String())
	}
	return strings.Join(parts, ",")
}

// Validate applies the structural checks that need no materialization: the
// graph def is well-formed and the scalar knobs are in range. The matrix
// engine's lazy cell sources validate one probe cell per axis value through
// it instead of building every cell's graph up front; errors Validate cannot
// see (a generator spec unsatisfiable for some seed) still surface from
// Compile when the cell runs.
func (p Params) Validate() error {
	if err := p.Graph.Validate(); err != nil {
		return fmt.Errorf("params %q: %w", p.nameOrID(), err)
	}
	if p.F < -1 {
		return fmt.Errorf("params %q: fault threshold %d (want -1 for the family default, or ≥ 0)", p.nameOrID(), p.F)
	}
	if p.Horizon < 0 {
		return fmt.Errorf("params %q: negative horizon %v", p.nameOrID(), p.Horizon)
	}
	// Net-timing knobs: zero is the documented "use the default" sentinel
	// (withDefaults); negatives were previously swallowed by the same
	// default-filling and are rejected loudly instead.
	if p.Net.Delta < 0 {
		return fmt.Errorf("params %q: negative delta %v (0 means the %v default)", p.nameOrID(), p.Net.Delta, time.Duration(DefaultDelta))
	}
	if p.Net.GST < 0 {
		return fmt.Errorf("params %q: negative GST %v (0 means the %v default)", p.nameOrID(), p.Net.GST, time.Duration(DefaultGST))
	}
	if p.Net.AsyncDelta < 0 {
		return fmt.Errorf("params %q: negative async delta %v (0 means the %v default)", p.nameOrID(), p.Net.AsyncDelta, time.Duration(DefaultAsyncDelta))
	}
	if p.Net.AsyncFactor < 0 {
		return fmt.Errorf("params %q: negative async factor %d (0 means the default of %d)", p.nameOrID(), p.Net.AsyncFactor, DefaultAsyncFactor)
	}
	if p.Auto.Count < 0 {
		return fmt.Errorf("params %q: negative byzantine count %d", p.nameOrID(), p.Auto.Count)
	}
	if err := p.Faults.Validate(); err != nil {
		return fmt.Errorf("params %q: %w", p.nameOrID(), err)
	}
	return nil
}

// autoByzIDs resolves the automatic placement to concrete process IDs.
// PlaceWorst is the only placement that can fail (enumeration cap).
func (p Params) autoByzIDs(built graph.BuiltGraph) ([]model.ID, error) {
	if p.Auto.Count == 0 {
		return nil, nil
	}
	if p.Auto.Place == PlaceFigure {
		ids := built.Byz.Sorted()
		if len(ids) > p.Auto.Count {
			ids = ids[:p.Auto.Count]
		}
		return ids, nil
	}
	if p.Auto.Place == PlaceWorst {
		count := p.Auto.Count
		if n := built.G.NumNodes(); count > n {
			count = n
		}
		worst, err := kosr.WorstPlacement(built.G, count)
		if err != nil {
			return nil, fmt.Errorf("params %q: %w", p.nameOrID(), err)
		}
		return worst.Byz.Sorted(), nil
	}
	nodes := built.G.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	var pool []model.ID
	switch p.Auto.Place {
	case PlaceSink:
		if built.Sink.Len() > 0 {
			pool = built.Sink.Sorted()
		} else {
			pool = nodes
		}
	default: // PlaceTail: highest IDs first
		for i := len(nodes) - 1; i >= 0; i-- {
			pool = append(pool, nodes[i])
		}
	}
	if len(pool) > p.Auto.Count {
		pool = pool[:p.Auto.Count]
	}
	return pool, nil
}

// autoByzSpec derives the ByzSpec for an automatically placed process; placed
// is the full sorted placement (some defaults are relative to the whole
// group). For ByzFakePD / ByzEquivPD / ByzCollude the claimed PD is the sink
// minus the process itself — a plausible false claim — falling back to the
// run-time ForgedClaim default on sinkless graphs; ByzEquivPD additionally
// advertises an empty set to half the peers. ByzDelay holds replies two
// discovery rounds; ByzSelectiveSilent answers the lowest ⌈n/2⌉ processes;
// ByzCollude additionally censors the highest-ID process outside the group.
func (p Params) autoByzSpec(built graph.BuiltGraph, id model.ID, placed []model.ID) ByzSpec {
	spec := ByzSpec{Kind: p.Auto.Kind}
	switch p.Auto.Kind {
	case ByzFakePD, ByzEquivPD, ByzCollude:
		if built.Sink.Len() > 0 {
			claimed := built.Sink.Clone()
			claimed.Remove(id)
			spec.ClaimedPD = claimed
		}
	}
	switch p.Auto.Kind {
	case ByzDelay:
		spec.HoldRounds = 2
	case ByzSelectiveSilent:
		nodes := built.G.Nodes()
		answer := model.NewIDSet()
		for _, u := range nodes {
			if u != id {
				answer.Add(u)
			}
			if answer.Len() >= (len(nodes)+1)/2 {
				break
			}
		}
		spec.AnswerTo = answer
	case ByzCollude:
		group := model.NewIDSet(placed...)
		nodes := built.G.Nodes()
		for i := len(nodes) - 1; i >= 0; i-- {
			if u := nodes[i]; !group.Has(u) {
				spec.Withhold = model.NewIDSet(u)
				break
			}
		}
	}
	return spec
}
