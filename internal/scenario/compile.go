package scenario

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/discovery"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/sim"
)

// Scenario execution is the Params → Compiled → Run pipeline, and there is
// no other path. Compile does everything that does not depend on the
// simulation seed — building the graph from its def, resolving the fault
// threshold and the automatic Byzantine placement, materializing the network
// model, filling defaults — and Run does only the seed-dependent work: the
// keyring (from the Runner's cryptox key store), engine setup and the
// simulation itself. A sweep that runs one scenario across a thousand seeds
// compiles once and runs a thousand times; the matrix layer caches Compiled
// values per worker keyed by Params.CompileKey. One-shot callers use
// Params.Run, which is Compile + Run under p.Seed, so the two cannot diverge
// — and provably so: the matrix fingerprint tests pin cached and uncached
// execution to byte-identical reports.

// horizonOrDefault fills the 60-second default horizon, in one place for
// Compile and CompileKey (the network defaults are NetParams.Model's).
func horizonOrDefault(horizon sim.Time) sim.Time {
	if horizon <= 0 {
		return 60 * sim.Second
	}
	return horizon
}

// Compiled is the seed-independent materialization of a scenario: the built
// knowledge connectivity graph, the resolved fault threshold and Byzantine
// assignment, the network model and the filled-in defaults. It is produced
// once by Params.Compile and then Run any number of times
// with different seeds; the per-run cost is key material, engine setup and
// the simulation itself. A Compiled value is immutable after construction
// and safe to share between goroutines (Run never mutates it).
type Compiled struct {
	// Name labels results and errors; empty derives the per-seed cell ID
	// from Labels at run time (Params.ID for that seed).
	Name string
	// Labels are the seed-independent axis labels of the source Params.
	Labels CellLabels
	// Graph is the built knowledge connectivity graph.
	Graph *graph.Digraph
	// Mode / F / Byz / Values / Net / Horizon are the resolved counterparts
	// of the Params fields of the same names.
	Mode    core.Mode
	F       int
	Byz     map[model.ID]ByzSpec
	Values  map[model.ID]model.Value
	Net     sim.NetworkModel
	Horizon sim.Time
	// Discovery / PBFTTimeout / PollPeriod tune the protocol stack (zero
	// keeps the module defaults). Params sets them only through
	// SlowDiscovery; a caller that needs another tuning sets the field on
	// the Compiled it is about to run, before sharing it.
	Discovery   discovery.Config
	PBFTTimeout sim.Time
	PollPeriod  sim.Time
	// Insecure is always false: Compile never sets it, and every run signs
	// with the Ed25519 keyring. It is read only by bench/simtrace.go, which
	// would swap in cryptox.InsecureSuite when it is set.
	Insecure bool
	// Faults is the validated chaos axis (zero when no injection). The
	// link-level parts are already folded into Net as a sim.FaultyNetwork
	// wrapper; Faults.Churn is read again by every Run, which schedules the
	// crash/restart control events on the engine per seed.
	Faults FaultParams
	// Hardened arms the retransmitting protocol profile in every correct
	// node (discovery backoff, PBFT decide-note replies).
	Hardened bool

	// ids is the sorted node list, computed once.
	ids []model.ID
}

// Compile materializes the seed-independent part of the parameters: it
// builds the graph and hands it to CompileGraph. The effective graph seed
// (GraphSeed, falling back to Seed) participates: for random graph families a
// Compiled is specific to the graph its seed built, which is exactly what
// CompileKey captures.
func (p Params) Compile() (*Compiled, error) {
	gseed := p.GraphSeed
	if gseed == 0 {
		gseed = p.Seed
	}
	built, err := p.Graph.Build(gseed)
	if err != nil {
		return nil, fmt.Errorf("params %q: %w", p.nameOrID(), err)
	}
	return p.CompileGraph(built)
}

// CompileGraph is Compile on an already built graph: everything but
// p.Graph / p.GraphSeed is read as usual. It is the seam for a caller that
// holds a graph no Def describes (the root package's Simulate, whose Topology
// is an arbitrary adjacency map).
func (p Params) CompileGraph(built graph.BuiltGraph) (*Compiled, error) {
	if built.G == nil {
		return nil, fmt.Errorf("params %q: no graph", p.nameOrID())
	}
	f := p.F
	if f < 0 {
		f = built.F
	}
	if err := checkProcessIDs(built.G, p.Byz, p.Values); err != nil {
		return nil, fmt.Errorf("params %q: %w", p.nameOrID(), err)
	}
	byzMap := make(map[model.ID]ByzSpec)
	placed, err := p.autoByzIDs(built)
	if err != nil {
		return nil, err
	}
	for _, id := range placed {
		byzMap[id] = p.autoByzSpec(built, id, placed)
	}
	maps.Copy(byzMap, p.Byz)
	net, err := applyFaults(p.Faults, p.Net.Model(), built.G, byzMap)
	if err != nil {
		return nil, fmt.Errorf("params %q: %w", p.nameOrID(), err)
	}
	c := &Compiled{
		Name:     p.Name,
		Labels:   p.Labels(),
		Graph:    built.G,
		Mode:     p.Mode,
		F:        f,
		Byz:      byzMap,
		Values:   p.Values,
		Net:      net,
		Horizon:  horizonOrDefault(p.Horizon),
		Faults:   p.Faults,
		Hardened: p.Faults.Hardened(),
		ids:      built.G.Nodes(),
	}
	if p.SlowDiscovery {
		c.Discovery.Period = 500 * sim.Millisecond
		c.PollPeriod = 2 * sim.Second
	}
	return c, nil
}

// checkProcessIDs rejects an explicit Byzantine assignment or proposal for a
// process the graph does not have: a typo'd ID must not compile into a run
// that reads as adversarial (or as carrying a proposal) while placing nothing.
func checkProcessIDs(g *graph.Digraph, byz map[model.ID]ByzSpec, values map[model.ID]model.Value) error {
	for _, id := range sortedIDs(byz) {
		if !g.HasNode(id) {
			return fmt.Errorf("byzantine process %v not in graph", id)
		}
	}
	for _, id := range sortedIDs(values) {
		if !g.HasNode(id) {
			return fmt.Errorf("proposal of process %v not in graph", id)
		}
	}
	return nil
}

// applyFaults validates an active fault axis against the built graph and
// Byzantine assignment and wraps the network model in the corresponding
// injector. A disabled axis returns the model untouched (and skips every
// check), keeping zero-fault compilation byte-identical to the pre-fault
// pipeline.
func applyFaults(f FaultParams, net sim.NetworkModel, g *graph.Digraph, byzMap map[model.ID]ByzSpec) (sim.NetworkModel, error) {
	if !f.Enabled() {
		return net, nil
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	nodes := model.NewIDSet(g.Nodes()...)
	for _, ch := range f.Churn {
		if !nodes.Has(ch.ID) {
			return nil, fmt.Errorf("churn of process %v not in graph", ch.ID)
		}
		if _, isByz := byzMap[ch.ID]; isByz && ch.Wipe {
			// A wiped restart builds a fresh *correct* node; wiping a
			// Byzantine process would silently convert it mid-run.
			return nil, fmt.Errorf("churn of process %v cannot wipe a Byzantine process", ch.ID)
		}
	}
	return sim.FaultyNetwork{
		Base:      net,
		Loss:      f.Loss,
		Dup:       f.Dup,
		Reorder:   f.Reorder,
		Partition: resolvePartitions(f.Partitions, g.Nodes()),
	}, nil
}

// CompileKey is the canonical identity of the seed-independent parts of the
// parameters: two Params with equal CompileKeys compile to interchangeable
// Compiled values, which is the cache-key contract the matrix layer's
// per-worker compile cache relies on. For random graph families the key
// includes the effective graph seed (a sweep that varies Seed with GraphSeed
// unset builds a different graph per cell, and the key says so); for figures
// and complete graphs the seed is normalized away and a whole seed sweep
// shares one entry.
func (p Params) CompileKey() string {
	gseed := p.GraphSeed
	if gseed == 0 {
		gseed = p.Seed
	}
	var sb strings.Builder
	sb.WriteString(p.Graph.BuildKey(gseed))
	fmt.Fprintf(&sb, "|mode=%d|f=%d|net=%s|h=%d|slow=%t|auto=%d,%d,%d",
		int(p.Mode), p.F, p.Net.Label(), int64(horizonOrDefault(p.Horizon)), p.SlowDiscovery,
		int(p.Auto.Kind), p.Auto.Count, int(p.Auto.Place))
	if p.Faults.Enabled() {
		// Same only-when-set discipline: every zero-fault key is byte-stable,
		// and a chaos cell (whose FaultyNetwork wrapper and Hardened flag
		// change compiled behavior) never shares a cache entry with a clean
		// one. Label is the canonical serialization of the whole fault axis.
		fmt.Fprintf(&sb, "|faults=%q", p.Faults.Label())
	}
	if p.Name != "" {
		// A fixed name is part of the compiled identity (it labels results
		// and error messages); an empty one derives the per-seed cell ID at
		// run time, so every seed of a sweep shares the cache entry. Quoted:
		// a free-form name must not be able to mimic other key sections.
		fmt.Fprintf(&sb, "|name=%q", p.Name)
	}
	for _, id := range sortedIDs(p.Byz) {
		bs := p.Byz[id]
		fmt.Fprintf(&sb, "|byz%d=%d;%s;%s;%s;%d;%s;%s", uint64(id), int(bs.Kind),
			setKey(bs.ClaimedPD), setKey(bs.AltPD), setKey(bs.AltRecipients),
			bs.HoldRounds, setKey(bs.AnswerTo), setKey(bs.Withhold))
	}
	for _, id := range sortedIDs(p.Values) {
		fmt.Fprintf(&sb, "|val%d=%q", uint64(id), string(p.Values[id]))
	}
	return sb.String()
}

// sortedIDs returns a map's keys in ascending order (slices.Sort: this runs
// per cell on the compile-key path).
func sortedIDs[V any](m map[model.ID]V) []model.ID {
	ids := make([]model.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// setKey renders one ByzSpec set for CompileKey: members ascending, nil (the
// kind's default) as "[]", and an empty set apart from nil — the two compile
// to different behaviors, so they must not share a cache entry.
func setKey(s model.IDSet) string {
	if s != nil && len(s) == 0 {
		return "[∅]"
	}
	return fmt.Sprint(s.Sorted())
}

// ForgedClaim is the default advertised PD for a PD-forging behavior left
// without an explicit ClaimedPD: the (up to) three lowest-ID other processes,
// echoing the Section III worked example where Byzantine process 4 claims
// PD {1,2,3}. It is guaranteed to differ from the process's real out-set —
// if the pattern happens to coincide, the process's own ID is added
// (knowledge graphs have no self-edges) — so a forging kind never silently
// degenerates into advertising the truth.
func ForgedClaim(g *graph.Digraph, id model.ID) model.IDSet {
	claim := model.NewIDSet()
	for _, u := range g.Nodes() {
		if u != id {
			claim.Add(u)
			if claim.Len() == 3 {
				break
			}
		}
	}
	if claim.Equal(g.OutSet(id)) {
		claim.Add(id)
	}
	return claim
}

// resolveClaim fills a Byzantine spec's advertised PD: explicit claims win;
// otherwise content-honest kinds (delay, selective silence) advertise the
// real out-set and forging kinds get ForgedClaim.
func resolveClaim(c *Compiled, id model.ID, bspec ByzSpec) model.IDSet {
	if bspec.ClaimedPD != nil {
		return bspec.ClaimedPD
	}
	switch bspec.Kind {
	case ByzFakePD, ByzEquivPD, ByzCollude:
		return ForgedClaim(c.Graph, id)
	}
	return c.Graph.OutSet(id).Clone()
}

// Run is the one-shot form of the pipeline: Compile, then one run under
// p.Seed (traced when p.Trace). The Result is independently owned.
func (p Params) Run() (*Result, error) {
	c, err := p.Compile()
	if err != nil {
		return nil, err
	}
	return c.Run(p.Seed, p.Trace)
}

// Run executes the compiled scenario under one seed. It is shorthand for a
// fresh Runner's Run; sweep workers keep a Runner per goroutine to also
// reuse the simulation scratch across cells.
func (c *Compiled) Run(seed int64, trace bool) (*Result, error) {
	var r Runner
	return r.Run(c, seed, trace)
}

// Runner owns the per-worker scratch of the Run side of the pipeline: the
// simulation engine (slab, queue, process table) and the bookkeeping maps,
// reset and reused across runs instead of reallocated per cell, and the
// run's key store, whose sign and verify memos the cells of one seed share
// and which goes with the Runner. A Runner is for one goroutine; the *Result
// it returns (and the maps inside it) are owned by the Runner and valid only
// until its next Run — callers that retain results across cells must copy
// what they keep.
type Runner struct {
	engine     *sim.Engine
	keys       *cryptox.Keys
	log        runLog
	perProcess map[model.ID]ProcessResult
	res        Result
	// searchers is the pool of per-node incremental sink/core search
	// engines, handed out in node-creation order each run so the knowledge
	// layer's scratch (Tarjan stacks, max-flow arrays, verdict memos) is
	// reused across cells the same way the engine's heap and pools are. A
	// searcher rebinds itself when it sees a new view, so reuse is invisible
	// to results.
	searchers    []*kosr.Searcher
	searcherNext int

	// SearchFactory, when non-nil, overrides the pooled searchers with a
	// per-node kosr.Search of its own choosing. The search transparency tests
	// inject a fresh kosr.Searcher per call through it to pin the pooled,
	// memo-warm searchers to a memo-less run, trace digest for trace digest.
	SearchFactory func() kosr.Search
}

// nextSearcher hands out the next pooled searcher, growing the pool on first
// use.
func (r *Runner) nextSearcher() kosr.Search {
	if r.searcherNext == len(r.searchers) {
		r.searchers = append(r.searchers, kosr.NewSearcher())
	}
	s := r.searchers[r.searcherNext]
	r.searcherNext++
	return s
}

// keyStore returns the Runner's key store, creating it on first use.
func (r *Runner) keyStore() *cryptox.Keys {
	if r.keys == nil {
		r.keys = cryptox.NewKeys()
	}
	return r.keys
}

// reset prepares the scratch for one run.
func (r *Runner) reset(net sim.NetworkModel, seed int64) {
	if r.engine == nil {
		r.engine = sim.NewEngine(net, seed)
		r.perProcess = make(map[model.ID]ProcessResult)
	} else {
		r.engine.Reset(net, seed)
		clear(r.perProcess)
	}
	r.log.reset()
	r.searcherNext = 0
}

// Run executes the compiled scenario under one seed on the simulator:
// assemble the reactors onto the engine (keyrings come from the Runner's key
// store), schedule the churn, drive the engine to decision or horizon, and
// grade the outcome.
func (r *Runner) Run(c *Compiled, seed int64, trace bool) (*Result, error) {
	name := c.runName(seed)
	r.reset(c.Net, seed)
	engine, log := r.engine, &r.log

	st, err := c.newStack(r.keyStore(), seed, c.Discovery, c.PBFTTimeout, c.PollPeriod)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", name, err)
	}
	var tr *sim.Trace
	if trace {
		tr = sim.NewTrace()
		engine.SetTrace(tr)
	}
	st.searcher = r.SearchFactory
	if st.searcher == nil {
		st.searcher = r.nextSearcher
	}
	st.decide = func(id model.ID, _ uint64, v model.Value) {
		if log.record(id, v, engine.Now()) && tr != nil {
			tr.RecordDecision(id, engine.Now(), []byte(v))
		}
	}
	if err := st.assemble(log, engine.AddProcess); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", name, err)
	}

	for _, ch := range c.Faults.Churn {
		engine.ScheduleCrash(ch.ID, ch.CrashAt)
		switch {
		case ch.RestartAt == 0:
			// Down for the rest of the run: graded as crash-faulty (excluded
			// from the correct set), not as a termination failure.
			log.correct.Remove(ch.ID)
		case ch.Wipe:
			// Compile rejected Wipe on Byzantine IDs, so this process has a
			// correct node whose discovery state the restart discards. The
			// replacement is built here, before the engine starts, so
			// searcher handout order (node order, then churn order) stays
			// deterministic.
			repl := st.node(ch.ID, log.proposals[ch.ID])
			log.nodes[ch.ID] = repl
			engine.ScheduleRestart(ch.ID, ch.RestartAt, repl)
		default:
			engine.ScheduleRestart(ch.ID, ch.RestartAt, nil)
		}
	}

	terminated := engine.RunUntil(log.allCorrectDecided, c.Horizon)
	// Let in-flight decisions propagate a little further for reporting, but
	// never past the horizon.
	if terminated {
		engine.RunUntil(func() bool { return false }, min(engine.Now()+sim.Second, c.Horizon))
	}

	r.res = Result{Name: name, PerProcess: r.perProcess}
	res := &r.res
	log.grade(c, res, terminated)
	if tr != nil {
		res.TraceDigest, res.TraceEvents = tr.Digest(), tr.Events()
	}
	m := engine.Metrics()
	res.Messages, res.Bytes = m.Messages, m.Bytes
	res.ByKind = m.ByKind()
	return res, nil
}

// runName is the name a run's Result and errors carry: the fixed one, or the
// per-seed cell ID when the source Params had none.
func (c *Compiled) runName(seed int64) string {
	if c.Name == "" {
		return c.Labels.IDFor(seed)
	}
	return c.Name
}
