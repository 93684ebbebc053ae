package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/bftcup/bftcup/internal/byz"
	"github.com/bftcup/bftcup/internal/core"
	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/matrix"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/scenario"
	"github.com/bftcup/bftcup/internal/sim"
	"github.com/bftcup/bftcup/internal/wire"
)

// errNotMirrored marks a cell the instrumented runner refuses: it only
// mirrors the Byzantine kinds the benchmark's sweeps use, and never
// approximates another.
var errNotMirrored = fmt.Errorf("byzantine kind not mirrored by the traced runner")

// cellTrace is one traced simulator cell: what scenario.Runner.Run would
// have reported (for the fidelity check) plus the spans.
type cellTrace struct {
	digest    string
	messages  int64
	bytes     int64
	elapsed   sim.Time
	consensus bool
	byKind    map[byte]int64
	wall      int64 // ns, whole cell
	t         *tracer
}

// simTracer is the benchmark's instrumented counterpart of scenario.Runner:
// it builds each cell from the exported fields of scenario.Compiled exactly
// as Runner.Run does — same key material, same node construction order, same
// searcher pooling, same churn scheduling, same grading — with every layer
// boundary wrapped. It keeps one engine and one searcher pool across cells,
// as a sweep worker's Runner does.
type simTracer struct {
	engine    *sim.Engine
	searchers []*kosr.Searcher
}

func (r *simTracer) run(c *scenario.Compiled, seed int64) (*cellTrace, error) {
	for _, b := range c.Byz {
		if b.Kind != scenario.ByzSilent && b.Kind != scenario.ByzAsCorrect {
			return nil, errNotMirrored
		}
	}
	t := newTracer()
	cellStart := t.now()
	if r.engine == nil {
		r.engine = sim.NewEngine(c.Net, seed)
	} else {
		r.engine.Reset(c.Net, seed)
	}
	engine := r.engine
	ids := c.Graph.Nodes()

	var signers map[model.ID]cryptox.Signer
	var reg cryptox.Verifier
	keyStart := t.now()
	if c.Insecure {
		signers, reg = cryptox.InsecureSuite(ids)
	} else {
		var err error
		signers, reg, err = cryptox.Keyring(seed+1, ids)
		if err != nil {
			return nil, err
		}
	}
	t.span(layerCryptox, keyStart)
	verifier := &tracedVerifier{inner: reg, t: t}

	tr := sim.NewTrace()
	engine.SetTrace(tr)

	proposals := make(map[model.ID]model.Value, len(ids))
	nodes := make(map[model.ID]*core.Node, len(ids))
	correct := model.NewIDSet()
	decisions := make(map[model.ID]model.Value, len(ids))
	decidedAt := make(map[model.ID]sim.Time, len(ids))
	doubleDecided := model.NewIDSet()
	decidedCorrect := 0
	nextSearcher := 0

	makeNode := func(id model.ID, value model.Value) *core.Node {
		cfg := core.Config{
			Mode:        c.Mode,
			F:           c.F,
			PD:          c.Graph.OutSet(id).Clone(),
			Proposal:    value,
			Discovery:   c.Discovery,
			PBFTTimeout: c.PBFTTimeout,
			PollPeriod:  c.PollPeriod,
			Hardened:    c.Hardened,
		}
		if c.Mode != core.ModePermissioned {
			if nextSearcher == len(r.searchers) {
				r.searchers = append(r.searchers, kosr.NewSearcher())
			}
			cfg.Searcher = &tracedSearch{inner: r.searchers[nextSearcher], t: t}
			nextSearcher++
		}
		return core.NewNode(&tracedSigner{inner: signers[id], t: t}, verifier, cfg, func(v model.Value) {
			if prev, dup := decisions[id]; dup {
				if !prev.Equal(v) {
					doubleDecided.Add(id)
				}
				return
			}
			decisions[id] = v
			decidedAt[id] = engine.Now()
			if correct.Has(id) {
				decidedCorrect++
			}
			tr.RecordDecision(id, engine.Now(), []byte(v))
		})
	}

	for _, id := range ids {
		value := model.Value(fmt.Sprintf("v%d", id))
		if v, ok := c.Values[id]; ok {
			value = v
		}
		proposals[id] = value
		bspec, isByz := c.Byz[id]
		if isByz && bspec.Kind == scenario.ByzSilent {
			if err := engine.AddProcess(id, newTracedReactor(byz.Silent{}, t)); err != nil {
				return nil, err
			}
			continue
		}
		n := makeNode(id, value)
		nodes[id] = n
		if err := engine.AddProcess(id, newTracedReactor(n, t)); err != nil {
			return nil, err
		}
		if !isByz {
			correct.Add(id)
		}
	}

	for _, ch := range c.Faults.Churn {
		engine.ScheduleCrash(ch.ID, ch.CrashAt)
		switch {
		case ch.RestartAt == 0:
			correct.Remove(ch.ID)
		case ch.Wipe:
			repl := makeNode(ch.ID, proposals[ch.ID])
			nodes[ch.ID] = repl
			engine.ScheduleRestart(ch.ID, ch.RestartAt, newTracedReactor(repl, t))
		default:
			engine.ScheduleRestart(ch.ID, ch.RestartAt, nil)
		}
	}

	runStart := t.now()
	termination := engine.RunUntil(func() bool { return decidedCorrect == correct.Len() }, c.Horizon)
	if termination {
		grace := engine.Now() + sim.Second
		if grace > c.Horizon {
			grace = c.Horizon
		}
		engine.RunUntil(func() bool { return false }, grace)
	}
	runWall := t.now() - runStart

	ct := &cellTrace{t: t}
	agreement, validity, integrity := true, true, true
	for id := range doubleDecided {
		if correct.Has(id) {
			integrity = false
		}
	}
	var last sim.Time
	var agreed model.Value
	first := true
	for _, id := range ids {
		v, decided := decisions[id]
		if !correct.Has(id) || !decided {
			continue
		}
		if decidedAt[id] > last {
			last = decidedAt[id]
		}
		if first {
			agreed, first = v, false
		} else if !agreed.Equal(v) {
			agreement = false
		}
		proposed := false
		for _, p := range proposals {
			if p.Equal(v) {
				proposed = true
				break
			}
		}
		if !proposed {
			validity = false
		}
	}
	ct.elapsed = c.Horizon
	if termination {
		ct.elapsed = last
	}
	ct.consensus = termination && agreement && validity && integrity
	ct.digest = tr.Digest()
	m := engine.Metrics()
	ct.messages, ct.bytes, ct.byKind = m.Messages, m.Bytes, m.ByKind()

	ct.wall = t.now() - cellStart
	// Dispatch is what RunUntil spent outside callbacks; the scenario layer
	// is the cell outside RunUntil, minus the crypto it called while
	// building nodes.
	t.self[layerDispatch] = runWall - t.callbacks
	t.self[layerScenario] = ct.wall - runWall - t.outside
	t.count[layerScenario] = 1
	return ct, nil
}

// flushKeyrings evicts every entry of the process-wide cryptox keyring cache
// (two generations of 128) by inserting throw-away single-key rings, so each
// pass of the traced run meets the cache as cold as a sweep over fresh seeds
// does. The sign and verify memos hang off the evicted entries and go too.
func flushKeyrings() error {
	for i := 0; i < 300; i++ {
		// Negative seeds never collide with a cell's; each flush needs rings
		// the cache has not seen, or its look-ups would hit and evict nothing.
		flushSeed--
		if _, _, err := cryptox.Keyring(flushSeed, []model.ID{1}); err != nil {
			return err
		}
	}
	return nil
}

var flushSeed int64

// tracedCell is one cell of the traced pass with its compilation.
type tracedCell struct {
	id   string
	seed int64
	c    *scenario.Compiled
}

// compileCells compiles the cells once per distinct compile key, as a sweep
// worker's cache does, and reports the time per key.
func compileCells(cells []matrix.Cell) ([]tracedCell, float64, error) {
	cache := make(map[string]*scenario.Compiled)
	out := make([]tracedCell, len(cells))
	var spent time.Duration
	for i, cell := range cells {
		key := cell.Params.CompileKey()
		c, ok := cache[key]
		if !ok {
			start := time.Now()
			var err error
			if c, err = cell.Params.Compile(); err != nil {
				return nil, 0, fmt.Errorf("cell %s: %w", cell.ID(), err)
			}
			spent += time.Since(start)
			cache[key] = c
		}
		out[i] = tracedCell{id: cell.ID(), seed: cell.Params.Seed, c: c}
	}
	return out, spent.Seconds() * 1e3 / float64(len(cache)), nil
}

// spanRecord is one line of -trace-out: the spans of one layer inside one
// cell (or one node of one live round), aggregated. The cell is the parent
// of every span it lists and its ID the shared identifier.
type spanRecord struct {
	Workload string `json:"workload"`
	Cell     string `json:"cell"`
	Node     uint64 `json:"node,omitempty"`
	Layer    string `json:"layer"`
	SelfNS   int64  `json:"self_ns"`
	Spans    int64  `json:"spans"`
	CellNS   int64  `json:"cell_ns"`
}

func spanRecords(workload, cell string, node uint64, wall int64, t *tracer) []spanRecord {
	var out []spanRecord
	for l := layer(0); l < numLayers; l++ {
		if t.count[l] == 0 && t.self[l] == 0 {
			continue
		}
		out = append(out, spanRecord{Workload: workload, Cell: cell, Node: node, Layer: layerNames[l], SelfNS: t.self[l], Spans: t.count[l], CellNS: wall})
	}
	return out
}

// writeSpans writes the in-memory span records as JSONL, once, at exit.
func writeSpans(path string, recs []spanRecord) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraced is the traced pass of a simulator workload: block 1 (every
// traceStride-th cell) run four ways —
//
//	A  matrix.Run, untraced        the end-to-end path
//	B  scenario.Runner, untraced   the same cells with no matrix around them
//	C  simTracer                   every layer boundary wrapped
//	D  scenario.Runner, trace on   the reference C must reproduce
//
// so that A−B is the matrix layer, C−B the tracing overhead, C the layer
// breakdown and C≡D the fidelity check. The four alternate in chunks — the
// cells of one simulation seed, or traceChunk cells — because on a shared
// machine the speed drifts by tens of percent over seconds, and a difference
// of two whole passes would measure the drift. Every chunk of every pass
// starts from a flushed keyring cache; cells only ever share key material
// within one seed, so inside a chunk the cache behaves as in a real block.
// The parallel workloads add their own execution of the block for the
// efficiency numbers.
func (w *sweepWorkload) runTraced(cfg runConfig) (*runResult, error) {
	res := newResult()
	defer removeSpool()
	seeds := blockSeeds(cfg.seed, 1, w.seedsPerBlock)
	src, err := w.source(seeds)
	if err != nil {
		return nil, err
	}
	var cells matrix.CellList
	for i := 0; i < src.Len(); i += w.traceStride {
		cells = append(cells, src.Cell(i))
	}
	n := float64(len(cells))
	compiled, compileMS, err := compileCells(cells)
	if err != nil {
		return nil, err
	}
	res.set("scenario.compile_ms_per_key", compileMS, len(cells))
	res.set("trace.clock_ns", calibrateClock(), 1)

	var (
		wallA, wallB, wallC float64
		mallocs             uint64
		tracedWall          int64
		total               = newTracer()
		byKind              = make(map[byte]int64)
		spans               []spanRecord
	)
	for _, chunk := range traceChunks(cells) {
		// matrix.Run starts a fresh worker (engine, searcher pool) per call;
		// so does every other pass, per chunk, or A−B would also measure an
		// engine growing its heap again.
		var plain, ref scenario.Runner
		var st simTracer
		part := make(matrix.CellList, len(chunk))
		for i, ci := range chunk {
			part[i] = cells[ci]
		}

		// A: through the matrix engine.
		if err := flushKeyrings(); err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := matrix.Run(part, matrix.Options{Parallelism: 1}); err != nil {
			return nil, err
		}
		wallA += time.Since(start).Seconds()

		// B: the same cells on a bare Runner.
		if err := flushKeyrings(); err != nil {
			return nil, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start = time.Now()
		for _, ci := range chunk {
			if _, err := plain.Run(compiled[ci].c, compiled[ci].seed, false); err != nil {
				return nil, fmt.Errorf("cell %s: %w", compiled[ci].id, err)
			}
		}
		wallB += time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs

		// C: instrumented.
		if err := flushKeyrings(); err != nil {
			return nil, err
		}
		traces := make([]*cellTrace, len(chunk))
		start = time.Now()
		for i, ci := range chunk {
			tc := compiled[ci]
			ct, err := st.run(tc.c, tc.seed)
			if err == errNotMirrored {
				res.attempted++
				res.fail(1, fmt.Sprintf("cell %s: %v", tc.id, err))
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("cell %s: %w", tc.id, err)
			}
			traces[i] = ct
		}
		wallC += time.Since(start).Seconds()

		// D: the reference, and the fidelity check.
		if err := flushKeyrings(); err != nil {
			return nil, err
		}
		for i, ci := range chunk {
			tc, ct := compiled[ci], traces[i]
			if ct == nil {
				continue
			}
			want, err := ref.Run(tc.c, tc.seed, true)
			if err != nil {
				return nil, fmt.Errorf("cell %s: %w", tc.id, err)
			}
			res.attempted++
			if why := ct.diverges(want); why != "" {
				res.fail(1, fmt.Sprintf("cell %s: traced run diverges from scenario.Runner: %s", tc.id, why))
			}
			total.add(ct.t)
			tracedWall += ct.wall
			for k, v := range ct.byKind {
				byKind[k] += v
			}
			if cfg.traceOut != "" {
				spans = append(spans, spanRecords(w.name, tc.id, 0, ct.wall, ct.t)...)
			}
		}
	}
	res.set("scenario.allocs_per_cell", float64(mallocs)/n, len(cells))
	res.set("matrix.overhead_share", (wallA-wallB)/wallA, len(cells))
	res.set("trace.overhead_pct", 100*(wallC-wallB)/wallB, len(cells))

	switch w.mode {
	case execPar:
		if err := flushKeyrings(); err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := matrix.Run(cells, matrix.Options{Parallelism: workers()}); err != nil {
			return nil, err
		}
		res.set("matrix.par_efficiency", wallA/(float64(workers())*time.Since(start).Seconds()), len(cells))
	case execFabric:
		// One warm-up deal, as in the end-to-end pass, then the block.
		if _, err := w.runBlock([]int64{cfg.seed * seedStride}, execFabric, filepath.Join(spoolRoot(), "warm")); err != nil {
			return nil, err
		}
		b, err := w.runBlock(seeds, execFabric, filepath.Join(spoolRoot(), "1"))
		if err != nil {
			return nil, err
		}
		res.set("matrix.fabric_efficiency", wallA/(float64(workers())*b.wall.Seconds()), len(cells))
		res.set("matrix.fabric_tasks", float64(b.stats.Tasks), 1)
		s := b.stats
		res.set("matrix.fabric_recoveries", float64(s.Redispatches+s.Resumes+s.Seals+s.Steals+s.GapTasks), 1)
	}

	simLayerMetrics(res, total, byKind, n, float64(tracedWall))
	addKernels(res)
	return res, writeSpans(cfg.traceOut, spans)
}

// traceChunk caps a chunk of the traced pass where one seed has many cells.
const traceChunk = 64

// traceChunks groups cell positions by simulation seed, in first-seen order,
// splitting a seed's group every traceChunk cells.
func traceChunks(cells matrix.CellList) [][]int {
	var chunks [][]int
	open := make(map[int64]int) // seed → index of its open chunk
	for i, c := range cells {
		k, ok := open[c.Params.Seed]
		if !ok || len(chunks[k]) == traceChunk {
			k = len(chunks)
			chunks = append(chunks, nil)
			open[c.Params.Seed] = k
		}
		chunks[k] = append(chunks[k], i)
	}
	return chunks
}

// diverges compares a traced cell with what scenario.Runner reports for it
// (run with its trace digest on) and names the first difference.
func (ct *cellTrace) diverges(want *scenario.Result) string {
	switch {
	case ct.digest != want.TraceDigest:
		return fmt.Sprintf("trace digest %.12s, want %.12s", ct.digest, want.TraceDigest)
	case ct.messages != want.Messages:
		return fmt.Sprintf("%d messages, want %d", ct.messages, want.Messages)
	case ct.bytes != want.Bytes:
		return fmt.Sprintf("%d bytes, want %d", ct.bytes, want.Bytes)
	case ct.elapsed != want.Elapsed:
		return fmt.Sprintf("elapsed %v, want %v", ct.elapsed, want.Elapsed)
	case ct.consensus != want.Consensus():
		return fmt.Sprintf("consensus %t, want %t", ct.consensus, want.Consensus())
	}
	return ""
}

// simLayerMetrics turns the block's aggregated spans into the per-layer
// metrics of a simulator workload. Shares are of the traced wall (the sum of
// the cells' wall times) and sum to 1 by construction.
func simLayerMetrics(res *runResult, t *tracer, byKind map[byte]int64, cells, wall float64) {
	n := int(cells)
	share := func(l layer) float64 { return float64(t.self[l]) / wall }
	events := float64(t.count[layerDiscovery] + t.count[layerPBFT] + t.count[layerCore])
	kinds := func(ks ...byte) float64 {
		var c int64
		for _, k := range ks {
			c += byKind[k]
		}
		return float64(c)
	}

	res.set("sim.events_per_cell", events/cells, n)
	res.set("sim.dispatch_ns_per_event", ratio(float64(t.self[layerDispatch]), events), int(events))
	res.set("sim.dispatch_share", share(layerDispatch), n)
	res.set("sim.send_ns_per_msg", ratio(float64(t.self[layerSend]), float64(t.count[layerSend])), int(t.count[layerSend]))
	res.set("sim.send_share", share(layerSend), n)
	res.set("sim.settimer_share", share(layerSetTimer), n)

	res.set("discovery.msgs_per_cell", kinds(wire.KindGetPDs, wire.KindSetPDs)/cells, n)
	res.set("discovery.kib_per_cell", float64(t.sentBytes[layerDiscovery])/1024/cells, n)
	res.set("discovery.records_per_cell", float64(t.setpdsRecords)/cells, n)
	res.set("discovery.self_ns_per_msg", ratio(float64(t.self[layerDiscovery]), float64(t.count[layerDiscovery])), int(t.count[layerDiscovery]))
	res.set("discovery.share", share(layerDiscovery), n)
	res.set("discovery.fresh_ratio", ratio(float64(t.freshRecords), float64(t.setpdsRecords)), int(t.setpdsRecords))

	res.set("pbft.msgs_per_cell", kinds(wire.KindPrePrepare, wire.KindPrepare, wire.KindCommit,
		wire.KindViewChange, wire.KindNewView, wire.KindDecideNote)/cells, n)
	res.set("pbft.view_change_msgs_per_cell", kinds(wire.KindViewChange, wire.KindNewView)/cells, n)
	res.set("pbft.self_ns_per_msg", ratio(float64(t.self[layerPBFT]), float64(t.count[layerPBFT])), int(t.count[layerPBFT]))
	res.set("pbft.share", share(layerPBFT), n)

	res.set("core.poll_msgs_per_cell", kinds(wire.KindGetDecided, wire.KindDecided)/cells, n)
	res.set("core.poll_share", share(layerCore), n)

	res.set("cryptox.verify_sigs_per_cell", float64(t.verifySigs)/cells, n)
	res.set("cryptox.verify_ns_per_sig", ratio(float64(t.verifyNS), float64(t.verifySigs)), int(t.verifySigs))
	res.set("cryptox.batch_mean", ratio(float64(t.verifySigs), float64(t.verifyCalls)), int(t.verifyCalls))
	res.set("cryptox.signs_per_cell", float64(t.signs)/cells, n)
	res.set("cryptox.sign_us_mean", ratio(float64(t.signNS), float64(t.signs))/1e3, int(t.signs))
	res.set("cryptox.share", share(layerCryptox), n)

	res.set("kosr.searches_per_cell", float64(t.searches)/cells, n)
	res.set("kosr.search_us_mean", ratio(float64(t.searchNS), float64(t.searches))/1e3, int(t.searches))
	res.set("kosr.found_ratio", ratio(float64(t.found), float64(t.searches)), int(t.searches))
	res.set("kosr.share", share(layerKOSR), n)

	res.set("scenario.setup_share", share(layerScenario), n)
}
