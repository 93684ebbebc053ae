package bftcup

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestDesignRules holds the module to the decisions that keep one
// implementation of each concept on the production path: deleted generations
// stay deleted, a few callees keep to the files that own them, oracles stay
// bare, each vocabulary word is spelled once. A rule reads code, never
// comments, and resolves a selector through its file's imports, so an alias
// or a method value counts as a use. Each rule then runs its cases: a red
// case must be reported, a benign one must not.
func TestDesignRules(t *testing.T) {
	tr, err := loadTree(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range designRules {
		t.Run(r.name, func(t *testing.T) {
			for _, b := range tr.breaches(r) {
				t.Error(b)
			}
			for _, c := range ruleCases {
				if c.rule != r.name {
					continue
				}
				t.Run(c.label, func(t *testing.T) {
					mixed, err := tr.with(c.path, c.src)
					if err != nil {
						t.Fatal(err)
					}
					got := mixed.breaches(r)
					if c.breach == "" {
						for _, b := range got {
							t.Errorf("benign case reported: %s", b)
						}
						return
					}
					for _, b := range got {
						if strings.Contains(b, c.path) && strings.Contains(b, c.breach) {
							return
						}
					}
					t.Errorf("red case not reported (want a breach at %s naming %q); got %q", c.path, c.breach, got)
				})
			}
		})
	}
	t.Run("ChangesEntryCap", testChangesEntryCap)
	t.Run("EveryExportHasACaller", func(t *testing.T) { testEveryExportHasACaller(t, tr) })
}

// mod is the module path; a package-level name is spelled with its
// package's import path.
const mod = "github.com/bftcup/bftcup"

// A rule holds the tree to one design decision: in the files it scopes
// (within funcs' bodies only, when set), each of its patterns must match
// exactly want uses.
type rule struct {
	name  string // the subtest
	since string // the commit that made the rule
	files scope
	funcs []string // "name", or "Recv.Name" for a method; each must be declared in scope
	match []match
	want  int
}

// A scope picks files by slash path relative to the module root: non-test
// files unless tests is set, under some prefix of in (anywhere when in is
// empty) and under none of except. A directory prefix ends in "/". The zero
// scope is every non-test file. No scope covers this file: it spells every
// banned name as data.
type scope struct {
	tests      bool
	in, except []string
}

func (s scope) covers(f *srcFile) bool {
	under := func(prefixes []string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(f.path, p) {
				return true
			}
		}
		return false
	}
	return f.path != "design_rules_test.go" && (s.tests || !f.test) && (len(s.in) == 0 || under(s.in)) && !under(s.except)
}

// A match is a pattern over uses (see use): over spelled names when idents
// is set, over string literal values when lits is set.
type match struct {
	re           *regexp.Regexp
	idents, lits bool
}

// names matches spelled names and string literal values, as a text search of
// code would; unanchored, pattern also matches inside either.
func names(pattern string) match {
	return match{re: regexp.MustCompile(pattern), idents: true, lits: true}
}

// ref matches a package-level name of the package at import path pkg:
// qualified through any import of pkg, or bare inside pkg itself, its
// declaration included.
func ref(pkg, name string) match {
	return match{re: regexp.MustCompile("^" + regexp.QuoteMeta(pkg+"."+name) + "$"), idents: true}
}

// str matches string literals whose value matches pattern.
func str(pattern string) match { return match{re: regexp.MustCompile(pattern), lits: true} }

var designRules = []rule{
	// Tombstones: deleted generations must not come back.
	{name: "SearchGenerations", since: "c232c1d",
		match: []match{names(`FromScratch|FlowProber|maskable|sinksAtG`)}},
	{name: "AllPairsKappa", since: "8533929",
		match: []match{names(`[aA]llPairs`)}},
	{name: "PoolOnlyKappa", since: "cedf0ee",
		match: []match{names(`PoolFlow|inducedOf`)}},
	{name: "CellSourceWrappers", since: "576183d",
		match: []match{names(`strideSource|subsetSource|concatSource|insecureSource|seedSweepSource|cellSubset|ServeTask|RunOrResumeStreamFile`)}},
	{name: "StreamReader", since: "e49ef2c",
		match: []match{names(`ByzParams|minPending|assignShards|hasUnknown`), ref("encoding/json", "NewDecoder")}},
	{name: "Dissemination", since: "86824fa", files: scope{tests: true, except: []string{"bench/"}},
		match: []match{names(`rrbcast|KindRRB|sentTo|IDSlice|cfg\.Delta`)}},
	{name: "ResumeInPlace", since: "d6250b4", files: scope{in: []string{"internal/", "cmd/"}},
		match: []match{names(`SpoolResumer|ResumeSpool|resumeSpool|allResume|MaxSplit|ResumeStreamFile|ParseCellList|FormatCellList`)}},
	{name: "ScenarioSpec", since: "c303e6e",
		match: []match{ref(mod+"/internal/scenario", "Spec"), names(`Spec\.Compile$|Params\.Spec$|\.ChooseAlt$`), ref(mod+"/internal/scenario", "Run")}},
	{name: "PayloadPool", since: "6b5680d",
		match: []match{names(`msgBody|acquireBody|releaseBody|bodyFree|lastBody`)}},

	// Call sites: a callee is named only in the files allowed to name it.
	// internal/core may name its own Config and NewNode bare.
	{name: "NodeAssembly", since: "aa73247",
		files: scope{except: []string{"internal/scenario/assemble.go", "internal/cryptox/", "internal/core/", "bench/"}},
		match: []match{ref(mod+"/internal/core", "Config"), ref(mod+"/internal/core", "NewNode")}},
	{name: "KeyGeneration", since: "aa73247",
		files: scope{except: []string{"internal/scenario/assemble.go", "internal/cryptox/", "bench/"}},
		match: []match{ref(mod+"/internal/cryptox", "GenerateKeys")}},
	{name: "KeyStore", since: "7dbe444", files: scope{except: []string{"internal/cryptox/", "bench/"}},
		match: []match{ref(mod+"/internal/cryptox", "Keyring")}},
	{name: "OneCryptoSuite", since: "8053508", files: scope{except: []string{"internal/cryptox/", "bench/"}},
		match: []match{ref(mod+"/internal/cryptox", "InsecureSuite"), str(`^insecure$`)}},
	{name: "FigureRegistry", since: "3c157f2", files: scope{except: []string{"internal/graph/figures.go"}},
		match: []match{ref(mod+"/internal/graph", "AllFigures")}},
	{name: "DegreeExits", since: "2a95078", files: scope{tests: true, except: []string{"internal/graph/exits.go", "internal/graph/flow.go"}},
		match: []match{names(`degreeExits`)}},
	{name: "SweepFlags", since: "576183d", files: scope{except: []string{"internal/matrix/cli.go", "bench/"}},
		match: []match{str(`^(seeds|parallel|shard|only|jsonl|resume)$`)}},
	{name: "RecordPool", since: "086c4a5", files: scope{tests: true, except: []string{"internal/discovery/", "internal/wire/", "bench/"}},
		match: []match{names(`(^|\.)Skip(IDSet|BytesField)$`)}},
	{name: "RecordDecoder", since: "e49ef2c", files: scope{in: []string{"internal/matrix/"}},
		match: []match{ref("encoding/json", "Unmarshal")}, want: 1},
	{name: "StreamRecordWriter", since: "01625b9", files: scope{in: []string{"internal/matrix/"}},
		match: []match{ref("encoding/json", "NewEncoder")}, want: 1},
	{name: "FabricKnobs", since: "01625b9", files: scope{tests: true, in: []string{"internal/", "cmd/"}},
		match: []match{names(`outcomePrefix|MaxAttempts|RetryBackoff|Backoffs|retry-backoff`)}},
	{name: "NetrtKnobs", since: "95ff158", files: scope{tests: true, in: []string{"internal/", "cmd/"}},
		match: []match{names(`QueueLen|RedialBackoff|timerRef|trackTimer`)}},
	{name: "WholeTaskRecovery", since: "8ddedb2", files: scope{tests: true, in: []string{"internal/", "cmd/"}},
		match: []match{names(`sealStreamFile|ParseSpan|SubShards|ownsAll|exitEvent|notBefore|^StreamJob\.Task$`), ref(mod+"/internal/matrix", "Task")}},
	{name: "OutcomeOrder", since: "c08b3ec", files: scope{tests: true, in: []string{"internal/matrix/"}},
		match: []match{names(`mergeStats|maxPending|streamScan|coversExactly`)}},
	{name: "GraphDefSpelling", since: "4ccdf8d", files: scope{in: []string{"cmd/"}},
		match: []match{ref(mod+"/internal/graph", "Def{}"), ref(mod+"/internal/graph", "DefKOSR"), ref(mod+"/internal/graph", "DefExtended")}},

	// Function bodies: what a body must not name.
	{name: "EngineSkipsOracle", since: "0cc0878", files: scope{in: []string{"internal/kosr/"}, except: []string{"internal/kosr/view.go"}},
		match: []match{names(`\.(DeriveS2|OutTargets|SourceCount|IsSink)$`)}},
	{name: "PlacementMarginBorrows", since: "0cc0878", files: scope{in: []string{"internal/kosr/worst.go"}},
		funcs: []string{"placementMargin"},
		match: []match{names(`\.SetPD$`)}},
	{name: "KappaOracleBare", since: "2a95078", files: scope{in: []string{"internal/graph/flow.go"}},
		funcs: []string{"Digraph.IsKStronglyConnected"},
		match: []match{names(`degreeExits|KappaAtLeast|pairHolds|\.IsKStronglyConnected$|\.HasKDisjointPaths$`)}},
	{name: "PairOraclesBare", since: "68d5696",
		files: scope{tests: true, in: []string{"internal/graph/kosr_test.go", "internal/graph/fan_test.go", "internal/kosr/oracle_test.go"}},
		funcs: []string{"checkKOSRByDigraph", "pairsHold", "kosrReasonByPairs", "pairsByFlow", "checkExtendedKOSRByPairs", "checkBFTCUPFTByPairs"},
		match: []match{names(`HasKFan|fanHolds|fanFlow|pairHolds|degreeExits|CheckKOSR$|CheckExtendedKOSR$|CheckBFTCUPF?T?$`)}},

	// Committee consensus: one certificate type, one highest-prepared scan,
	// and PBFT's wire kinds named only by the package that speaks them.
	{name: "CommitteeCert", since: "1ba2d08", files: scope{tests: true, except: []string{"bench/"}},
		match: []match{names(`(^|\.)(PreparedCert|CommitCert|chooseValue|validNewViewValue)$`)}},
	{name: "CommitteeKinds", since: "1ba2d08", files: scope{tests: true, in: []string{"internal/core/"}},
		match: []match{names(`internal/wire\.Kind(PrePrepare|Prepare|Commit|ViewChange|NewView|DecideNote)$`)}},

	// Vocabulary: each word is one literal, in its model.Names table.
	{name: "Vocabulary", since: "46fb081", files: scope{except: []string{"bench/"}}, want: 1,
		match: []match{str(`^fake-pd$`), str(`^equiv-pd$`), str(`^as-correct$`), str(`^selective-silent$`),
			str(`^collude$`), str(`^bft-cupft$`), str(`^naive$`), str(`^worst$`)}},
}

// A ruleCase feeds one synthetic source, parsed as the file at path (it
// replaces a file of that path), through a rule. A red case sets breach to
// text a breach at path must contain; a benign case leaves it empty.
type ruleCase struct {
	rule, label, path, src, breach string
}

var ruleCases = []ruleCase{
	{"SearchGenerations", "FlowProber", "internal/kosr/prober.go",
		"package kosr\ntype FlowProber struct{}", "FlowProber"},
	{"SearchGenerations", "named only in a comment", "internal/kosr/prober.go",
		"package kosr\n// FlowProber and the FromScratch search were deleted.\nvar _ = 0", ""},
	{"AllPairsKappa", "allPairs loop", "internal/graph/kappa2.go",
		"package graph\nfunc (g *Digraph) allPairsKappa() int { return 0 }", "allPairsKappa"},
	{"PoolOnlyKappa", "PoolFlow", "internal/graph/pool.go",
		"package graph\ntype PoolFlow struct{}", "PoolFlow"},
	{"CellSourceWrappers", "ServeTask method", "internal/matrix/serve.go",
		"package matrix\ntype T struct{}\nfunc (T) ServeTask() {}", "ServeTask"},
	{"StreamReader", "ByzParams", "internal/scenario/byz2.go",
		"package scenario\ntype ByzParams struct{}", "ByzParams"},
	{"StreamReader", "aliased json.NewDecoder", "internal/matrix/read2.go",
		"package matrix\nimport enc \"encoding/json\"\nvar _ = enc.NewDecoder(nil)", "encoding/json.NewDecoder"},
	{"Dissemination", "KindRRB in a test", "internal/wire/rrb_test.go",
		"package wire\nvar _ = KindRRB", "KindRRB"},
	{"Dissemination", "cfg.Delta", "internal/discovery/delta.go",
		"package discovery\nfunc f(cfg Config) bool { return cfg.Delta }", "cfg.Delta"},
	{"Dissemination", "m.cfg.Delta", "internal/discovery/delta.go",
		"package discovery\nfunc (m *Module) f() bool { return m.cfg.Delta }", "cfg.Delta"},
	{"Dissemination", "rrbcast as a test-table name", "internal/core/gossip_test.go",
		"package core\nvar modes = []string{\"rrbcast\"}", "rrbcast"},
	{"ResumeInPlace", "MaxSplit", "internal/matrix/split.go",
		"package matrix\nconst MaxSplit = 4", "MaxSplit"},
	{"ResumeInPlace", "ParseCellList", "internal/matrix/cells.go",
		"package matrix\nfunc ParseCellList(s string) ([]int, error) { return nil, nil }", "ParseCellList"},
	{"ResumeInPlace", "a CLI resuming a stream", "cmd/experiments/resume.go",
		"package main\nimport \"github.com/bftcup/bftcup/internal/matrix\"\nvar _ = matrix.ResumeStreamFile", "ResumeStreamFile"},
	{"ScenarioSpec", "Params.Spec", "internal/scenario/spec.go",
		"package scenario\nfunc (p Params) Spec() int { return 0 }", "Params.Spec"},
	{"ScenarioSpec", "scenario.Run", "cmd/cupsim/run2.go",
		"package main\nimport \"github.com/bftcup/bftcup/internal/scenario\"\nvar _ = scenario.Run", "scenario.Run"},
	{"PayloadPool", "acquireBody", "internal/sim/pool.go",
		"package sim\nfunc acquireBody() []byte { return nil }", "acquireBody"},
	{"NodeAssembly", "aliased core.Config literal", "bftcup_node.go",
		"package bftcup\nimport c \"github.com/bftcup/bftcup/internal/core\"\nvar _ = c.Config{}", "internal/core.Config"},
	{"NodeAssembly", "core.NewNode in a CLI", "cmd/cupd/node2.go",
		"package main\nimport \"github.com/bftcup/bftcup/internal/core\"\nvar _ = core.NewNode(nil, nil, core.Config{}, nil)", "internal/core.NewNode"},
	{"NodeAssembly", "core names its own Config", "internal/core/node2.go",
		"package core\nvar _ = NewNode(nil, nil, Config{}, nil)", ""},
	{"KeyGeneration", "cryptox.GenerateKeys in core", "internal/core/node2.go",
		"package core\nimport \"github.com/bftcup/bftcup/internal/cryptox\"\nvar _ = cryptox.GenerateKeys", "internal/cryptox.GenerateKeys"},
	{"KeyStore", "aliased keyring call", "internal/scenario/assemble.go",
		"package scenario\nimport cx \"github.com/bftcup/bftcup/internal/cryptox\"\nfunc k() { cx.Keyring(1, nil) }", "internal/cryptox.Keyring"},
	{"KeyStore", "keyring method value", "cmd/cupd/keys2.go",
		"package main\nimport \"github.com/bftcup/bftcup/internal/cryptox\"\nvar k = cryptox.Keyring", "internal/cryptox.Keyring"},
	{"KeyStore", "a run's own store", "internal/scenario/keys2.go",
		"package scenario\nimport \"github.com/bftcup/bftcup/internal/cryptox\"\nfunc k(keys *cryptox.Keys) { keys.Keyring(1, nil) }", ""},
	{"OneCryptoSuite", "an insecure flag in cupd", "cmd/cupd/suite.go",
		"package main\nimport \"flag\"\nvar _ = flag.Bool(\"insecure\", false, \"\")", "insecure"},
	{"OneCryptoSuite", "aliased InsecureSuite in node assembly", "internal/scenario/assemble2.go",
		"package scenario\nimport cx \"github.com/bftcup/bftcup/internal/cryptox\"\nvar _ = cx.InsecureSuite", "internal/cryptox.InsecureSuite"},
	{"OneCryptoSuite", "the benchmark harness's traced pass", "bench/simtrace2.go",
		"package main\nimport \"github.com/bftcup/bftcup/internal/cryptox\"\nvar _ = cryptox.InsecureSuite", ""},
	{"FigureRegistry", "AllFigures in a CLI", "cmd/graphgen/all.go",
		"package main\nimport \"github.com/bftcup/bftcup/internal/graph\"\nvar _ = len(graph.AllFigures())", "internal/graph.AllFigures"},
	{"DegreeExits", "degreeExits in kappa", "internal/graph/kappa_exit.go",
		"package graph\nvar _ degreeExits", "degreeExits"},
	{"DegreeExits", "degreeExits in a doc comment", "internal/graph/kappa_exit.go",
		"package graph\n// kappaFast reads degreeExits before any flow.\nfunc kappaFast() {}", ""},
	{"SweepFlags", "shard flag in experiments", "cmd/experiments/shard.go",
		"package main\nimport \"flag\"\nfunc bind(fs *flag.FlagSet) { fs.String(\"shard\", \"\", \"\") }", "shard"},
	{"RecordPool", "a second SETPDS walk in the zoo", "internal/byz/collude2.go",
		"package byz\nimport \"github.com/bftcup/bftcup/internal/wire\"\nfunc skip(rd *wire.Reader) { rd.SkipIDSet(); rd.SkipBytesField() }", "rd.SkipIDSet"},
	{"RecordPool", "discovery steps over a held record", "internal/discovery/merge2.go",
		"package discovery\nimport \"github.com/bftcup/bftcup/internal/wire\"\nfunc skip(rd *wire.Reader) { rd.SkipIDSet(); rd.SkipBytesField() }", ""},
	{"RecordDecoder", "a second json.Unmarshal", "internal/matrix/decode2.go",
		"package matrix\nimport \"encoding/json\"\nvar _ = json.Unmarshal(nil, nil)", "encoding/json.Unmarshal"},
	{"StreamRecordWriter", "a second json.NewEncoder", "internal/matrix/encode2.go",
		"package matrix\nimport \"encoding/json\"\nvar _ = json.NewEncoder(nil)", "encoding/json.NewEncoder"},
	{"StreamRecordWriter", "a test may encode", "internal/matrix/encode2_test.go",
		"package matrix\nimport \"encoding/json\"\nvar _ = json.NewEncoder(nil)", ""},
	{"FabricKnobs", "a retry-backoff flag in sweepd", "cmd/sweepd/retry.go",
		"package main\nimport \"flag\"\nvar _ = flag.Duration(\"retry-backoff\", 0, \"\")", "retry-backoff"},
	{"FabricKnobs", "the fixed policy's constants", "internal/matrix/retry.go",
		"package matrix\nconst maxAttempts, retryBase = 5, 50", ""},
	{"NetrtKnobs", "a QueueLen field in netrt's Config", "internal/netrt/config.go",
		"package netrt\ntype Config struct{ QueueLen int }", "QueueLen"},
	{"NetrtKnobs", "the queueLen constant", "internal/netrt/config.go",
		"package netrt\nconst queueLen = 1024", ""},
	{"WholeTaskRecovery", "a seal of a failed spool", "internal/matrix/seal.go",
		"package matrix\nfunc sealStreamFile(path string) (int, error) { return 0, nil }", "sealStreamFile"},
	{"WholeTaskRecovery", "sweepd printing split counts", "cmd/sweepd/stats.go",
		"package main\nimport \"github.com/bftcup/bftcup/internal/matrix\"\nfunc subs(s matrix.FabricStats) int { return s.SubShards }", "SubShards"},
	{"WholeTaskRecovery", "the retry rule and the kept counters", "internal/matrix/retry2.go",
		"package matrix\nfunc rerun(s FabricStats, sh Shard) (Shard, int) { return sh, s.Tasks + s.Seals + s.Steals + s.GapTasks }", ""},
	{"WholeTaskRecovery", "the Task wrapper back in sweepd", "cmd/sweepd/task.go",
		"package main\nimport \"github.com/bftcup/bftcup/internal/matrix\"\nvar _ = matrix.Task{Shard: matrix.Shard{}}", "internal/matrix.Task"},
	{"WholeTaskRecovery", "an exit-event channel in the coordinator", "internal/matrix/events.go",
		"package matrix\ntype exitEvent struct{ err error }\nvar events = make(chan exitEvent)", "exitEvent"},
	{"WholeTaskRecovery", "backoff state carried by a queued shard", "internal/matrix/queue.go",
		"package matrix\nimport \"time\"\ntype queued struct {\n\tsh        Shard\n\tnotBefore time.Time\n}", "notBefore"},
	{"WholeTaskRecovery", "StreamJob.Task", "internal/matrix/cli2.go",
		"package matrix\nfunc (j StreamJob) Task() (Shard, error) { return ParseShard(j.Shard) }", "StreamJob.Task"},
	{"OutcomeOrder", "a gauge of the merge's reorder buffer", "internal/matrix/merge2.go",
		"package matrix\ntype mergeStats struct{ maxPending int }", "mergeStats"},
	{"OutcomeOrder", "an index set for the coverage check", "internal/matrix/scan.go",
		"package matrix\nfunc coversExactly(done map[int]bool, want []int) bool { return len(done) == len(want) }", "coversExactly"},
	{"OutcomeOrder", "a test reading a spool's done set", "internal/matrix/scan_test.go",
		"package matrix\ntype streamScan struct{ done map[int]bool }", "streamScan"},
	{"OutcomeOrder", "the committee's message buffer cap", "internal/core/node2.go",
		"package core\nconst maxPending = 8192", ""},
	{"GraphDefSpelling", "graphgen's flag spelling of a kosr def", "cmd/graphgen/main.go",
		"package main\nimport \"github.com/bftcup/bftcup/internal/graph\"\nfunc kosr(k int) graph.Def { return graph.Def{Kind: graph.DefKOSR, K: k} }", "internal/graph.Def{}"},
	{"GraphDefSpelling", "a def parsed from its string", "cmd/graphgen/main.go",
		"package main\nimport \"github.com/bftcup/bftcup/internal/graph\"\nfunc def(s string) (graph.Def, error) { return graph.ParseDef(s) }", ""},
	{"EngineSkipsOracle", "engine calls IsSink", "internal/kosr/searcher2.go",
		"package kosr\nfunc sinkAt(v *View) bool { return v.IsSink(nil, 1) }", "v.IsSink"},
	{"PlacementMarginBorrows", "SetPD in placementMargin", "internal/kosr/worst.go",
		"package kosr\nfunc placementMargin(v *View) { v.SetPD(1, nil) }", "v.SetPD"},
	{"KappaOracleBare", "oracle calls KappaAtLeast", "internal/graph/flow.go",
		"package graph\nfunc (g *Digraph) IsKStronglyConnected(k int) bool { return g.sc.KappaAtLeast(nil, k) }", "KappaAtLeast"},
	{"PairOraclesBare", "pair oracle runs a fan", "internal/graph/fan_test.go",
		"package graph\nfunc pairsHold(sc *FlowScratch) bool { return sc.HasKFan(0, nil, 1) }", "sc.HasKFan"},
	{"CommitteeCert", "PreparedCert", "internal/pbft/cert2.go",
		"package pbft\ntype PreparedCert struct{}", "PreparedCert"},
	{"CommitteeCert", "chooseValue", "internal/pbft/choose.go",
		"package pbft\nfunc (i *Instance) chooseValue() {}", "Instance.chooseValue"},
	{"CommitteeCert", "a test named for commit certificates", "internal/pbft/cert2_test.go",
		"package pbft\nfunc TestDecideNoteNeedsCommitCert() {}", ""},
	{"CommitteeKinds", "core routes by KindCommit", "internal/core/route.go",
		"package core\nimport \"github.com/bftcup/bftcup/internal/wire\"\nvar _ = wire.KindCommit", "internal/wire.KindCommit"},
	{"CommitteeKinds", "aliased KindDecideNote in a test", "internal/core/route_test.go",
		"package core\nimport w \"github.com/bftcup/bftcup/internal/wire\"\nvar _ = w.KindDecideNote", "internal/wire.KindDecideNote"},
	{"CommitteeKinds", "core's own kinds", "internal/core/route.go",
		"package core\nimport \"github.com/bftcup/bftcup/internal/wire\"\nvar _ = wire.KindGetDecided", ""},
	{"Vocabulary", "a second collude literal", "internal/byz/collude2.go",
		"package byz\nconst kind = \"collude\"", "collude"},
	{"Vocabulary", "a test may spell it", "internal/byz/collude2_test.go",
		"package byz\nconst kind = \"collude\"", ""},
}

// testChangesEntryCap holds CHANGES.md to its entry cap (since 86824fa),
// then checks the cap on a red and a benign text.
func testChangesEntryCap(t *testing.T) {
	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range changesOverCap(string(changes)) {
		t.Error(b)
	}
	for _, c := range []struct {
		label, text string
		over        bool
	}{
		{"1,501 characters", "- PR 900: " + strings.Repeat("x", 1491) + "\n", true},
		{"a head without a colon", "- PR 902 [simplicity] " + strings.Repeat("x", 1479) + "\n", true},
		{"a bold head", "- **PR 903 · " + strings.Repeat("x", 1488) + "\n", true},
		{"1,500 runes of wider bytes, and older entries", "- PR 7: " + strings.Repeat("x", 2000) + "\n- **PR 27 · " + strings.Repeat("x", 2000) +
			"\n- PR 901: " + strings.Repeat("κ", 1490) + "\n", false},
	} {
		t.Run(c.label, func(t *testing.T) {
			if got := changesOverCap(c.text); (len(got) > 0) != c.over {
				t.Errorf("over cap = %q, want over %v", got, c.over)
			}
		})
	}
}

// changesOverCap reports each CHANGES.md entry (one line headed "- PR <n>",
// "**" allowed before "PR") longer than 1,500 characters, counted as runes.
// Entries numbered below 37 predate the cap.
func changesOverCap(changes string) []string {
	var out []string
	entry := regexp.MustCompile(`^- (?:\*\*)?PR ([0-9]+)\b`)
	for i, line := range strings.Split(changes, "\n") {
		m := entry.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		if c := utf8.RuneCountInString(line); n >= 37 && c > 1500 {
			out = append(out, fmt.Sprintf("CHANGES.md:%d: entry %d is %d characters (cap 1,500)", i+1, n, c))
		}
	}
	return out
}

// A tree is the module as the rules read it.
type tree struct {
	fset     *token.FileSet
	files    []*srcFile
	verdicts map[*regexp.Regexp]map[string]bool // shared with each tree made by with
}

// matches reports whether m matches u, keeping re's verdict on each
// spelling: every rule case rereads the tree, and the test takes 3 s without
// the memo and 0.45 s with it (2 vCPUs).
func (t tree) matches(m match, u use) bool {
	if u.lit && !m.lits || !u.lit && !m.idents {
		return false
	}
	seen := t.verdicts[m.re]
	if seen == nil {
		seen = map[string]bool{}
		t.verdicts[m.re] = seen
	}
	v, ok := seen[u.name]
	if !ok {
		v = m.re.MatchString(u.name)
		seen[u.name] = v
	}
	return v
}

// A srcFile is one parsed Go file.
type srcFile struct {
	path    string // slash path relative to the module root
	pkg     string // import path of its package, "_test" appended for an external test package
	test    bool
	ast     *ast.File
	imports map[string]string // local name → import path
	used    []use
}

// loadTree parses every .go file under root once, skipping testdata and
// dot-directories.
func loadTree(root string) (tree, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return tree{}, err
	}
	if !strings.HasPrefix(string(gomod), "module "+mod+"\n") {
		return tree{}, fmt.Errorf("go.mod does not declare module %s", mod)
	}
	t := tree{fset: token.NewFileSet(), verdicts: map[*regexp.Regexp]map[string]bool{}}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go"):
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		f, err := parseFile(t.fset, filepath.ToSlash(rel), src)
		if err != nil {
			return err
		}
		t.files = append(t.files, f)
		return nil
	})
	return t, err
}

func parseFile(fset *token.FileSet, p string, src []byte) (*srcFile, error) {
	a, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	f := &srcFile{path: p, pkg: mod, test: strings.HasSuffix(p, "_test.go"), ast: a, imports: map[string]string{}}
	if dir := path.Dir(p); dir != "." {
		f.pkg += "/" + dir
	}
	if strings.HasSuffix(a.Name.Name, "_test") {
		f.pkg += "_test"
	}
	for _, s := range a.Imports {
		ip, _ := strconv.Unquote(s.Path.Value)
		local := path.Base(ip)
		if s.Name != nil {
			local = s.Name.Name
		}
		f.imports[local] = ip
	}
	return f, nil
}

// with returns t with src parsed as the file at p.
func (t tree) with(p, src string) (tree, error) {
	f, err := parseFile(t.fset, p, []byte(src))
	if err != nil {
		return t, err
	}
	files := []*srcFile{f}
	for _, g := range t.files {
		if g.path != p {
			files = append(files, g)
		}
	}
	t.files = files
	return t, nil
}

// A use is one name in code. An identifier is spelled by what qualifies it:
// "import/path.Name" through an import, "x.Name" after x or after a selector
// ending in x (m.x.Name), ".Name" after another operand, "Recv.Name" where it
// declares a method, "pkg/path.name" bare. A composite literal of a named
// type is one more use, the type so spelled with "{}" appended.
// A string literal is its value, with lit set. Comments are not read.
type use struct {
	name string
	lit  bool
	pos  token.Pos
}

func (f *srcFile) uses() []use {
	if f.used != nil {
		return f.used
	}
	f.used = []use{}
	done := map[*ast.Ident]bool{}
	add := func(name string, lit bool, pos token.Pos) { f.used = append(f.used, use{name, lit, pos}) }
	ast.Inspect(f.ast, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.FuncDecl:
			if n.Recv != nil && len(n.Recv.List) == 1 {
				add(recvType(n.Recv.List[0].Type)+"."+n.Name.Name, false, n.Name.Pos())
				done[n.Name] = true
			}
		case *ast.SelectorExpr:
			done[n.Sel] = true
			switch x := n.X.(type) {
			case *ast.Ident:
				if ip := f.imports[x.Name]; ip != "" {
					add(ip+"."+n.Sel.Name, false, n.Sel.Pos())
					return false
				}
				add(x.Name+"."+n.Sel.Name, false, n.Sel.Pos())
			case *ast.SelectorExpr:
				add(x.Sel.Name+"."+n.Sel.Name, false, n.Sel.Pos())
			default:
				add("."+n.Sel.Name, false, n.Sel.Pos())
			}
		case *ast.Ident:
			if !done[n] {
				add(f.pkg+"."+n.Name, false, n.Pos())
			}
		case *ast.BasicLit:
			if s, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil {
				add(s, true, n.Pos())
			}
		case *ast.CompositeLit:
			switch typ := n.Type.(type) {
			case *ast.Ident:
				add(f.pkg+"."+typ.Name+"{}", false, n.Lbrace)
			case *ast.SelectorExpr:
				if x, ok := typ.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
					add(f.imports[x.Name]+"."+typ.Sel.Name+"{}", false, n.Lbrace)
				}
			}
		}
		return true
	})
	return f.used
}

// recvType names a method's receiver type: T for T, *T, T[P] and *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// funcDecl finds the declaration of function name in f, or of method name on
// receiver type recv when recv is set; nil when f declares none.
func funcDecl(f *ast.File, recv, name string) *ast.FuncDecl {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != name || (fd.Recv == nil) != (recv == "") {
			continue
		}
		if recv == "" || recvType(fd.Recv.List[0].Type) == recv {
			return fd
		}
	}
	return nil
}

// breaches reports where t departs from r.
func (t tree) breaches(r rule) []string {
	var out []string
	hits := make([][]string, len(r.match))
	found := map[string]bool{}
	for _, f := range t.files {
		if !r.files.covers(f) {
			continue
		}
		var bodies []*ast.BlockStmt
		for _, fn := range r.funcs {
			recv, name, ok := strings.Cut(fn, ".")
			if !ok {
				recv, name = "", fn
			}
			if d := funcDecl(f.ast, recv, name); d != nil && d.Body != nil {
				found[fn] = true
				bodies = append(bodies, d.Body)
			}
		}
		for _, u := range f.uses() {
			if r.funcs != nil && !inAny(u.pos, bodies) {
				continue
			}
			for i, m := range r.match {
				if t.matches(m, u) {
					hits[i] = append(hits[i], fmt.Sprintf("%s:%d: %s", f.path, t.fset.Position(u.pos).Line, u.name))
				}
			}
		}
	}
	for _, fn := range r.funcs {
		if !found[fn] {
			out = append(out, fmt.Sprintf("%s is not declared in %v", fn, r.files.in))
		}
	}
	for i, m := range r.match {
		if len(hits[i]) != r.want {
			out = append(out, fmt.Sprintf("%d uses of %s (the rule of %s allows %d): %s", len(hits[i]), m.re, r.since, r.want, strings.Join(hits[i], "; ")))
		}
	}
	return out
}

func inAny(pos token.Pos, bodies []*ast.BlockStmt) bool {
	for _, b := range bodies {
		if b.Pos() <= pos && pos < b.End() {
			return true
		}
	}
	return false
}

// exportAllowed names, as "pkg.Func" or "pkg.Recv.Method", each exported
// func or method outside bench/ that no non-test code calls, with the reason
// it stays.
var exportAllowed = map[string]string{
	"bftcup.Figure1a":   "root API: the library's public surface",
	"bftcup.Figure3a":   "root API: the library's public surface",
	"bftcup.Figure4a":   "root API: the library's public surface",
	"bftcup.Figure4b":   "root API: the library's public surface",
	"bftcup.RandomKOSR": "root API: the library's public surface",

	"graph.Digraph.HasEdge":             "map-based oracle the bitset engine is tested against (ROADMAP item 18)",
	"graph.Digraph.In":                  "map-based oracle the bitset engine is tested against (ROADMAP item 18)",
	"graph.Digraph.OutDegree":           "map-based oracle the bitset engine is tested against (ROADMAP item 18)",
	"graph.Digraph.UndirectedConnected": "map-based oracle the bitset engine is tested against (ROADMAP item 18)",
	"graph.Digraph.UniqueSink":          "map-based oracle the bitset engine is tested against (ROADMAP item 18)",
	"graph.Digraph.DirectedCore":        "map-based oracle the bitset engine is tested against (ROADMAP item 18)",
	"graph.Digraph.StrongConnectivity":  "map-based oracle the bitset engine is tested against (ROADMAP item 18)",
	"kosr.View.IsSink":                  "literal sink predicate the search engine is tested against (ROADMAP item 18)",

	"matrix.Materialize":     "bench/trace_test.go expands a sweep through it; bench/ changes only in a benchmark PR",
	"cryptox.Registry.Stats": "the verify-memo counters; tests pin them, and ROADMAP item 2 will report them",

	"graph.AllFigures":            "test seam: the figure tests of graph, kosr and scenario walk every figure (rule FigureRegistry)",
	"kosr.FullView":               "test seam: kosr's and the root package's tests build a view of a whole graph",
	"kosr.Searcher.SinksAtGExact": "test seam: the exhaustive per-g sink list the search tests compare against",
	"kosr.View.Rev":               "test seam: discovery's tests read a view's revision",
	"kosr.View.Gen":               "test seam: the searcher's memo tests read a view's generation",
	"model.IDSet.Intersect":       "test seam: five packages' tests intersect ID sets",
	"model.IDSet.Key":             "test seam: graph's and kosr's tests key sets by their members",
	"scenario.AllExperiments":     "test seam: scenario's and matrix's tests walk the whole paper suite",
	"sim.Engine.Crash":            "test seam: four packages' tests crash a process",
	"sim.splitmix64.Int63":        "implements rand.Source; math/rand calls it",
}

// testEveryExportHasACaller holds every exported func and method declared
// in a non-test file outside bench/ to a non-test caller, or to a reason on
// exportAllowed, and reports an entry there that names no uncalled export;
// then it checks the rule on red and benign trees. The check is
// by name: a method counts as called when any non-test code calls a method
// of that name on any type, so it misses a dead method whose name another
// type's live method shares.
func testEveryExportHasACaller(t *testing.T, tr tree) {
	for _, b := range tr.uncalledExports() {
		t.Error(b)
	}
	for _, c := range []struct {
		label  string
		files  [][2]string // path, source
		breach string
	}{
		{"nothing calls it", [][2]string{{"internal/graph/orphan.go", "package graph\nfunc Orphan() {}"}}, "graph.Orphan has"},
		{"only a test calls it", [][2]string{
			{"internal/graph/orphan.go", "package graph\ntype T struct{}\nfunc (T) Orphan() {}"},
			{"internal/graph/orphan_test.go", "package graph\nvar _ = T{}.Orphan"},
		}, "graph.T.Orphan has"},
		{"an allowed oracle gains a caller", [][2]string{
			{"cmd/graphgen/sink.go", "package main\nimport \"github.com/bftcup/bftcup/internal/graph\"\nvar _ = (*graph.Digraph).UniqueSink"},
		}, "names graph.Digraph.UniqueSink,"},
		{"the benchmark calls it", [][2]string{
			{"internal/graph/orphan.go", "package graph\nfunc Orphan() {}"},
			{"bench/orphan.go", "package main\nimport \"github.com/bftcup/bftcup/internal/graph\"\nvar _ = graph.Orphan"},
		}, ""},
	} {
		t.Run(c.label, func(t *testing.T) {
			mixed := tr
			for _, f := range c.files {
				var err error
				if mixed, err = mixed.with(f[0], f[1]); err != nil {
					t.Fatal(err)
				}
			}
			got := mixed.uncalledExports()
			if c.breach == "" {
				if len(got) > 0 {
					t.Errorf("benign case reported: %q", got)
				}
				return
			}
			for _, b := range got {
				if strings.Contains(b, c.breach) {
					return
				}
			}
			t.Errorf("red case not reported (want %s); got %q", c.breach, got)
		})
	}
}

// uncalledExports reports each exported func or method declared in a
// non-test file outside bench/ whose name no non-test file uses, bench/
// included, other than at its own declaration, and that exportAllowed does
// not name; and each entry of exportAllowed that names no such func.
func (t tree) uncalledExports() []string {
	decls := map[token.Pos]bool{}
	for _, f := range t.files {
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decls[fd.Name.Pos()] = true
			}
		}
	}
	called := map[string]bool{}
	for _, f := range t.files {
		if f.test {
			continue
		}
		for _, u := range f.uses() {
			if !u.lit && !decls[u.pos] {
				called[u.name[strings.LastIndex(u.name, ".")+1:]] = true
			}
		}
	}
	var out []string
	uncalled := map[string]bool{}
	for _, f := range t.files {
		if f.test || strings.HasPrefix(f.path, "bench/") {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || called[fd.Name.Name] {
				continue
			}
			key := path.Base(f.pkg) + "." + fd.Name.Name
			if fd.Recv != nil {
				key = path.Base(f.pkg) + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			if exportAllowed[key] == "" {
				out = append(out, fmt.Sprintf("%s:%d: %s has no non-test caller", f.path, t.fset.Position(fd.Pos()).Line, key))
			}
			uncalled[key] = true
		}
	}
	for key := range exportAllowed {
		if !uncalled[key] {
			out = append(out, fmt.Sprintf("exportAllowed names %s, which is not an uncalled export", key))
		}
	}
	return out
}
