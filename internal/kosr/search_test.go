package kosr

import (
	"math/rand"
	"testing"

	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
)

func TestCandidateParameters(t *testing.T) {
	c := Candidate{G: 1, S1: ids(1, 2, 3), S2: ids(4)}
	if !c.Members().Equal(ids(1, 2, 3, 4)) {
		t.Fatalf("Members = %v", c.Members())
	}
	if q := c.QuorumSize(); q != 3 { // ⌈(4+1+1)/2⌉
		t.Fatalf("QuorumSize = %d, want 3", q)
	}
	if a := c.AnswerThreshold(); a != 3 { // ⌈(4+1)/2⌉... ⌈5/2⌉ = 3
		t.Fatalf("AnswerThreshold = %d, want 3", a)
	}
	// Classic PBFT sizing: |S| = 3f+1 = 7, g = 2 ⇒ quorum 5 = 2f+1.
	c2 := Candidate{G: 2, S1: ids(1, 2, 3, 4, 5, 6, 7), S2: ids()}
	if q := c2.QuorumSize(); q != 5 {
		t.Fatalf("QuorumSize(7,2) = %d, want 5", q)
	}
}

// Every g=1 candidate on the full Fig 1b view has the same member union
// {1,2,3,4}: the Sink algorithm's answer is partition-independent
// (Theorem 4).
func TestSinksAtGUnionUniqueFig1b(t *testing.T) {
	v := FullView(graph.Fig1b().G)
	cands := sinksAtG(v, 1)
	if len(cands) == 0 {
		t.Fatal("no g=1 sinks on Fig 1b")
	}
	for _, c := range cands {
		if !c.Members().Equal(ids(1, 2, 3, 4)) {
			t.Fatalf("candidate %v∪%v != {1,2,3,4}", c.S1, c.S2)
		}
	}
	c, ok := findSinkKnownF(v, 1)
	if !ok || !c.Members().Equal(ids(1, 2, 3, 4)) {
		t.Fatalf("FindSinkKnownF = %+v, %v", c, ok)
	}
}

// The Sink algorithm terminates even when the Byzantine sink member stays
// silent: S2 absorbs it.
func TestFindSinkSilentByzantine(t *testing.T) {
	fig := graph.Fig1b()
	v := NewView()
	// Correct processes 1,2,3 exchanged PDs; 4 never spoke.
	for _, id := range []model.ID{1, 2, 3} {
		v.PD[id] = fig.G.OutSet(id).Clone()
	}
	v.Known = ids(1, 2, 3, 4)
	c, ok := findSinkKnownF(v, 1)
	if !ok {
		t.Fatal("sink not found with silent Byzantine member")
	}
	if !c.S1.Equal(ids(1, 2, 3)) || !c.S2.Equal(ids(4)) {
		t.Fatalf("partition = %v / %v", c.S1, c.S2)
	}
}

// Too little knowledge: with only two PDs received there is no sink at f=1,
// so the algorithm keeps waiting (Algorithm 2's wait-until).
func TestFindSinkInsufficientView(t *testing.T) {
	fig := graph.Fig1b()
	v := NewView()
	v.PD[1] = fig.G.OutSet(1).Clone()
	v.PD[2] = fig.G.OutSet(2).Clone()
	v.Known = ids(1, 2, 3, 4)
	if _, ok := findSinkKnownF(v, 1); ok {
		t.Fatal("sink found with |received| = 2 < 2f+1")
	}
}

func TestFindCoreFigures(t *testing.T) {
	cases := []struct {
		fig  graph.Figure
		want model.IDSet
		g    int
	}{
		{graph.Fig4a(), ids(1, 2, 3, 4), 1},
		{graph.Fig4b(), func() model.IDSet {
			s := model.NewIDSet()
			for i := model.ID(8); i <= 15; i++ {
				s.Add(i)
			}
			return s
		}(), 3},
	}
	for _, c := range cases {
		v := FullView(c.fig.G)
		got, ok := findCore(v)
		if !ok {
			t.Fatalf("%s: FindCore did not terminate on the full view", c.fig.Name)
		}
		if !got.Members().Equal(c.want) {
			t.Fatalf("%s: core = %v, want %v", c.fig.Name, got.Members(), c.want)
		}
		if got.G != c.g {
			t.Fatalf("%s: g = %d, want %d", c.fig.Name, got.G, c.g)
		}
	}
}

// The Theorem 7 construction: the A-side view finds committee {1,2,3,4}, the
// B-side view finds {5,6,7,8} — disjoint committees, hence the Agreement
// violation that the scenario-level experiment reproduces end to end.
func TestFindCoreFig2cSplitBrain(t *testing.T) {
	fig := graph.Fig2c()
	va := NewView()
	for _, id := range []model.ID{1, 2, 3} {
		va.PD[id] = fig.G.OutSet(id).Clone()
	}
	va.Known = ids(1, 2, 3, 4)
	ca, ok := findCore(va)
	if !ok || !ca.Members().Equal(ids(1, 2, 3, 4)) {
		t.Fatalf("A-side core = %+v, %v", ca, ok)
	}
	vb := NewView()
	for _, id := range []model.ID{6, 7, 8} {
		vb.PD[id] = fig.G.OutSet(id).Clone()
	}
	vb.Known = ids(5, 6, 7, 8)
	cb, ok := findCore(vb)
	if !ok || !cb.Members().Equal(ids(5, 6, 7, 8)) {
		t.Fatalf("B-side core = %+v, %v", cb, ok)
	}
	if ca.Members().Intersect(cb.Members()).Len() != 0 {
		t.Fatal("expected disjoint committees")
	}
}

// Fig 3a: the false sink found by {1,2,3,4,6} has HIGHER connectivity than
// the true sink — exactly why C1 excludes such graphs from extended k-OSR.
func TestFindCoreFig3aFalseSink(t *testing.T) {
	fig := graph.Fig3a()
	// View of the F-side with Byzantine 1 cooperating, {5,7,8} silent.
	vf := NewView()
	for _, id := range []model.ID{1, 2, 3, 4, 6} {
		vf.PD[id] = fig.G.OutSet(id).Clone()
	}
	vf.Known = ids(1, 2, 3, 4, 5, 6, 7)
	cf, ok := findCore(vf)
	if !ok {
		t.Fatal("F-side core not found")
	}
	if cf.G != 2 || !cf.Members().Equal(ids(1, 2, 3, 4, 5, 6, 7)) {
		t.Fatalf("F-side core = g=%d %v", cf.G, cf.Members())
	}
	// View of the true sink {5,7,8}: they know nobody outside.
	vk := NewView()
	for _, id := range []model.ID{5, 7, 8} {
		vk.PD[id] = fig.G.OutSet(id).Clone()
	}
	vk.Known = ids(5, 7, 8)
	ck, ok := findCore(vk)
	if !ok || ck.G != 1 || !ck.Members().Equal(ids(5, 7, 8)) {
		t.Fatalf("K-side core = %+v, %v", ck, ok)
	}
}

// FindNaive takes the LOWEST g: on the full Fig 4a view the whole strongly
// connected graph is a 0-sink, so the naive rule returns the wrong committee
// while FindCore returns the true core.
func TestFindNaiveDiffersFromCore(t *testing.T) {
	v := FullView(graph.Fig4a().G)
	naive, ok := findNaive(v)
	if !ok {
		t.Fatal("naive sink not found")
	}
	if naive.G != 0 || naive.Members().Len() != 8 {
		t.Fatalf("naive = g=%d %v, want g=0 with all 8 nodes", naive.G, naive.Members())
	}
	core, ok := findCore(v)
	if !ok || !core.Members().Equal(ids(1, 2, 3, 4)) {
		t.Fatalf("core = %+v, %v", core, ok)
	}
}

// Planted-sink recovery on random k-OSR graphs (full views, no faults):
// FindSinkKnownF(f) returns exactly the planted sink.
func TestFindSinkPlantedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		f := rng.Intn(3)
		k := f + 1
		spec := graph.GenSpec{
			SinkSize:    2*f + 1 + rng.Intn(3),
			NonSinkSize: rng.Intn(5),
			K:           k,
			ExtraEdgeP:  rng.Float64() * 0.25,
		}
		if spec.SinkSize != 1 && spec.SinkSize < k+1 {
			spec.SinkSize = k + 1
		}
		g, sink, err := graph.GenKOSR(rng, spec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		v := FullView(g)
		c, ok := findSinkKnownF(v, f)
		if !ok {
			t.Fatalf("trial %d (f=%d): no sink found\n%s", trial, f, g)
		}
		if !c.Members().Equal(sink) {
			t.Fatalf("trial %d (f=%d): sink = %v, want %v\n%s", trial, f, c.Members(), sink, g)
		}
	}
}

// Planted-core recovery on random extended k-OSR graphs.
func TestFindCorePlantedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		spec := graph.GenSpec{
			SinkSize:    3 + rng.Intn(6),
			NonSinkSize: rng.Intn(6),
			ExtraEdgeP:  rng.Float64() * 0.25,
		}
		g, core, fG, err := graph.GenExtendedKOSR(rng, spec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		v := FullView(g)
		c, ok := findCore(v)
		if !ok {
			t.Fatalf("trial %d: no core found\n%s", trial, g)
		}
		if !c.Members().Equal(core) {
			t.Fatalf("trial %d: core = %v, want %v\n%s", trial, c.Members(), core, g)
		}
		if c.G != fG {
			t.Fatalf("trial %d: g = %d, want %d", trial, c.G, fG)
		}
	}
}

// Views only ever grow during Discovery; once the full view identifies the
// core, prefixes of knowledge must never identify a DIFFERENT core with g at
// least as high (they may simply not terminate yet). This guards the
// top-down search order.
func TestFindCoreMonotoneOnFig4b(t *testing.T) {
	fig := graph.Fig4b()
	full := FullView(fig.G)
	want, ok := findCore(full)
	if !ok {
		t.Fatal("full view must find the core")
	}
	order := fig.G.Nodes()
	v := NewView()
	v.Known = fig.G.NodeSet()
	for _, id := range order {
		v.PD[id] = fig.G.OutSet(id).Clone()
		if c, ok := findCore(v); ok && c.G >= want.G {
			if !c.Members().Equal(want.Members()) {
				t.Fatalf("partial view after %v found core %v (g=%d), full view says %v (g=%d)",
					id, c.Members(), c.G, want.Members(), want.G)
			}
		}
	}
}

func TestMaxG(t *testing.T) {
	v := NewView()
	if v.MaxG() != 0 {
		// (0-1)/2 in Go is 0 with integer division of -1/2 = 0.
		t.Fatalf("MaxG on empty view = %d", v.MaxG())
	}
	v2 := FullView(graph.Fig1b().G)
	if v2.MaxG() != 3 {
		t.Fatalf("MaxG on 8 received = %d, want 3", v2.MaxG())
	}
}

// Theorem 4 as a property. The paper claims every partition (S1, S2)
// satisfying isSink unions to exactly the sink members. Property testing
// found a counterexample to the "all sink members" half (see DESIGN.md §2c):
// a sink member pointed at by ≤ f members of a particular S1 can be dropped,
// because the proof's "f+1 distinct first-outside vertices" argument fails
// when node-disjoint paths exit S1 directly into the missing member itself.
// What IS invariant, and what the protocol relies on:
//
//	(a) every partition's union contains ONLY sink members;
//	(b) every partition's union has ≥ 2f+1 members (so quorums of any two
//	    unions intersect in ≥ f+1 processes of the shared sink);
//	(c) the canonical full-partition (S1 = all received sink members)
//	    recovers the planted sink exactly.
func TestTheorem4UnionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for trial := 0; trial < 25; trial++ {
		f := 1 + rng.Intn(2)
		spec := graph.GenSpec{
			SinkSize:    2*f + 1 + rng.Intn(3),
			NonSinkSize: rng.Intn(4),
			K:           f + 1,
			ExtraEdgeP:  0.3,
		}
		g, sink, err := graph.GenKOSR(rng, spec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		v := FullView(g)
		cands := sinksAtG(v, f)
		if len(cands) == 0 {
			t.Fatalf("trial %d: no sink at f=%d", trial, f)
		}
		sawFull := false
		for _, c := range cands {
			m := c.Members()
			if !m.SubsetOf(sink) {
				t.Fatalf("trial %d: partition S1=%v S2=%v unions to %v ⊄ sink %v\n%s",
					trial, c.S1, c.S2, m, sink, g)
			}
			if m.Len() < 2*f+1 {
				t.Fatalf("trial %d: union %v smaller than 2f+1", trial, m)
			}
			if m.Equal(sink) {
				sawFull = true
			}
		}
		if !sawFull {
			t.Fatalf("trial %d: no partition recovered the full sink %v", trial, sink)
		}
	}
}

// Partial views that satisfy the wait-condition before full convergence must
// still return the planted sink (Scenario II of Section III: up to f sink
// members' PDs may be missing).
func TestSinkWithMissingPDs(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 25; trial++ {
		f := 1 + rng.Intn(2)
		spec := graph.GenSpec{
			SinkSize:    2*f + 2 + rng.Intn(2),
			NonSinkSize: 0,
			K:           f + 1,
			ExtraEdgeP:  0.4,
		}
		g, sink, err := graph.GenKOSR(rng, spec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Remove up to f received PDs (the "silent" members D of Scenario II).
		v := FullView(g)
		silent := model.NewIDSet()
		sorted := sink.Sorted()
		for len(silent) < f {
			id := sorted[rng.Intn(len(sorted))]
			silent.Add(id)
			delete(v.PD, id)
		}
		c, ok := findSinkKnownF(v, f)
		if !ok {
			// Allowed: the view may genuinely not satisfy the condition yet
			// (e.g. the remaining members' connectivity dropped below f+1).
			continue
		}
		if !c.Members().Equal(sink) {
			t.Fatalf("trial %d: with silent %v got %v, want %v\n%s", trial, silent, c.Members(), sink, g)
		}
		if inter := c.S2.Intersect(silent); inter.Len() != silent.Len() {
			t.Fatalf("trial %d: silent members %v not all absorbed into S2=%v", trial, silent, c.S2)
		}
	}
}
