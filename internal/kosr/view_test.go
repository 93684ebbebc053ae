package kosr

import (
	"testing"

	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
)

func ids(xs ...model.ID) model.IDSet { return model.NewIDSet(xs...) }

func TestFullView(t *testing.T) {
	fig := graph.Fig1b()
	v := FullView(fig.G)
	if !v.Received().Equal(fig.G.NodeSet()) {
		t.Fatalf("received = %v", v.Received())
	}
	if !v.Known.Equal(fig.G.NodeSet()) {
		t.Fatalf("known = %v", v.Known)
	}
	if !v.PD[1].Equal(ids(2, 3, 4)) {
		t.Fatalf("PD(1) = %v, want {2,3,4} per the paper's caption", v.PD[1])
	}
}

func TestOutTargetsAndSourceCount(t *testing.T) {
	v := FullView(graph.Fig1b().G)
	s1 := ids(1, 2, 3)
	if tg := v.OutTargets(s1); !tg.Equal(ids(4)) {
		t.Fatalf("OutTargets({1,2,3}) = %v, want {4}", tg)
	}
	if n := v.SourceCount(s1, 4); n != 3 {
		t.Fatalf("SourceCount = %d, want 3", n)
	}
	if n := v.SourceCount(s1, 5); n != 0 {
		t.Fatalf("SourceCount of non-target = %d, want 0", n)
	}
}

// The Section III worked example: on Fig 1b, process 2 is slow and Byzantine
// process 4 sends PD = {1,2,3}. Process 1's view then satisfies
// isSink(1, {1,3,4}, {2}), and the Sink algorithm returns {1,2,3,4}.
func TestPaperWorkedExampleFig1b(t *testing.T) {
	v := NewView()
	v.Known = ids(1, 2, 3, 4)
	v.PD[1] = ids(2, 3, 4)
	v.PD[3] = ids(1, 2, 4)
	v.PD[4] = ids(1, 2, 3) // Byzantine claim
	if !v.IsSink(1, ids(1, 3, 4), ids(2)) {
		t.Fatal("isSink(1, {1,3,4}, {2}) should hold")
	}
	c, ok := findSinkKnownF(v, 1)
	if !ok {
		t.Fatal("Sink algorithm should terminate in this view")
	}
	if !c.Members().Equal(ids(1, 2, 3, 4)) {
		t.Fatalf("sink = %v, want {1,2,3,4}", c.Members())
	}
	if !c.S2.Equal(ids(2)) {
		t.Fatalf("S2 = %v, want {2}", c.S2)
	}
}

// Section IV's arithmetic: isSink(1, {1,2,3}, {4}) on system A and
// isSink(1, {6,7,8}, {5}) on system B.
func TestPaperImpossibilityArithmetic(t *testing.T) {
	va := FullView(graph.Fig2a().G)
	if !va.IsSink(1, ids(1, 2, 3), ids(4)) {
		t.Fatal("isSink(1, {1,2,3}, {4}) should hold on system A")
	}
	vb := FullView(graph.Fig2b().G)
	if !vb.IsSink(1, ids(6, 7, 8), ids(5)) {
		t.Fatal("isSink(1, {6,7,8}, {5}) should hold on system B")
	}
}

// Observation 1's example on Fig 3a: isSink(2, {1,2,3,4,6}, {5,7}) holds even
// though {1,2,3,4,6} are non-sink members.
func TestPaperFalseSinkArithmetic(t *testing.T) {
	v := FullView(graph.Fig3a().G)
	if !v.IsSink(2, ids(1, 2, 3, 4, 6), ids(5, 7)) {
		t.Fatal("isSink(2, {1,2,3,4,6}, {5,7}) should hold on Fig 3a")
	}
	// And the true sink satisfies isSink(1, {5,7,8}, ∅).
	if !v.IsSink(1, ids(5, 7, 8), ids()) {
		t.Fatal("isSink(1, {5,7,8}, ∅) should hold on Fig 3a")
	}
}

func TestIsSinkRejections(t *testing.T) {
	v := FullView(graph.Fig1b().G)
	cases := []struct {
		name string
		g    int
		s1   model.IDSet
		s2   model.IDSet
	}{
		{"negative g", -1, ids(1, 2, 3), ids()},
		{"S1 too small for g", 2, ids(1, 2, 3), ids(4)},
		{"wrong S2", 1, ids(1, 2, 3), ids()},
		{"S2 contains non-target", 1, ids(1, 2, 3), ids(4, 5)},
		{"too many escape targets", 0, ids(1, 2, 3), ids()},
		{"unreceived member of S1", 1, ids(1, 2, 9), ids()},
	}
	for _, c := range cases {
		if v.IsSink(c.g, c.s1, c.s2) {
			t.Errorf("%s: isSink unexpectedly true", c.name)
		}
	}
}

// A singleton with no outgoing knowledge is a 0-sink (κ convention).
func TestIsSinkSingleton(t *testing.T) {
	v := NewView()
	v.Known = ids(1)
	v.PD[1] = ids()
	if !v.IsSink(0, ids(1), ids()) {
		t.Fatal("lone process should be a 0-sink")
	}
	c, ok := findCore(v)
	if !ok || !c.Members().Equal(ids(1)) || c.G != 0 {
		t.Fatalf("FindCore on singleton = %+v, %v", c, ok)
	}
}

func TestIsSinkConnectivityMatters(t *testing.T) {
	// {1,2,3} with only a directed 3-cycle has κ=1 < g+1 for g=1.
	g := graph.New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1)
	v := FullView(g)
	if v.IsSink(1, ids(1, 2, 3), ids()) {
		t.Fatal("3-cycle has κ=1 and must fail g=1")
	}
	if !v.IsSink(0, ids(1, 2, 3), ids()) {
		t.Fatal("3-cycle should pass g=0")
	}
}

func TestReceivedGraphRestrictsToReceived(t *testing.T) {
	v := NewView()
	v.Known = ids(1, 2, 3)
	v.PD[1] = ids(2, 3)
	v.PD[2] = ids(1)
	rg := v.ReceivedGraph()
	if rg.HasNode(3) {
		t.Fatal("node 3 has no received PD and must not be in the received graph")
	}
	if !rg.HasEdge(1, 2) || !rg.HasEdge(2, 1) {
		t.Fatal("received edges missing")
	}
}

func TestDeriveS2Threshold(t *testing.T) {
	v := NewView()
	v.Known = ids(1, 2, 3, 4, 5)
	v.PD[1] = ids(2, 4)
	v.PD[2] = ids(1, 4, 5)
	v.PD[3] = ids(1, 2)
	s1 := ids(1, 2, 3)
	// 4 has two sources (1,2); 5 has one source (2).
	if s2 := v.DeriveS2(s1, 1); !s2.Equal(ids(4)) {
		t.Fatalf("DeriveS2(g=1) = %v, want {4}", s2)
	}
	if s2 := v.DeriveS2(s1, 0); !s2.Equal(ids(4, 5)) {
		t.Fatalf("DeriveS2(g=0) = %v, want {4,5}", s2)
	}
	if s2 := v.DeriveS2(s1, 2); s2.Len() != 0 {
		t.Fatalf("DeriveS2(g=2) = %v, want empty", s2)
	}
}
