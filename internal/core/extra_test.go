package core

import (
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

// The dumbbell stresses the recursion with a long bridge between two dense
// regions — many recursion levels split across the bridge.
func TestCSSPDumbbell(t *testing.T) {
	g := graph.Dumbbell(6, 10, graph.UniformWeights(5, 3))
	checkExact(t, g, map[graph.NodeID]int64{0: 0})
}

// Polynomially large weights exercise the full log(nW) recursion depth.
func TestCSSPPolyWeights(t *testing.T) {
	g := graph.RandomConnected(24, 20, graph.UniformWeights(24*24*24, 5), 5)
	checkExact(t, g, map[graph.NodeID]int64{0: 0})
}

// All nodes as sources: dist must be 0 everywhere.
func TestCSSPAllSources(t *testing.T) {
	g := graph.Grid2D(4, 4, graph.UniformWeights(9, 7))
	sources := make(map[graph.NodeID]int64, g.N())
	for v := 0; v < g.N(); v++ {
		sources[graph.NodeID(v)] = 0
	}
	got, _, _, _, err := Run(g, sources, Options{}, simnet.Congest, false)
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range got {
		if d != 0 {
			t.Fatalf("node %d: %d, want 0", v, d)
		}
	}
}

// Determinism: two runs produce identical metrics and distances.
func TestCSSPDeterministic(t *testing.T) {
	g := graph.RandomConnected(40, 40, graph.UniformWeights(16, 11), 11)
	d1, _, m1, _, err := Run(g, map[graph.NodeID]int64{0: 0}, Options{}, simnet.Congest, false)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, m2, _, err := Run(g, map[graph.NodeID]int64{0: 0}, Options{}, simnet.Congest, false)
	if err != nil {
		t.Fatal(err)
	}
	for v := range d1 {
		if d1[v] != d2[v] {
			t.Fatalf("node %d distances differ", v)
		}
	}
	if m1.Messages != m2.Messages || m1.Rounds != m2.Rounds {
		t.Fatalf("metrics differ: %s vs %s", m1.String(), m2.String())
	}
}

// The traced variant must agree with the untraced one and actually record.
func TestCSSPTracedConsistent(t *testing.T) {
	g := graph.Cycle(10, graph.UniformWeights(3, 13))
	d1, _, m1, _, err := Run(g, map[graph.NodeID]int64{0: 0}, Options{}, simnet.Congest, false)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, m2, tr, err := Run(g, map[graph.NodeID]int64{0: 0}, Options{}, simnet.Congest, true)
	if err != nil {
		t.Fatal(err)
	}
	for v := range d1 {
		if d1[v] != d2[v] {
			t.Fatalf("node %d distances differ", v)
		}
	}
	if int64(len(tr)) != m2.Messages || m1.Messages != m2.Messages {
		t.Fatalf("trace %d entries, messages %d/%d", len(tr), m1.Messages, m2.Messages)
	}
}

// Cluster-family graphs: the recursion's component splits follow the
// natural cluster structure.
func TestCSSPClusterFamily(t *testing.T) {
	g := graph.Clusters(4, 7, 5, graph.UniformWeights(6, 17), 17)
	checkExact(t, g, map[graph.NodeID]int64{3: 0, 20: 4})
}

// A two-node graph, the smallest graph with an edge.
func TestCSSPTwoNodes(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 5)
	g.SortAdj()
	checkExact(t, g, map[graph.NodeID]int64{0: 0})
}

// Star graphs: a single hub, depth-1 recursion trees.
func TestCSSPStar(t *testing.T) {
	g := graph.Star(16, graph.UniformWeights(9, 19))
	checkExact(t, g, map[graph.NodeID]int64{5: 0})
}
