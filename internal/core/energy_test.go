package core

import (
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

func checkEnergyExact(t *testing.T, g *graph.Graph, sources map[graph.NodeID]int64) {
	t.Helper()
	want := graph.MultiSourceDijkstra(g, sources)
	got, _, met, _, err := Run(g, sources, Options{}, simnet.Sleeping, false)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("node %d: got %d, want %d", v, got[v], want[v])
		}
	}
	// The headline Theorem 1.1 shape: awake rounds far below running time.
	if met.MaxAwake*2 > met.Rounds {
		t.Fatalf("energy %d not below half the running time %d", met.MaxAwake, met.Rounds)
	}
}

func TestEnergyCSSPPath(t *testing.T) {
	checkEnergyExact(t, graph.Path(10, graph.UnitWeights), map[graph.NodeID]int64{0: 0})
}

func TestEnergyCSSPWeighted(t *testing.T) {
	checkEnergyExact(t, graph.Path(8, graph.UniformWeights(5, 3)), map[graph.NodeID]int64{0: 0})
}

func TestEnergyCSSPGridMultiSource(t *testing.T) {
	checkEnergyExact(t, graph.Grid2D(4, 4, graph.UniformWeights(3, 1)), map[graph.NodeID]int64{0: 0, 15: 1})
}

func TestEnergyCSSPRandom(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := graph.RandomConnected(14, 8, graph.UniformWeights(4, seed), seed)
		checkEnergyExact(t, g, map[graph.NodeID]int64{0: 0})
	}
}

func TestEnergyCSSPZeroWeights(t *testing.T) {
	checkEnergyExact(t, graph.Path(7, graph.ZeroHeavyWeights(3, 2)), map[graph.NodeID]int64{0: 0})
}

func TestEnergyCSSPDisconnected(t *testing.T) {
	g := graph.Disconnected(2, 6, 1, graph.UnitWeights, 3)
	want := graph.MultiSourceDijkstra(g, map[graph.NodeID]int64{0: 0})
	got, _, _, _, err := Run(g, map[graph.NodeID]int64{0: 0}, Options{}, simnet.Sleeping, false)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("node %d: got %d, want %d", v, got[v], want[v])
		}
	}
}

func TestEnergySSSPMatchesCongestVariant(t *testing.T) {
	g := graph.Cycle(12, graph.UniformWeights(3, 7))
	a, _, _, _, err := Run(g, map[graph.NodeID]int64{3: 0}, Options{}, simnet.Congest, false)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, _, err := Run(g, map[graph.NodeID]int64{3: 0}, Options{}, simnet.Sleeping, false)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d: congest %d vs energy %d", v, a[v], b[v])
		}
	}
}
