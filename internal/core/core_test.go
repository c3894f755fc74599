package core

import (
	"math/bits"
	"testing"
	"testing/quick"

	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

func checkExact(t *testing.T, g *graph.Graph, sources map[graph.NodeID]int64) {
	t.Helper()
	want := graph.MultiSourceDijkstra(g, sources)
	got, _, _, _, err := Run(g, sources, Options{}, simnet.Congest, false)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("node %d: got %d, want %d", v, got[v], want[v])
		}
	}
}

func TestCSSPPathUnit(t *testing.T) {
	checkExact(t, graph.Path(9, graph.UnitWeights), map[graph.NodeID]int64{0: 0})
}

func TestCSSPPathWeighted(t *testing.T) {
	checkExact(t, graph.Path(9, graph.UniformWeights(20, 3)), map[graph.NodeID]int64{0: 0})
}

func TestCSSPGridMultiSource(t *testing.T) {
	checkExact(t, graph.Grid2D(5, 5, graph.UniformWeights(9, 1)),
		map[graph.NodeID]int64{0: 0, 24: 0})
}

func TestCSSPOffsets(t *testing.T) {
	checkExact(t, graph.Cycle(12, graph.UniformWeights(5, 2)),
		map[graph.NodeID]int64{0: 7, 6: 0, 3: 100})
}

func TestCSSPDisconnected(t *testing.T) {
	g := graph.Disconnected(2, 8, 3, graph.UniformWeights(5, 4), 4)
	sources := map[graph.NodeID]int64{0: 0}
	want := graph.MultiSourceDijkstra(g, sources)
	got, _, _, _, err := Run(g, sources, Options{}, simnet.Congest, false)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("node %d: got %d, want %d (unreachable must be Inf)", v, got[v], want[v])
		}
	}
}

func TestCSSPZeroWeights(t *testing.T) {
	checkExact(t, graph.RandomConnected(24, 20, graph.ZeroHeavyWeights(6, 5), 5),
		map[graph.NodeID]int64{0: 0, 12: 2})
}

func TestCSSPSingleNode(t *testing.T) {
	g := graph.New(1)
	got, _, _, _, err := Run(g, map[graph.NodeID]int64{0: 0}, Options{}, simnet.Congest, false)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatalf("got %d", got[0])
	}
}

func TestCSSPNoSources(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights)
	got, _, _, _, err := Run(g, nil, Options{}, simnet.Congest, false)
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range got {
		if d != graph.Inf {
			t.Fatalf("node %d: got %d, want Inf", v, d)
		}
	}
}

func TestCSSPMatchesReferenceRandom(t *testing.T) {
	f := func(seed int64, nRaw, wRaw uint8) bool {
		n := int(nRaw%28) + 3
		maxW := int64(wRaw%9) + 1
		g := graph.RandomConnected(n, n/2, graph.UniformWeights(maxW, seed), seed)
		off := seed % 5
		if off < 0 {
			off = -off
		}
		sources := map[graph.NodeID]int64{0: 0, graph.NodeID(n / 2): off}
		want := graph.MultiSourceDijkstra(g, sources)
		got, _, _, _, err := Run(g, sources, Options{}, simnet.Congest, false)
		if err != nil {
			t.Logf("error: %v", err)
			return false
		}
		for v := range want {
			if got[v] != want[v] {
				t.Logf("n=%d seed=%d node %d: got %d want %d", n, seed, v, got[v], want[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCSSPEpsilonVariants(t *testing.T) {
	g := graph.RandomConnected(20, 15, graph.UniformWeights(7, 9), 9)
	want := graph.Dijkstra(g, 0)
	for _, eps := range [][2]int64{{1, 4}, {1, 2}, {3, 4}} {
		got, _, _, _, err := Run(g, map[graph.NodeID]int64{0: 0}, Options{EpsNum: eps[0], EpsDen: eps[1]}, simnet.Congest, false)
		if err != nil {
			t.Fatalf("eps %v: %v", eps, err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("eps %v node %d: got %d want %d", eps, v, got[v], want[v])
			}
		}
	}
}

func TestCSSPCongestionPolylog(t *testing.T) {
	// Theorem 2.6's headline: per-edge congestion is polylog, no matter the
	// weights. Budget c·log^2(n)·log(D) with a generous constant.
	for _, n := range []int{48, 96} {
		g := graph.RandomConnected(n, n, graph.UniformWeights(int64(n), 11), 11)
		_, _, met, _, err := Run(g, map[graph.NodeID]int64{0: 0}, Options{}, simnet.Congest, false)
		if err != nil {
			t.Fatal(err)
		}
		lg := int64(bits.Len(uint(n)))
		lgD := int64(bits.Len64(uint64(n) * uint64(n)))
		budget := 60 * lg * lgD
		if met.MaxEdgeMessages > budget {
			t.Fatalf("n=%d: congestion %d exceeds %d", n, met.MaxEdgeMessages, budget)
		}
	}
}

func TestCSSPSubproblemBound(t *testing.T) {
	// Lemma 2.4: every node participates in O(log D) subproblems.
	g := graph.RandomConnected(64, 64, graph.UniformWeights(64, 13), 13)
	_, stats, _, _, err := Run(g, map[graph.NodeID]int64{0: 0}, Options{}, simnet.Congest, false)
	if err != nil {
		t.Fatal(err)
	}
	budget := 4 * stats.Levels
	for v, k := range stats.Subproblems {
		if k > budget {
			t.Fatalf("node %d in %d subproblems, budget %d (levels=%d)", v, k, budget, stats.Levels)
		}
	}
}

func TestRunSSSP(t *testing.T) {
	g := graph.Clusters(3, 8, 5, graph.UniformWeights(9, 17), 17)
	want := graph.Dijkstra(g, 5)
	got, _, _, _, err := Run(g, map[graph.NodeID]int64{5: 0}, Options{}, simnet.Congest, false)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("node %d: got %d want %d", v, got[v], want[v])
		}
	}
}

func TestCSSPRejectsBadEps(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights)
	if _, _, _, _, err := Run(g, nil, Options{EpsNum: 2, EpsDen: 2}, simnet.Congest, false); err == nil {
		t.Fatal("want error for ε >= 1")
	}
	if _, _, _, _, err := Run(g, map[graph.NodeID]int64{0: -1}, Options{}, simnet.Congest, false); err == nil {
		t.Fatal("want error for negative offset")
	}
}
