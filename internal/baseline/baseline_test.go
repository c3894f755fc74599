package baseline

import (
	"testing"
	"testing/quick"

	"dsssp/internal/graph"
)

func TestBellmanFordPath(t *testing.T) {
	g := graph.Path(10, graph.UniformWeights(5, 1))
	want := graph.Dijkstra(g, 0)
	got, met, err := BellmanFord(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("d[%d]=%d, want %d", v, got[v], want[v])
		}
	}
	if met.Rounds > int64(g.N())+2 {
		t.Fatalf("rounds %d exceed n+2", met.Rounds)
	}
}

func TestBellmanFordMatchesReference(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 3
		g := graph.RandomConnected(n, n, graph.UniformWeights(9, seed), seed)
		want := graph.Dijkstra(g, 0)
		got, _, err := BellmanFord(g, 0)
		if err != nil {
			return false
		}
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBellmanFordCongestionGrows(t *testing.T) {
	// Worst-case gadget: a unit-weight path 0..k plus a sink adjacent to
	// every path node i with weight 2(k-i)+1, so the sink's estimate
	// improves at every hop of the path wave and is re-broadcast each time:
	// per-edge congestion grows linearly with n.
	k := 40
	g := graph.New(k + 2)
	for i := 0; i < k; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	sink := graph.NodeID(k + 1)
	for i := 0; i <= k; i++ {
		g.AddEdge(graph.NodeID(i), sink, int64(2*(k-i)+1))
	}
	g.SortAdj()
	got, met, err := BellmanFord(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.Dijkstra(g, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("d[%d]=%d, want %d", v, got[v], want[v])
		}
	}
	if met.MaxEdgeMessages < int64(k/2) {
		t.Fatalf("expected Θ(n) congestion, got %d", met.MaxEdgeMessages)
	}
}

func TestDijkstraMatchesReference(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%25) + 3
		g := graph.RandomConnected(n, n/2, graph.UniformWeights(9, seed), seed)
		want := graph.Dijkstra(g, 0)
		got, _, err := Dijkstra(g, 0)
		if err != nil {
			return false
		}
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraDisconnected(t *testing.T) {
	g := graph.Disconnected(2, 8, 2, graph.UniformWeights(5, 3), 3)
	got, _, err := Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.Dijkstra(g, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("d[%d]=%d, want %d", v, got[v], want[v])
		}
	}
}

func TestDijkstraTimeScalesWithNTimesD(t *testing.T) {
	// On a path, D = n-1, so distributed Dijkstra needs Ω(n·D) = Ω(n^2)
	// rounds — the weakness our CSSP avoids.
	g := graph.Path(32, graph.UnitWeights)
	_, met, err := Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if met.Rounds < int64(32*32) {
		t.Fatalf("rounds=%d, expected Ω(n^2) on a path", met.Rounds)
	}
}

func TestAlwaysAwakeBFS(t *testing.T) {
	g := graph.Grid2D(8, 8, graph.UnitWeights)
	want := graph.BFSDist(g, 0)
	got, met, err := AlwaysAwakeBFS(g, map[graph.NodeID]bool{0: true}, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("d[%d]=%d, want %d", v, got[v], want[v])
		}
	}
	// Energy equals time for the naive baseline.
	if met.MaxAwake != met.Rounds {
		t.Fatalf("maxAwake=%d rounds=%d: baseline should be awake throughout", met.MaxAwake, met.Rounds)
	}
	if met.LostMessages != 0 {
		t.Fatalf("always-awake baseline lost %d messages", met.LostMessages)
	}
}
