package dsssp

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"dsssp/internal/graph"
)

func TestSSSPTreeBasics(t *testing.T) {
	g := graph.Grid2D(5, 5, graph.UniformWeights(7, 3))
	res, err := SSSPTree(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(g, map[NodeID]int64{0: 0}); err != nil {
		t.Fatal(err)
	}
	want := graph.Dijkstra(g, 0)
	for v := range want {
		if res.Dist[v] != want[v] {
			t.Fatalf("dist[%d]=%d, want %d", v, res.Dist[v], want[v])
		}
	}
	// The path from the far corner must start there, end at the source,
	// and telescope the distance.
	p, err := res.PathTo(24)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 24 || p[len(p)-1] != 0 {
		t.Fatalf("path endpoints %v", p)
	}
	var total int64
	for i := 0; i+1 < len(p); i++ {
		found := false
		for _, h := range g.Adj(p[i]) {
			if h.To == p[i+1] {
				total += h.W
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("path hop %d-%d not an edge", p[i], p[i+1])
		}
	}
	if total != res.Dist[24] {
		t.Fatalf("path weight %d != dist %d", total, res.Dist[24])
	}
}

func TestCSSPTreeMultiSource(t *testing.T) {
	g := graph.Clusters(3, 6, 4, graph.UniformWeights(5, 5), 5)
	sources := map[NodeID]int64{0: 0, 10: 2}
	res, err := CSSPTree(g, sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(g, sources); err != nil {
		t.Fatal(err)
	}
}

func TestTreeUnreachable(t *testing.T) {
	g := graph.Disconnected(2, 5, 1, graph.UnitWeights, 2)
	res, err := SSSPTree(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 5; v < 10; v++ {
		if res.Dist[v] != Inf {
			t.Fatalf("unreachable node %d has finite distance %d", v, res.Dist[v])
		}
		if res.Parent[v] != -1 {
			t.Fatalf("unreachable node %d has parent %d", v, res.Parent[v])
		}
		p, err := res.PathTo(NodeID(v))
		if err == nil || p != nil {
			t.Fatalf("unreachable node %d: want a descriptive error, got path %v err %v", v, p, err)
		}
		if !strings.Contains(err.Error(), "unreachable") {
			t.Fatalf("error not descriptive: %v", err)
		}
	}
}

// TestPathToCorruptTree: a parent cycle must yield an error, not an
// unbounded loop (or a panic).
func TestPathToCorruptTree(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights)
	res, err := SSSPTree(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Parent[1], res.Parent[2] = 2, 1 // corrupt: 1↔2 cycle
	p, err := res.PathTo(3)
	if err == nil {
		t.Fatalf("corrupt tree walked to %v without error", p)
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("error not descriptive: %v", err)
	}
	if _, err := res.PathTo(99); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	// An out-of-range parent pointer must error too, not index-panic.
	res.Parent[1], res.Parent[2] = 0, 1 // restore the chain
	res.Parent[1] = 99
	if _, err := res.PathTo(3); err == nil || !strings.Contains(err.Error(), "out-of-range parent") {
		t.Fatalf("corrupt parent pointer: want descriptive error, got %v", err)
	}
}

func TestTreeProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 3
		g := graph.RandomConnected(n, n/2, graph.UniformWeights(6, seed), seed)
		res, err := SSSPTree(g, 0, nil)
		if err != nil {
			return false
		}
		return res.Verify(g, map[NodeID]int64{0: 0}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestUnsortedGraphRunsAsSorted: a graph AddEdge left unsorted gives the
// results of its sorted form, and the run leaves it unsorted. The witness
// parent is the minimum-ID witness whatever the adjacency order, so
// WitnessParents matches SSSPTree's Parent on the unsorted graph too.
func TestUnsortedGraphRunsAsSorted(t *testing.T) {
	build := func() *Graph {
		g := NewGraph(4)
		g.AddEdge(2, 3, 1)
		g.AddEdge(1, 3, 1)
		g.AddEdge(0, 1, 1)
		g.AddEdge(0, 2, 1)
		return g
	}
	g, sorted := build(), build()
	sorted.SortAdj()
	adj := func(g *Graph) [][]graph.Half {
		out := make([][]graph.Half, g.N())
		for u := range out {
			out[u] = slices.Clone(g.Adj(NodeID(u)))
		}
		return out
	}
	before := adj(g)
	for _, m := range []Model{ModelCongest, ModelSleeping} {
		got, err := SSSPTree(g, 0, &Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		want, err := SSSPTree(sorted, 0, &Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: unsorted SSSPTree differs from sorted:\n got %+v\nwant %+v", m, got, want)
		}
		if wp := WitnessParents(g, 0, got.Dist); !slices.Equal(wp, got.Parent) {
			t.Errorf("%s: WitnessParents %v, SSSPTree Parent %v", m, wp, got.Parent)
		}
		gotB, err := BFS(g, map[NodeID]bool{0: true}, 3, &Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		wantB, err := BFS(sorted, map[NodeID]bool{0: true}, 3, &Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotB, wantB) {
			t.Errorf("%s: unsorted BFS differs from sorted:\n got %+v\nwant %+v", m, gotB, wantB)
		}
	}
	gotA, err := APSP(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantA, err := APSP(sorted, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotA, wantA) {
		t.Errorf("unsorted APSP differs from sorted:\n got %+v\nwant %+v", gotA, wantA)
	}
	if !reflect.DeepEqual(adj(g), before) {
		t.Error("a run modified the caller's graph")
	}
}
