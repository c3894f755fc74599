package graph

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want 5,0", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	id := g.AddEdge(0, 1, 7)
	if id != 0 {
		t.Fatalf("first edge id = %d, want 0", id)
	}
	id = g.AddEdge(1, 2, 3)
	if id != 1 {
		t.Fatalf("second edge id = %d, want 1", id)
	}
	if g.M() != 2 {
		t.Fatalf("m = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge inconsistent")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"self-loop", func() { New(2).AddEdge(1, 1, 1) }},
		{"out-of-range", func() { New(2).AddEdge(0, 2, 1) }},
		{"negative-weight", func() { New(2).AddEdge(0, 1, -1) }},
		{"negative-n", func() { New(-1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.f()
		})
	}
}

func TestAddEdgeKeepMin(t *testing.T) {
	g := New(4)
	first := g.AddEdge(0, 1, 7)
	// Same pair, either orientation: the existing edge is kept, M() stays
	// put, and the weight canonicalizes to the minimum seen.
	if id := g.AddEdge(1, 0, 9); id != first {
		t.Fatalf("duplicate (heavier) returned id %d, want %d", id, first)
	}
	if w := g.Adj(0)[0].W; w != 7 {
		t.Fatalf("heavier duplicate changed weight to %d, want 7", w)
	}
	if id := g.AddEdge(0, 1, 3); id != first {
		t.Fatalf("duplicate (lighter) returned id %d, want %d", id, first)
	}
	if g.M() != 1 {
		t.Fatalf("m = %d after duplicates, want 1", g.M())
	}
	// Both halves must agree on the canonical minimum.
	for _, u := range []NodeID{0, 1} {
		if w := g.Adj(u)[0].W; w != 3 {
			t.Fatalf("node %d half weight = %d, want 3", u, w)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Unrelated edges still get fresh IDs after a merge.
	if id := g.AddEdge(2, 3, 1); id != 1 {
		t.Fatalf("post-merge fresh edge id = %d, want 1", id)
	}

	// A hub and a leaf: the repeat is found from the leaf's short list in
	// either orientation, and the hub's half — at a port other than the
	// leaf's — is lowered through Rev.
	for _, hubFirst := range []bool{true, false} {
		h := New(6)
		for v := NodeID(1); v < 6; v++ {
			h.AddEdge(0, v, 10+int64(v))
		}
		leaf := NodeID(4)
		add := func(w int64) EdgeID {
			if hubFirst {
				return h.AddEdge(0, leaf, w)
			}
			return h.AddEdge(leaf, 0, w)
		}
		for _, w := range []int64{20, 6, 8} { // heavier, lighter, heavier again
			if id := add(w); id != 3 {
				t.Fatalf("hubFirst=%v: repeat at w=%d returned id %d, want 3", hubFirst, w, id)
			}
		}
		if h.M() != 5 {
			t.Fatalf("hubFirst=%v: m = %d, want 5", hubFirst, h.M())
		}
		if hw, lw := h.Adj(0)[3].W, h.Adj(leaf)[0].W; hw != 6 || lw != 6 {
			t.Fatalf("hubFirst=%v: hub half %d, leaf half %d, want both 6", hubFirst, hw, lw)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("hubFirst=%v: %v", hubFirst, err)
		}
	}
}

func TestAddEdgeKeepMinDistances(t *testing.T) {
	// A graph built with duplicate insertions must be indistinguishable
	// from one built from the canonical (min-weight) edge set.
	dup := New(3)
	dup.AddEdge(0, 1, 5)
	dup.AddEdge(0, 1, 2)
	dup.AddEdge(1, 2, 4)
	dup.AddEdge(2, 1, 9)
	canon := New(3)
	canon.AddEdge(0, 1, 2)
	canon.AddEdge(1, 2, 4)
	got, want := Dijkstra(dup, 0), Dijkstra(canon, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	if dup.M() != canon.M() {
		t.Fatalf("m = %d, want %d", dup.M(), canon.M())
	}
}

func TestCloneMergesRepeats(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 5)
	c := g.Clone()
	if id := c.AddEdge(1, 0, 2); id != 0 {
		t.Fatalf("clone did not find the repeated pair: got fresh id %d", id)
	}
	if c.M() != 1 {
		t.Fatalf("clone m = %d, want 1", c.M())
	}
	if g.Adj(0)[0].W != 5 {
		t.Fatal("clone merge mutated the original")
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1, 5)
	g.AddEdge(0, 2, 9)
	// Unsorted, Edges still lists pair order; the IDs are AddEdge's
	// provisional ones until SortAdj numbers the pairs.
	want := []EdgeTriple{{U: 0, V: 2, W: 9, ID: 1}, {U: 1, V: 3, W: 5, ID: 0}}
	if es := g.Edges(); !reflect.DeepEqual(es, want) {
		t.Fatalf("unsorted: Edges = %+v, want %+v", es, want)
	}
	g.SortAdj()
	want[0].ID, want[1].ID = 0, 1
	if es := g.Edges(); !reflect.DeepEqual(es, want) {
		t.Fatalf("sorted: Edges = %+v, want %+v", es, want)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := Path(4, UnitWeights)
	c := g.Clone()
	c.AddEdge(0, 3, 2)
	if g.M() == c.M() {
		t.Fatal("clone shares edge count")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReweight(t *testing.T) {
	g := Path(3, func(i int) int64 { return int64(i + 1) })
	r := g.Reweight(func(_ EdgeID, w int64) int64 { return w * 10 })
	if r.Adj(0)[0].W != 10 {
		t.Fatalf("got %d", r.Adj(0)[0].W)
	}
	if g.Adj(0)[0].W != 1 {
		t.Fatal("original mutated")
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorsShape(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"path", Path(5, UnitWeights), 5, 4},
		{"cycle", Cycle(5, UnitWeights), 5, 5},
		{"star", Star(6, UnitWeights), 6, 5},
		{"cbt", CompleteBinaryTree(7, UnitWeights), 7, 6},
		{"grid", Grid2D(3, 4, UnitWeights), 12, 17},
		{"tree", RandomTree(20, UnitWeights, 1), 20, 19},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.g.N() != tc.n || tc.g.M() != tc.m {
				t.Fatalf("got n=%d m=%d, want %d,%d", tc.g.N(), tc.g.M(), tc.n, tc.m)
			}
			if err := tc.g.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRandomConnectedIsConnected(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := RandomConnected(50, 30, UniformWeights(9, seed), seed)
		if _, k := Components(g); k != 1 {
			t.Fatalf("seed %d: %d components", seed, k)
		}
		if g.M() != 49+30 {
			t.Fatalf("seed %d: m=%d", seed, g.M())
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandomConnectedExtraCap(t *testing.T) {
	// Requesting more extra edges than fit must clamp, not loop forever.
	g := RandomConnected(4, 100, UnitWeights, 3)
	if g.M() != 6 {
		t.Fatalf("m=%d, want complete graph 6", g.M())
	}
}

func TestDumbbell(t *testing.T) {
	g := Dumbbell(4, 3, UnitWeights)
	if g.N() != 10 {
		t.Fatalf("n=%d", g.N())
	}
	if _, k := Components(g); k != 1 {
		t.Fatal("dumbbell disconnected")
	}
	if d := HopDiameter(g); d != 5 {
		t.Fatalf("diameter=%d, want 5", d)
	}
}

func TestClustersConnected(t *testing.T) {
	g := Clusters(4, 6, 4, UnitWeights, 7)
	if _, k := Components(g); k != 1 {
		t.Fatal("clusters graph disconnected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDisconnectedParts(t *testing.T) {
	g := Disconnected(3, 10, 2, UnitWeights, 5)
	if _, k := Components(g); k != 3 {
		t.Fatalf("components=%d, want 3", k)
	}
}

func TestMakeFamilies(t *testing.T) {
	for _, f := range []Family{FamilyPath, FamilyCycle, FamilyTree, FamilyGrid, FamilyRandom, FamilyCluster} {
		g := Make(f, 30, UnitWeights, 1)
		if g.N() < 30 {
			t.Fatalf("%s: n=%d < 30", f, g.N())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
}

func TestDijkstraPath(t *testing.T) {
	g := Path(5, func(i int) int64 { return int64(i + 1) }) // weights 1,2,3,4
	d := Dijkstra(g, 0)
	want := []int64{0, 1, 3, 6, 10}
	for i, w := range want {
		if d[i] != w {
			t.Fatalf("d[%d]=%d, want %d", i, d[i], w)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := Disconnected(2, 5, 0, UnitWeights, 1)
	d := Dijkstra(g, 0)
	for v := 5; v < 10; v++ {
		if d[v] != Inf {
			t.Fatalf("d[%d]=%d, want Inf", v, d[v])
		}
	}
}

func TestMultiSourceOffsets(t *testing.T) {
	g := Path(5, UnitWeights)
	d := MultiSourceDijkstra(g, map[NodeID]int64{0: 10, 4: 0})
	want := []int64{10, 5, 4, 3, 0} // wait: from 4 with offset 0: 4->0 dists 4,3,2,1,0; from 0 offset 10: 10,11,..
	want = []int64{4, 3, 2, 1, 0}
	_ = want
	expect := []int64{4, 3, 2, 1, 0}
	for i := range expect {
		m := int64(10 + i)
		if int64(4-i) < m {
			m = int64(4 - i)
		}
		if d[i] != m {
			t.Fatalf("d[%d]=%d, want %d", i, d[i], m)
		}
	}
}

func TestBFSDistGrid(t *testing.T) {
	g := Grid2D(3, 3, UnitWeights)
	d := BFSDist(g, 0)
	if d[8] != 4 {
		t.Fatalf("corner-to-corner = %d, want 4", d[8])
	}
	d2 := BFSDist(g, 0, 8)
	if d2[4] != 2 {
		t.Fatalf("multi-source center = %d, want 2", d2[4])
	}
}

func TestHopDiameter(t *testing.T) {
	if d := HopDiameter(Path(6, UnitWeights)); d != 5 {
		t.Fatalf("path diameter=%d", d)
	}
	if d := HopDiameter(Cycle(6, UnitWeights)); d != 3 {
		t.Fatalf("cycle diameter=%d", d)
	}
	approx := HopDiameterApprox(Path(64, UnitWeights))
	if approx != 63 {
		t.Fatalf("path approx diameter=%d", approx)
	}
}

// Property: Dijkstra distances satisfy the triangle inequality over every
// edge, and every finite distance is witnessed by some tight incoming edge.
func TestDijkstraProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, extraRaw uint8) bool {
		n := int(nRaw%60) + 2
		extra := int(extraRaw % 40)
		g := RandomConnected(n, extra, UniformWeights(20, seed), seed)
		d := Dijkstra(g, 0)
		for _, e := range g.Edges() {
			if d[e.U] > d[e.V]+e.W || d[e.V] > d[e.U]+e.W {
				return false
			}
		}
		for v := 1; v < n; v++ {
			tight := false
			for _, h := range g.Adj(NodeID(v)) {
				if d[h.To]+h.W == d[v] {
					tight = true
					break
				}
			}
			if !tight {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: multi-source Dijkstra equals the min over per-source runs.
func TestMultiSourceMatchesMinOfSingles(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 3
		g := RandomConnected(n, n/2, UniformWeights(9, seed), seed)
		srcs := map[NodeID]int64{0: 0, NodeID(n / 2): 3, NodeID(n - 1): 1}
		got := MultiSourceDijkstra(g, srcs)
		for v := 0; v < n; v++ {
			want := Inf
			for s, off := range srcs {
				if d := Dijkstra(g, s)[v] + off; d < want {
					want = d
				}
			}
			if got[v] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestComponentsLabels(t *testing.T) {
	g := Disconnected(2, 4, 0, UnitWeights, 2)
	comp, k := Components(g)
	if k != 2 {
		t.Fatalf("k=%d", k)
	}
	for v := 0; v < 4; v++ {
		if comp[v] != 0 {
			t.Fatalf("comp[%d]=%d", v, comp[v])
		}
	}
	for v := 4; v < 8; v++ {
		if comp[v] != 1 {
			t.Fatalf("comp[%d]=%d", v, comp[v])
		}
	}
}

func TestWeightedDiameterUpper(t *testing.T) {
	g := Path(4, func(int) int64 { return 5 })
	if d := WeightedDiameterUpper(g); d != 20 {
		t.Fatalf("got %d", d)
	}
	if d := WeightedDiameterUpper(New(3)); d != 1 {
		t.Fatalf("edgeless got %d", d)
	}
}

func TestZeroHeavyWeights(t *testing.T) {
	w := ZeroHeavyWeights(10, 1)
	sawZero, sawPos := false, false
	for i := 0; i < 100; i++ {
		x := w(i)
		if x == 0 {
			sawZero = true
		}
		if x > 0 {
			sawPos = true
		}
		if x < 0 || x > 10 {
			t.Fatalf("weight %d out of range", x)
		}
	}
	if !sawZero || !sawPos {
		t.Fatal("expected a mix of zero and positive weights")
	}
}
