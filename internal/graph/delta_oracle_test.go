package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// applyDeltasOracle is the original ApplyDeltas, kept as the reference the
// binary-search implementation is diffed against: a weight map seeded from
// every edge, the batch applied to it, and the graph rebuilt through a key
// sort, AddEdge and SortAdj.
func applyDeltasOracle(g *Graph, deltas []EdgeDelta) (*Graph, error) {
	weights := make(map[uint64]int64, g.M()+len(deltas))
	for _, e := range g.Edges() {
		weights[PairKey(e.U, e.V)] = e.W
	}
	for i, d := range deltas {
		if d.U == d.V {
			return nil, fmt.Errorf("graph: delta %d (%s): self-loop at node %d", i, d, d.U)
		}
		if d.U < 0 || int(d.U) >= g.n || d.V < 0 || int(d.V) >= g.n {
			return nil, fmt.Errorf("graph: delta %d (%s): endpoints out of range [0,%d)", i, d, g.n)
		}
		key := PairKey(d.U, d.V)
		w, exists := weights[key]
		switch d.Op {
		case DeltaInsert:
			if d.W < 0 {
				return nil, fmt.Errorf("graph: delta %d (%s): negative weight", i, d)
			}
			if !exists || d.W < w {
				weights[key] = d.W
			}
		case DeltaDelete:
			if !exists {
				return nil, fmt.Errorf("graph: delta %d (%s): edge does not exist", i, d)
			}
			delete(weights, key)
		case DeltaReweight:
			if d.W < 0 {
				return nil, fmt.Errorf("graph: delta %d (%s): negative weight", i, d)
			}
			if !exists {
				return nil, fmt.Errorf("graph: delta %d (%s): edge does not exist", i, d)
			}
			weights[key] = d.W
		default:
			return nil, fmt.Errorf("graph: delta %d: unknown op %d", i, uint8(d.Op))
		}
	}
	keys := make([]uint64, 0, len(weights))
	for k := range weights {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	ng := New(g.n)
	for _, k := range keys {
		ng.AddEdge(NodeID(k>>32), NodeID(uint32(k)), weights[k])
	}
	ng.SortAdj()
	return ng, nil
}

// randomBatch draws one delta batch against g mixing every case the two
// implementations must agree on: keep-min inserts above and below the
// current weight, fresh inserts, insert-then-delete, deletes and reweights
// of present and missing pairs, and now and then a self-loop, an
// out-of-range endpoint, a negative weight or an unknown op.
func randomBatch(rng *rand.Rand, g *Graph) []EdgeDelta {
	n := g.N()
	es := g.Edges()
	node := func() NodeID {
		if rng.Intn(40) == 0 {
			return NodeID([]int{-1, n, n + 7}[rng.Intn(3)])
		}
		return NodeID(rng.Intn(n))
	}
	weight := func() int64 {
		if rng.Intn(40) == 0 {
			return -1
		}
		return int64(rng.Intn(20))
	}
	pair := func() (NodeID, NodeID) {
		if len(es) > 0 && rng.Intn(2) == 0 {
			e := es[rng.Intn(len(es))]
			if rng.Intn(2) == 0 {
				return e.V, e.U
			}
			return e.U, e.V
		}
		return node(), node()
	}
	var ds []EdgeDelta
	for k := 1 + rng.Intn(6); k > 0; k-- {
		u, v := pair()
		switch r := rng.Intn(20); {
		case r < 6:
			ds = append(ds, EdgeDelta{Op: DeltaInsert, U: u, V: v, W: weight()})
		case r < 8:
			ds = append(ds, EdgeDelta{Op: DeltaInsert, U: u, V: v, W: weight()}, EdgeDelta{Op: DeltaDelete, U: v, V: u})
		case r < 12:
			ds = append(ds, EdgeDelta{Op: DeltaDelete, U: u, V: v})
		case r < 19:
			ds = append(ds, EdgeDelta{Op: DeltaReweight, U: u, V: v, W: weight()})
		default:
			ds = append(ds, EdgeDelta{Op: DeltaOp(rng.Intn(6)), U: u, V: v, W: weight()})
		}
	}
	return ds
}

// unsortedGraph is built by AddEdge alone, without SortAdj, so its
// adjacency lists are in insertion order.
func unsortedGraph(rng *rand.Rand, n int) *Graph {
	g := New(n)
	for k := 0; k < 2*n; k++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u != v {
			g.AddEdge(u, v, int64(rng.Intn(20)))
		}
	}
	return g
}

// TestApplyDeltasMatchesOracle diffs ApplyDeltas against the map+sort
// oracle over thousands of random batches: on every generator family, on
// an unsorted AddEdge graph, and on chains of already-patched graphs. Both
// must agree on the error text, or on M, Edges and every adjacency list
// (To, W, ID, Rev).
func TestApplyDeltasMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var ok, failed int
	check := func(name string, g *Graph) *Graph {
		ds := randomBatch(rng, g)
		got, gotErr := ApplyDeltas(g, ds)
		want, wantErr := applyDeltasOracle(g, ds)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s %v: err = %v, oracle %v", name, ds, gotErr, wantErr)
		}
		if gotErr != nil {
			failed++
			return g
		}
		ok++
		if got.M() != want.M() || !reflect.DeepEqual(got.Edges(), want.Edges()) {
			t.Fatalf("%s %v: edges differ:\n got %v\nwant %v", name, ds, got.Edges(), want.Edges())
		}
		for u := 0; u < g.N(); u++ {
			if !reflect.DeepEqual(got.Adj(NodeID(u)), want.Adj(NodeID(u))) {
				t.Fatalf("%s %v: adjacency of %d = %v, oracle %v", name, ds, u, got.Adj(NodeID(u)), want.Adj(NodeID(u)))
			}
		}
		return got
	}
	for _, f := range Families() {
		for seed := int64(1); seed <= 3; seed++ {
			n := 6 + rng.Intn(30)
			g := Make(f, n, UniformWeights(20, seed), seed)
			for step := 0; step < 60; step++ {
				check(string(f), g) // as generated
			}
			for step := 0; step < 60; step++ {
				g = check(string(f)+"/patched", g)
			}
		}
	}
	for seed := 0; seed < 10; seed++ {
		g := unsortedGraph(rng, 5+rng.Intn(20))
		for step := 0; step < 40; step++ {
			check("unsorted", g)
		}
	}
	if ok < 1000 || failed < 1000 {
		t.Fatalf("batches: %d applied, %d rejected; want at least 1000 of each", ok, failed)
	}
	t.Logf("%d batches applied, %d rejected, no differences", ok, failed)
}

func TestFromEdgesRoundTrip(t *testing.T) {
	for _, f := range Families() {
		g := Make(f, 24, UniformWeights(9, 3), 3)
		ng, err := FromEdges(g.N(), g.Edges())
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !reflect.DeepEqual(ng.adj, g.adj) || ng.M() != g.M() {
			t.Fatalf("%s: FromEdges(Edges()) does not reproduce the graph", f)
		}
	}
}

func TestFromEdgesErrors(t *testing.T) {
	e := func(u, v NodeID, w int64) EdgeTriple { return EdgeTriple{U: u, V: v, W: w} }
	ok := e(0, 1, 1)
	for _, tc := range []struct {
		name  string
		edges []EdgeTriple
		want  string
	}{
		{"range", []EdgeTriple{ok, e(0, 9, 1)}, "out of range"},
		{"negative-endpoint", []EdgeTriple{ok, e(-1, 2, 1)}, "out of range"},
		{"self-loop", []EdgeTriple{ok, e(2, 2, 1)}, "self-loop"},
		{"order", []EdgeTriple{ok, e(2, 1, 1)}, "canonical order"},
		{"weight", []EdgeTriple{ok, e(1, 2, -3)}, "negative weight"},
		{"repeat", []EdgeTriple{ok, e(0, 1, 2)}, "edges 0 and 1 repeat the pair {0,1}"},
		// Copies of a pair apart: in strict pair order they could only be
		// neighbours, so the first edge that steps back is named.
		{"repeat-apart", []EdgeTriple{ok, e(0, 2, 1), e(0, 1, 5), e(1, 2, 1)}, "edges 1 {0,2} and 2 {0,1} are out of pair order"},
		// Out of pair order before any repeat: the order fault is named.
		{"repeat-unsorted", []EdgeTriple{e(1, 2, 1), e(0, 1, 1), e(1, 2, 4)}, "edges 0 {1,2} and 1 {0,1} are out of pair order"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromEdges(3, tc.edges); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// FuzzFromEdges feeds FromEdges arbitrary edge lists: the first input
// byte is n in [0,8), every 3 more bytes are one edge with endpoints in
// [-1,7] and weight in [-1,4], carrying a junk ID, so lists go out of
// range, out of order and repeat pairs often. FromEdges must return an
// error, or a graph that validates and whose Edges() is the input
// numbered 0..m-1. The checked-in corpus (testdata/fuzz/FuzzFromEdges)
// holds valid lists and one of each fault.
func FuzzFromEdges(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0] % 8)
		var in []EdgeTriple
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			in = append(in, EdgeTriple{
				U: NodeID(data[0]%9) - 1, V: NodeID(data[1]%9) - 1,
				W: int64(data[2]%6) - 1, ID: EdgeID(len(in) * 7),
			})
		}
		g, err := FromEdges(n, in)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("FromEdges(%d, %v): %v", n, in, err)
		}
		want := make([]EdgeTriple, len(in))
		for i, e := range in {
			e.ID = EdgeID(i)
			want[i] = e
		}
		if got := g.Edges(); !slices.Equal(got, want) {
			t.Fatalf("FromEdges(%d, %v).Edges() = %v, want %v", n, in, got, want)
		}
	})
}

// BenchmarkApplyDeltas is serve-dynamic's PATCH on its graph: one
// reweight on a random n=10⁴ generator graph.
func BenchmarkApplyDeltas(b *testing.B) {
	g := Make(FamilyRandom, 10000, UniformWeights(10000, 1), 1)
	es := g.Edges()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := es[i%len(es)]
		if _, err := ApplyDeltas(g, []EdgeDelta{{Op: DeltaReweight, U: e.U, V: e.V, W: e.W + 1}}); err != nil {
			b.Fatal(err)
		}
	}
}
