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
		if got.Canonical() != got || got.Validate() != nil {
			t.Fatalf("%s %v: the patched graph is not canonical, or fails Validate: %v", name, ds, got.Validate())
		}
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

// applyChangesOracle is ApplyChanges' rebuild: build on the patched edge
// list, whatever the batch.
func applyChangesOracle(g *Graph, changes []WeightChange) *Graph {
	return build(g.n, MergeChanges(g.Edges(), changes))
}

// checkApplyChanges applies changes to g and requires the result to equal
// the rebuild oracle field for field — n, m, the canonical mark and every
// list's To, W, ID and Rev — with each list it does not share with g
// exactly as long as its capacity, to pass Validate, and g to stay
// deep-equal to a clone taken before the call.
func checkApplyChanges(t *testing.T, g *Graph, changes []WeightChange) *Graph {
	t.Helper()
	before := g.Clone()
	got, want := ApplyChanges(g, changes), applyChangesOracle(g, changes)
	if got.n != want.n || got.m != want.m || got.canonical != want.canonical || !reflect.DeepEqual(got.adj, want.adj) {
		t.Fatalf("ApplyChanges(%v, %v):\n got %+v\nwant %+v", g.Edges(), changes, got, want)
	}
	for u, a := range got.adj {
		if shared := len(a) > 0 && len(g.adj[u]) > 0 && &a[0] == &g.adj[u][0]; !shared && cap(a) != len(a) {
			t.Fatalf("ApplyChanges(%v, %v): list %d has capacity %d for %d halves", g.Edges(), changes, u, cap(a), len(a))
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("ApplyChanges(%v, %v): %v", g.Edges(), changes, err)
	}
	if !reflect.DeepEqual(g, before) {
		t.Fatalf("ApplyChanges(%v, %v) wrote its input: %+v, was %+v", g.Edges(), changes, g, before)
	}
	return got
}

// FuzzApplyChanges drives ApplyChanges over chains of batches on small
// canonical graphs (see checkApplyChanges). data[0] picks n in [2,12) and
// data[1] the number of base edges, each 3 bytes (u, v, w) added by AddEdge
// before SortAdj. The rest is deltas, 4 bytes each: an op byte, where 0
// ends the batch, 1 inserts {u,v} at w, 2 deletes and 3 reweights the
// u-th edge of the current graph to w. Each batch goes through
// ResolveDeltas on the graph the previous one left, so the chain mixes
// copy-on-write reweights of patched graphs with rebuilds. The checked-in
// corpus (testdata/fuzz/FuzzApplyChanges) holds reweight-only, mixed and
// chained shapes.
func FuzzApplyChanges(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0]%10)
		g := New(n)
		k := int(data[1] % 24)
		for data = data[2:]; k > 0 && len(data) >= 3; k, data = k-1, data[3:] {
			if u, v := NodeID(data[0])%NodeID(n), NodeID(data[1])%NodeID(n); u != v {
				g.AddEdge(u, v, int64(data[2]%8))
			}
		}
		g.SortAdj()
		var batch []EdgeDelta
		flush := func() {
			if changes, err := ResolveDeltas(g, batch); err == nil {
				g = checkApplyChanges(t, g, changes)
			}
			batch = batch[:0]
		}
		for ; len(data) >= 4; data = data[4:] {
			u, v, w := NodeID(data[1])%NodeID(n), NodeID(data[2])%NodeID(n), int64(data[3]%8)
			es := g.Edges()
			switch op := data[0] % 4; {
			case op == 0:
				flush()
			case op == 1:
				batch = append(batch, EdgeDelta{Op: DeltaInsert, U: u, V: v, W: w})
			case len(es) > 0:
				e := es[int(data[1])%len(es)]
				batch = append(batch, EdgeDelta{Op: []DeltaOp{2: DeltaDelete, 3: DeltaReweight}[op], U: e.U, V: e.V, W: w})
			}
		}
		flush()
	})
}

// TestApplyChangesCopyOnWrite: a reweight-only batch on a canonical graph
// copies just its endpoints' lists and shares the rest with its parent,
// and no later write to either graph — AddEdge's keep-min write on a
// shared pair, an insert and SortAdj — shows in the other.
func TestApplyChangesCopyOnWrite(t *testing.T) {
	g := Make(FamilyRandom, 40, UniformWeights(20, 3), 3) // weights from 1
	es := g.Edges()
	e, far := es[0], es[len(es)-1]
	if e.U == far.U || e.U == far.V || e.V == far.U || e.V == far.V {
		t.Fatal("the test needs two disjoint edges")
	}
	reweight := []WeightChange{{U: e.U, V: e.V, OldW: e.W, NewW: e.W + 5}}
	ng := checkApplyChanges(t, g, reweight)
	for u := range g.adj {
		shared := len(g.adj[u]) > 0 && &ng.adj[u][0] == &g.adj[u][0]
		if endpoint := NodeID(u) == e.U || NodeID(u) == e.V; shared == endpoint && len(g.adj[u]) > 0 {
			t.Fatalf("node %d: list shared %v, endpoint of the reweight %v", u, shared, endpoint)
		}
	}

	// Keep-min on the child, on lists it shares with the parent.
	before := g.Clone()
	ng.AddEdge(far.V, far.U, 0)
	if !reflect.DeepEqual(g, before) {
		t.Fatal("keep-min on the patched graph wrote into its parent")
	}
	if w, _ := ng.Weight(far.U, far.V); w != 0 || ng.Validate() != nil || !ng.canonical {
		t.Fatalf("patched graph after keep-min: weight %d, %v, canonical %v", w, ng.Validate(), ng.canonical)
	}

	// Keep-min on the parent, on lists it shares with a child.
	ng = checkApplyChanges(t, g, reweight)
	child := ng.Clone()
	g.AddEdge(far.U, far.V, 0)
	if !reflect.DeepEqual(ng, child) {
		t.Fatal("keep-min on the parent wrote into the patched graph")
	}

	// An insert and SortAdj renumber edges in lists the graph holds alone,
	// on the child and on the parent alike.
	v := NodeID(1)
	for g.HasEdge(0, v) {
		v++
	}
	before = g.Clone()
	ng = checkApplyChanges(t, g, reweight)
	ng.AddEdge(0, v, 1)
	ng.SortAdj()
	if err := ng.Validate(); err != nil || !reflect.DeepEqual(g, before) {
		t.Fatalf("insert and SortAdj on a patched graph: %v, or its parent changed", err)
	}
	ng = checkApplyChanges(t, g, reweight)
	child = ng.Clone()
	g.AddEdge(0, v, 1)
	g.SortAdj()
	if err := g.Validate(); err != nil || !reflect.DeepEqual(ng, child) {
		t.Fatalf("insert and SortAdj on the parent: %v, or the patched graph changed", err)
	}
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
