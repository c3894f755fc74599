package graph_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dsssp/internal/core"
	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

// checkPairRanks demands that g numbers its edges by pair rank: Edges() is
// in strict pair order with EdgeID i at position i, both halves of every
// edge carry its rank, and FromEdges(g.N(), g.Edges()) reproduces the
// adjacency, IDs and Rev ports included.
func checkPairRanks(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	es := g.Edges()
	rank := make(map[uint64]graph.EdgeID, len(es))
	for i, e := range es {
		k := graph.PairKey(e.U, e.V)
		if e.ID != graph.EdgeID(i) || e.U >= e.V || (i > 0 && k <= graph.PairKey(es[i-1].U, es[i-1].V)) {
			t.Fatalf("%s: edge %d is %+v, not pair rank %d", name, i, e, i)
		}
		rank[k] = e.ID
	}
	for u := range g.N() {
		for _, h := range g.Adj(graph.NodeID(u)) {
			if want := rank[graph.PairKey(graph.NodeID(u), h.To)]; h.ID != want {
				t.Fatalf("%s: half %d→%d carries ID %d, its pair's rank is %d", name, u, h.To, h.ID, want)
			}
		}
	}
	fg, err := graph.FromEdges(g.N(), es)
	if err != nil {
		t.Fatalf("%s: FromEdges(Edges()): %v", name, err)
	}
	sameAdj(t, name+"/from-edges", fg, g)
}

// sameAdj demands that got and want have equal adjacency lists, half by
// half: neighbour, weight, EdgeID and Rev.
func sameAdj(t *testing.T, name string, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: n=%d m=%d, want n=%d m=%d", name, got.N(), got.M(), want.N(), want.M())
	}
	for u := range want.N() {
		if a, b := got.Adj(graph.NodeID(u)), want.Adj(graph.NodeID(u)); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: node %d adjacency\n got %+v\nwant %+v", name, u, a, b)
		}
	}
}

// scrambled re-inserts g's edges through AddEdge in a shuffled order with
// flipped endpoints, each pair first at a heavier weight, then sorts.
func scrambled(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	es := g.Edges()
	rng.Shuffle(len(es), func(a, b int) { es[a], es[b] = es[b], es[a] })
	sg := graph.New(g.N())
	for i, e := range es {
		if i%2 == 0 {
			e.U, e.V = e.V, e.U
		}
		if i%3 == 0 {
			sg.AddEdge(e.U, e.V, e.W+5)
		}
		sg.AddEdge(e.U, e.V, e.W)
	}
	sg.SortAdj()
	return sg
}

// TestEdgeIDsArePairRanks checks the one-numbering invariant after every
// constructor: every family (Barbell and Dumbbell go through the unchecked
// builder out of pair order), ApplyDeltas, Clone, Reweight, ReadEdgeList
// of a shuffled listing, and scrambled AddEdge then SortAdj. The last two
// must also reproduce the original graph exactly: a graph is a function of
// its edge set, EdgeIDs included.
func TestEdgeIDsArePairRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, f := range graph.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s/seed=%d", f, seed)
			g := graph.Make(f, 24, graph.UniformWeights(9, seed), seed)
			checkPairRanks(t, name, g)
			checkPairRanks(t, name+"/clone", g.Clone())
			checkPairRanks(t, name+"/reweight", g.Reweight(func(id graph.EdgeID, w int64) int64 { return w + int64(id%3) }))
			for k := 0; k < 5; k++ {
				if pg, err := graph.ApplyDeltas(g, graph.RandomBatch(rng, g)); err == nil {
					checkPairRanks(t, name+"/patched", pg)
				}
			}

			sg := scrambled(rng, g)
			checkPairRanks(t, name+"/scrambled", sg)
			sameAdj(t, name+"/scrambled", sg, g)

			var buf bytes.Buffer
			if err := graph.WriteEdgeList(&buf, g); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			rng.Shuffle(len(lines)-1, func(a, b int) { lines[a+1], lines[b+1] = lines[b+1], lines[a+1] })
			rg, err := graph.ReadEdgeList(strings.NewReader(strings.Join(lines, "\n")))
			if err != nil {
				t.Fatal(err)
			}
			checkPairRanks(t, name+"/read", rg)
			sameAdj(t, name+"/read", rg, g)
		}
	}
	checkPairRanks(t, "dumbbell", graph.Dumbbell(4, 3, graph.UniformWeights(9, 1)))
	checkPairRanks(t, "unsorted+sort", func() *graph.Graph {
		g := graph.UnsortedGraph(rng, 20)
		g.SortAdj()
		return g
	}())
}

// TestMetricsIndependentOfInsertionOrder runs SSSP on a generator graph
// and on the same edges inserted in shuffled order: distances, metrics
// (per-edge message counts included) and stats must be identical, since
// the simulator reads EdgeIDs (forest.Build breaks ties by them).
func TestMetricsIndependentOfInsertionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, f := range graph.Families() {
		g := graph.Make(f, 20, graph.UniformWeights(20, 2), 2)
		sg := scrambled(rng, g)
		d1, s1, m1, _, err1 := core.Run(g, map[graph.NodeID]int64{0: 0}, core.Options{}, simnet.Congest, false)
		d2, s2, m2, _, err2 := core.Run(sg, map[graph.NodeID]int64{0: 0}, core.Options{}, simnet.Congest, false)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", f, err1, err2)
		}
		if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(m1, m2) {
			t.Fatalf("%s: SSSP differs between generator and shuffled insertion:\n rounds %d vs %d, messages %d vs %d",
				f, m1.Rounds, m2.Rounds, m1.Messages, m2.Messages)
		}
	}
}

// TestCanonical: a built graph is its own canonical form, so a run clones
// nothing; a graph with an unsorted list, or sorted lists but EdgeIDs out
// of pair order, gets a sorted clone and is left as it was.
func TestCanonical(t *testing.T) {
	for _, f := range graph.Families() {
		if g := graph.Make(f, 20, graph.UnitWeights, 1); g.Canonical() != g {
			t.Errorf("%s: a built graph is not canonical", f)
		}
	}
	unsorted := graph.New(3)
	unsorted.AddEdge(0, 2, 1)
	unsorted.AddEdge(0, 1, 1)
	misnumbered := graph.New(4) // every list sorted, {1,2} numbered 0 before {0,3}
	misnumbered.AddEdge(1, 2, 1)
	misnumbered.AddEdge(0, 3, 1)
	for name, g := range map[string]*graph.Graph{"unsorted": unsorted, "misnumbered": misnumbered} {
		before := g.Clone()
		c := g.Canonical()
		if c == g || c.Canonical() != c {
			t.Fatalf("%s: Canonical did not return a canonical clone", name)
		}
		if !reflect.DeepEqual(g, before) {
			t.Errorf("%s: Canonical modified its receiver", name)
		}
		want := g.Clone()
		want.SortAdj()
		if !reflect.DeepEqual(c, want) {
			t.Errorf("%s: Canonical = %+v, want the sorted clone %+v", name, c, want)
		}
	}
}
