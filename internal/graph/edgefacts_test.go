package graph

import (
	"cmp"
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

// checkRev demands that every half's Rev is the index, found by scanning,
// of the same edge in the far endpoint's adjacency list. It does not go
// through Validate, so a Validate that stopped checking Rev still fails
// here.
func checkRev(t *testing.T, name string, g *Graph) {
	t.Helper()
	for u := 0; u < g.N(); u++ {
		for i, h := range g.Adj(NodeID(u)) {
			want := -1
			for j, f := range g.Adj(h.To) {
				if f.ID == h.ID {
					want = j
				}
			}
			if int(h.Rev) != want {
				t.Fatalf("%s: node %d half %d (edge %d to %d): Rev = %d, want %d", name, u, i, h.ID, h.To, h.Rev, want)
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func TestRevAfterEveryConstructor(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, f := range Families() {
		for _, n := range []int{5, 17, 40} {
			g := Make(f, n, UniformWeights(9, int64(n)), int64(n))
			checkRev(t, string(f), g)
			checkRev(t, string(f)+"/clone", g.Clone())
			checkRev(t, string(f)+"/reweight", g.Reweight(func(_ EdgeID, w int64) int64 { return w + 1 }))
			ng, err := ApplyDeltas(g, []EdgeDelta{
				{Op: DeltaInsert, U: 0, V: NodeID(g.N() - 1), W: 3},
				{Op: DeltaDelete, U: g.Edges()[0].U, V: g.Edges()[0].V},
			})
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			checkRev(t, string(f)+"/patched", ng)
		}
	}
	for seed := 0; seed < 20; seed++ {
		n := 4 + rng.Intn(20)
		g := unsortedGraph(rng, n)
		checkRev(t, "addedge", g)
		g.SortAdj()
		checkRev(t, "addedge+sort", g)
		g.AddEdge(0, NodeID(n-1), 1) // after a sort, into a capacity-limited list
		checkRev(t, "sort+addedge", g)

		// build with pairs out of pair order (the Dumbbell path) takes
		// the SortAdj path; FromEdges refuses the same list.
		es := g.Edges()
		rng.Shuffle(len(es), func(a, b int) { es[a], es[b] = es[b], es[a] })
		checkRev(t, "build-unsorted", build(n, es))
		inOrder := slices.IsSortedFunc(es, func(a, b EdgeTriple) int { return cmp.Compare(PairKey(a.U, a.V), PairKey(b.U, b.V)) })
		if _, err := FromEdges(n, es); (err == nil) != inOrder {
			t.Fatalf("FromEdges on a list in pair order %v: err = %v", inOrder, err)
		}
	}
}

func TestWeightMatchesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for seed := 0; seed < 10; seed++ {
		g := unsortedGraph(rng, 3+rng.Intn(15))
		for u := NodeID(0); int(u) < g.N(); u++ {
			for v := NodeID(0); int(v) < g.N(); v++ {
				want, wantOK := int64(0), false
				for _, h := range g.Adj(u) {
					if h.To == v {
						want, wantOK = h.W, true
					}
				}
				if w, ok := g.Weight(u, v); w != want || ok != wantOK || g.HasEdge(u, v) != wantOK {
					t.Fatalf("Weight(%d,%d) = %d,%v; adjacency says %d,%v", u, v, w, ok, want, wantOK)
				}
			}
		}
		if _, ok := g.Weight(-1, NodeID(g.N())); ok {
			t.Fatal("Weight found an out-of-range pair")
		}
	}
}

// refHeap is container/heap's frontier, the order DistHeap must keep.
type refHeap []NodeDist

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].D < h[j].D }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(NodeDist)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestDistHeapPopsInContainerHeapOrder interleaves random pushes, with
// many equal distances, and pops; every pop must return the very entry
// container/heap returns, node included.
func TestDistHeapPopsInContainerHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var got DistHeap
		want := &refHeap{}
		span := int64(1 + rng.Intn(8)) // few distinct distances: many ties
		for op := 0; op < 300; op++ {
			if len(got) != want.Len() {
				t.Fatalf("trial %d: len %d, container/heap %d", trial, len(got), want.Len())
			}
			if len(got) > 0 && rng.Intn(3) == 0 {
				g, w := got.Pop(), heap.Pop(want).(NodeDist)
				if g != w {
					t.Fatalf("trial %d op %d: popped %v, container/heap %v", trial, op, g, w)
				}
				continue
			}
			e := NodeDist{V: NodeID(rng.Intn(1000)), D: rng.Int63n(span)}
			got.Push(e.V, e.D)
			heap.Push(want, e)
		}
		for len(got) > 0 {
			if g, w := got.Pop(), heap.Pop(want).(NodeDist); g != w {
				t.Fatalf("trial %d drain: popped %v, container/heap %v", trial, g, w)
			}
		}
	}
}
