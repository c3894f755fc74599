package incr_test

import (
	"math/rand"
	"reflect"
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/incr"
)

// --- unit tests of the classification rules ---

func distFor(g *graph.Graph, s graph.NodeID) []int64 { return graph.Dijkstra(g, s) }

func TestEffectDirtyDecrease(t *testing.T) {
	// Path 0-1-2 with unit weights, node 3 isolated.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.SortAdj()
	dist := distFor(g, 0) // [0,1,2,Inf]

	for _, tc := range []struct {
		name  string
		c     graph.WeightChange
		dirty bool
	}{
		// dist[0]+1 = 1 < 2 = dist[2]: shortens.
		{"strictly-shorter", graph.WeightChange{U: 0, V: 2, OldW: -1, NewW: 1}, true},
		// dist[0]+2 = 2 = dist[2]: no distance change, but a new witness —
		// the deterministic tree may switch parents, so it must count.
		{"equal-mints-witness", graph.WeightChange{U: 0, V: 2, OldW: -1, NewW: 2}, true},
		// A downward reweight to dist[0]+3 = 3 > 2: slack, invisible.
		{"slack", graph.WeightChange{U: 0, V: 2, OldW: 4, NewW: 3}, false},
		// Finite → unreachable endpoint: connects new territory, dirty.
		{"reaches-unreachable", graph.WeightChange{U: 2, V: 3, OldW: -1, NewW: 5}, true},
	} {
		if got := incr.ChangeDirty(tc.c, dist); got != tc.dirty {
			t.Errorf("%s: ChangeDirty = %v, want %v", tc.name, got, tc.dirty)
		}
	}

	// Both endpoints unreachable: outside the source's world entirely.
	g2 := graph.New(4)
	g2.AddEdge(0, 1, 1)
	g2.AddEdge(2, 3, 1)
	g2.SortAdj()
	d2 := distFor(g2, 0)
	if incr.ChangeDirty(graph.WeightChange{U: 2, V: 3, OldW: -1, NewW: 0}, d2) {
		t.Error("decrease between two unreachable nodes classified dirty")
	}
}

func TestEffectDirtyIncrease(t *testing.T) {
	// Square with a chord: 0-1-2-3-0 unit weights plus {0,2} at weight 10.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 3, 1)
	g.AddEdge(0, 2, 10)
	g.SortAdj()
	dist := distFor(g, 0) // [0,1,2,1]

	// {0,1} is tight (dist[0]+1 == dist[1]): raising it is dirty.
	if !incr.ChangeDirty(graph.WeightChange{U: 0, V: 1, OldW: 1, NewW: -1}, dist) {
		t.Error("tight-edge increase classified untouched")
	}
	// {0,2} at weight 10 is slack (dist[0]+10 != dist[2]): raising or
	// deleting it is invisible from source 0.
	for _, neww := range []int64{11, -1} {
		if incr.ChangeDirty(graph.WeightChange{U: 0, V: 2, OldW: 10, NewW: neww}, dist) {
			t.Errorf("slack-edge raise to %d classified dirty", neww)
		}
	}

	// Unreachable endpoint: cannot be tight.
	g2 := graph.New(3)
	g2.AddEdge(1, 2, 1)
	g2.SortAdj()
	d2 := distFor(g2, 0) // [0,Inf,Inf]
	if incr.ChangeDirty(graph.WeightChange{U: 1, V: 2, OldW: 1, NewW: -1}, d2) {
		t.Error("increase in an unreachable component classified dirty")
	}
}

func TestEffectsResolution(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 3)
	g.SortAdj()

	// No-ops drop out: keep-min-losing insert, same-weight reweight.
	changes, err := graph.ResolveDeltas(g, []graph.EdgeDelta{
		{Op: graph.DeltaInsert, U: 0, V: 1, W: 9},
		{Op: graph.DeltaReweight, U: 1, V: 2, W: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 0 {
		t.Fatalf("no-op batch produced changes %v", changes)
	}

	// A second delta on the same pair resolves against the first's result:
	// delete {0,1} then insert it back cheaper = a raise from the old weight
	// followed by a lowering to the new one.
	changes, err = graph.ResolveDeltas(g, []graph.EdgeDelta{
		{Op: graph.DeltaDelete, U: 0, V: 1},
		{Op: graph.DeltaInsert, U: 0, V: 1, W: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.WeightChange{
		{U: 0, V: 1, OldW: 5, NewW: -1},
		{U: 0, V: 1, OldW: -1, NewW: 2},
	}
	if !reflect.DeepEqual(changes, want) || !changes[0].Raised() || !changes[1].Lowered() {
		t.Fatalf("changes = %v, want %v", changes, want)
	}

	// Inserting over a tombstone at a high weight is a real lowering (the
	// pair no longer exists), not a keep-min no-op against the old weight.
	changes, err = graph.ResolveDeltas(g, []graph.EdgeDelta{
		{Op: graph.DeltaDelete, U: 0, V: 1},
		{Op: graph.DeltaInsert, U: 0, V: 1, W: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 2 || !changes[1].Lowered() || changes[1].NewW != 100 {
		t.Fatalf("insert-over-tombstone changes = %v", changes)
	}

	if _, err := graph.ResolveDeltas(g, []graph.EdgeDelta{{Op: graph.DeltaDelete, U: 0, V: 2}}); err == nil {
		t.Fatal("delete of a missing edge resolved without error")
	}
}

// --- differential property test ---

// witnessParents derives the deterministic min-ID witness parent of every
// node from an exact distance vector: the smallest neighbor u with
// dist[u] + w(u,v) == dist[v]. This is the tree the serving layer's
// deterministic engines expose, so "untouched" must preserve it exactly,
// not just the distances.
func witnessParents(g *graph.Graph, dist []int64) []graph.NodeID {
	parents := make([]graph.NodeID, g.N())
	for v := 0; v < g.N(); v++ {
		parents[v] = -1
		if dist[v] == 0 || dist[v] == graph.Inf {
			continue
		}
		for _, h := range g.Adj(graph.NodeID(v)) {
			if dist[h.To] != graph.Inf && dist[h.To]+h.W == dist[v] {
				if parents[v] == -1 || h.To < parents[v] {
					parents[v] = h.To
				}
			}
		}
	}
	return parents
}

// TestDirtySourcesDifferential is the soundness test for the whole
// incremental path: over several graph families and randomized delta
// sequences, every source classified *untouched* must have byte-identical
// distances AND an identical min-ID witness tree on the patched graph —
// verified against a from-scratch Dijkstra. (Dirty sources carry no claim;
// the serving layer recomputes them.) It also checks the classification is
// not vacuous: across the run, both outcomes must actually occur.
func TestDirtySourcesDifferential(t *testing.T) {
	families := []graph.Family{graph.FamilyRandom, graph.FamilyGrid, graph.FamilyCluster, graph.FamilyExpander}
	rng := rand.New(rand.NewSource(42))
	totalDirty, totalUntouched := 0, 0

	for _, fam := range families {
		for trial := 0; trial < 6; trial++ {
			n := 16 + rng.Intn(24)
			g := graph.Make(fam, n, graph.UniformWeights(8, rng.Int63()), rng.Int63())

			// Trace every source on the pre-patch graph.
			traces := make(map[graph.NodeID][]int64, n)
			for s := 0; s < n; s++ {
				traces[graph.NodeID(s)] = graph.Dijkstra(g, graph.NodeID(s))
			}

			// A sequence of random batches, reclassifying after each.
			for round := 0; round < 3; round++ {
				deltas := randomBatch(rng, g, 1+rng.Intn(4))
				if len(deltas) == 0 {
					continue
				}
				ng, err := graph.ApplyDeltas(g, deltas)
				if err != nil {
					t.Fatalf("%s trial %d: %v", fam, trial, err)
				}
				changes, err := graph.ResolveDeltas(g, deltas)
				if err != nil {
					t.Fatalf("%s trial %d: %v", fam, trial, err)
				}
				dirty, untouched := incr.DirtySources(changes, traces)
				totalDirty += len(dirty)
				totalUntouched += len(untouched)

				for _, s := range untouched {
					want := graph.Dijkstra(ng, s)
					if !reflect.DeepEqual(traces[s], want) {
						t.Fatalf("%s trial %d round %d: source %d classified untouched but distances changed\ndeltas=%v\nold=%v\nnew=%v",
							fam, trial, round, s, deltas, traces[s], want)
					}
					oldTree := witnessParents(g, traces[s])
					newTree := witnessParents(ng, want)
					if !reflect.DeepEqual(oldTree, newTree) {
						t.Fatalf("%s trial %d round %d: source %d untouched but witness tree changed\ndeltas=%v\nold=%v\nnew=%v",
							fam, trial, round, s, deltas, oldTree, newTree)
					}
				}
				// Advance: dirty sources get fresh traces (as the serving
				// layer would on their next query), untouched keep theirs.
				for _, s := range dirty {
					traces[s] = graph.Dijkstra(ng, s)
				}
				g = ng
			}
		}
	}
	if totalDirty == 0 || totalUntouched == 0 {
		t.Fatalf("classification is vacuous: dirty=%d untouched=%d", totalDirty, totalUntouched)
	}
	t.Logf("classified %d dirty, %d untouched across all trials", totalDirty, totalUntouched)
}

// randomBatch builds a random valid delta batch against g, never touching
// a pair it has already deleted in the same batch.
func randomBatch(rng *rand.Rand, g *graph.Graph, size int) []graph.EdgeDelta {
	var deltas []graph.EdgeDelta
	deleted := map[[2]graph.NodeID]bool{}
	key := func(u, v graph.NodeID) [2]graph.NodeID {
		if u > v {
			u, v = v, u
		}
		return [2]graph.NodeID{u, v}
	}
	es := g.Edges()
	n := g.N()
	for i := 0; i < size; i++ {
		switch rng.Intn(4) {
		case 0: // insert (random pair, may or may not exist)
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u == v || deleted[key(u, v)] {
				continue
			}
			deltas = append(deltas, graph.EdgeDelta{Op: graph.DeltaInsert, U: u, V: v, W: int64(rng.Intn(10))})
		case 1, 2: // reweight an existing edge (up or down)
			if len(es) == 0 {
				continue
			}
			e := es[rng.Intn(len(es))]
			if deleted[key(e.U, e.V)] {
				continue
			}
			deltas = append(deltas, graph.EdgeDelta{Op: graph.DeltaReweight, U: e.U, V: e.V, W: int64(rng.Intn(10))})
		case 3: // delete an existing edge
			if len(es) == 0 {
				continue
			}
			e := es[rng.Intn(len(es))]
			if deleted[key(e.U, e.V)] {
				continue
			}
			deleted[key(e.U, e.V)] = true
			deltas = append(deltas, graph.EdgeDelta{Op: graph.DeltaDelete, U: e.U, V: e.V})
		}
	}
	return deltas
}
