package decomp

import (
	"testing"

	"dsssp/internal/graph"
)

// metricDist computes reference distances in the participant subgraph under
// the membership metric.
func metricDist(g *graph.Graph, from graph.NodeID, participants []bool, w WeightFn) []int64 {
	if w == nil {
		w = func(graph.NodeID, int) int64 { return 1 }
	}
	sub := graph.New(g.N())
	for _, e := range g.Edges() {
		if participants == nil || (participants[e.U] && participants[e.V]) {
			wt := int64(1)
			for i, h := range g.Adj(e.U) {
				if h.ID == e.ID {
					wt = w(e.U, i)
				}
			}
			sub.AddEdge(e.U, e.V, wt)
		}
	}
	sub.SortAdj()
	return graph.Dijkstra(sub, from)
}

// verifyCover checks the cover property, tree validity, stretch, and parent
// containment on every layer. Parent containment also covers every graph
// neighbour of every member across an edge no heavier than MaxDist: the
// energy BFS needs it, because a token crossing an edge into a cluster
// finds that cluster awake only when the sender is inside its parent too.
func verifyCover(t *testing.T, g *graph.Graph, cv *Cover, participants []bool, w WeightFn) {
	t.Helper()
	n := g.N()
	inSet := func(v int) bool { return participants == nil || participants[v] }
	if w == nil {
		w = func(graph.NodeID, int) int64 { return 1 }
	}

	// Collect cluster -> member set and roots.
	members := make(map[int32]map[graph.NodeID]Membership)
	layerOf := make(map[int32]int)
	parentOf := make(map[int32]int32)
	for v := 0; v < n; v++ {
		for _, m := range cv.Node[v] {
			if members[m.Cluster] == nil {
				members[m.Cluster] = make(map[graph.NodeID]Membership)
			}
			members[m.Cluster][graph.NodeID(v)] = m
			layerOf[m.Cluster] = m.Layer
			parentOf[m.Cluster] = m.ParentCluster
		}
	}

	// Tree validity: one root per cluster, parent edges stay inside the
	// cluster and decrease depth by one, depth below the stretch bound.
	for cid, ms := range members {
		layer := layerOf[cid]
		radius := cv.Layers[layer].Radius
		roots := 0
		for v, m := range ms {
			if m.Parent < 0 {
				roots++
				if m.Depth != 0 {
					t.Fatalf("cluster %d root %d depth %d", cid, v, m.Depth)
				}
				continue
			}
			p := g.Adj(v)[m.Parent].To
			pm, ok := ms[p]
			if !ok {
				t.Fatalf("cluster %d: node %d's tree parent %d not a member", cid, v, p)
			}
			if pm.Depth != m.Depth-1 {
				t.Fatalf("cluster %d: node %d depth %d, parent depth %d", cid, v, m.Depth, pm.Depth)
			}
			if m.Depth > Stretch(n)*radius {
				t.Fatalf("cluster %d: depth %d exceeds stretch bound %d", cid, m.Depth, Stretch(n)*radius)
			}
		}
		if roots != 1 {
			t.Fatalf("cluster %d has %d roots", cid, roots)
		}
	}

	// Cover property per layer: every participant's radius-ball is inside
	// one cluster of that layer.
	for layer, meta := range cv.Layers {
		for v := 0; v < n; v++ {
			if !inSet(v) {
				continue
			}
			dist := metricDist(g, graph.NodeID(v), participants, w)
			ball := []graph.NodeID{}
			for u := 0; u < n; u++ {
				if inSet(u) && dist[u] >= 0 && dist[u] <= meta.Radius && dist[u] < graph.Inf {
					ball = append(ball, graph.NodeID(u))
				}
			}
			found := false
			for _, m := range cv.Node[v] {
				if m.Layer != layer {
					continue
				}
				all := true
				for _, u := range ball {
					if _, ok := members[m.Cluster][u]; !ok {
						all = false
						break
					}
				}
				if all {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("layer %d: node %d's ball (%d nodes) not covered", layer, v, len(ball))
			}
		}
	}

	// Parent containment (Definition 3.4): parent(C) contains C and its
	// B^(j+1)/2-neighborhood.
	top := len(cv.Layers) - 1
	for cid, ms := range members {
		layer := layerOf[cid]
		if layer == top {
			if parentOf[cid] != -1 {
				t.Fatalf("top cluster %d has parent %d", cid, parentOf[cid])
			}
			continue
		}
		pc := parentOf[cid]
		if pc < 0 {
			t.Fatalf("cluster %d (layer %d) lacks a parent", cid, layer)
		}
		half := cv.Layers[layer+1].Radius / 2
		for v := range ms {
			for i, h := range g.Adj(v) {
				if _, ok := members[pc][h.To]; !ok && inSet(int(h.To)) && w(v, i) <= cv.MaxDist {
					t.Fatalf("cluster %d's parent %d misses node %d, a neighbour of member %d across weight %d",
						cid, pc, h.To, v, w(v, i))
				}
			}
			dist := metricDist(g, v, participants, w)
			for u := 0; u < n; u++ {
				if inSet(u) && dist[u] >= 0 && dist[u] <= half && dist[u] < graph.Inf {
					if _, ok := members[pc][graph.NodeID(u)]; !ok {
						t.Fatalf("cluster %d's parent %d misses node %d at distance %d from member %d",
							cid, pc, u, dist[u], v)
					}
				}
			}
		}
	}
}

func TestCoverPath(t *testing.T) {
	g := graph.Path(20, graph.UnitWeights)
	cv, err := Build(g, nil, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	verifyCover(t, g, cv, nil, nil)
}

func TestCoverGrid(t *testing.T) {
	g := graph.Grid2D(6, 6, graph.UnitWeights)
	cv, err := Build(g, nil, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	verifyCover(t, g, cv, nil, nil)
}

func TestCoverRandom(t *testing.T) {
	g := graph.RandomConnected(40, 40, graph.UnitWeights, 3)
	cv, err := Build(g, nil, nil, 12)
	if err != nil {
		t.Fatal(err)
	}
	verifyCover(t, g, cv, nil, nil)
}

func TestCoverClusters(t *testing.T) {
	g := graph.Clusters(4, 8, 5, graph.UnitWeights, 9)
	cv, err := Build(g, nil, nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	verifyCover(t, g, cv, nil, nil)
}

func TestCoverWeightedMetric(t *testing.T) {
	g := graph.RandomConnected(25, 20, graph.UniformWeights(4, 7), 7)
	w := func(u graph.NodeID, i int) int64 { return g.Adj(u)[i].W }
	cv, err := Build(g, nil, w, 15)
	if err != nil {
		t.Fatal(err)
	}
	verifyCover(t, g, cv, nil, w)
}

func TestCoverParticipantsMask(t *testing.T) {
	g := graph.Path(16, graph.UnitWeights)
	participants := make([]bool, 16)
	for v := 0; v < 8; v++ {
		participants[v] = true
	}
	cv, err := Build(g, participants, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := 8; v < 16; v++ {
		if len(cv.Node[v]) != 0 {
			t.Fatalf("non-participant %d has memberships", v)
		}
	}
	verifyCover(t, g, cv, participants, nil)
}

func TestCoverOverlapModest(t *testing.T) {
	g := graph.RandomConnected(80, 120, graph.UnitWeights, 11)
	cv, err := Build(g, nil, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Per-node overlap across all layers stays O(log n * layers).
	budget := int(Stretch(g.N())) * len(cv.Layers) * 2
	if ov := cv.MaxOverlap(); ov > budget {
		t.Fatalf("overlap %d exceeds %d", ov, budget)
	}
	if cv.MaxEdgeTreeOverlap(g) > budget {
		t.Fatalf("edge-tree overlap %d exceeds %d", cv.MaxEdgeTreeOverlap(g), budget)
	}
}

func TestCoverTopLayerRadius(t *testing.T) {
	g := graph.Path(10, graph.UnitWeights)
	cv, err := Build(g, nil, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	topR := cv.Layers[len(cv.Layers)-1].Radius
	if topR < 2*7 {
		t.Fatalf("top radius %d < 2*maxDist", topR)
	}
}

func TestCoverBadMaxDist(t *testing.T) {
	if _, err := Build(graph.Path(3, graph.UnitWeights), nil, nil, 0); err == nil {
		t.Fatal("want error for maxDist < 1")
	}
}

// TestCoverHeavyWeights: covers under metrics whose single edges outweigh
// the lower layers' radii (weights up to n) across graph families.
func TestCoverHeavyWeights(t *testing.T) {
	for _, fam := range []graph.Family{graph.FamilyRandom, graph.FamilyGrid, graph.FamilyExpander, graph.FamilyPowerLaw} {
		for _, n := range []int{24, 32, 64} {
			g := graph.Make(fam, n, graph.UniformWeights(int64(n), 7), 3)
			w := func(u graph.NodeID, i int) int64 { return g.Adj(u)[i].W }
			cv, err := Build(g, nil, w, int64(n))
			if err != nil {
				t.Fatal(err)
			}
			verifyCover(t, g, cv, nil, w)
		}
	}
}
