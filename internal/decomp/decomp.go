// Package decomp builds the layered sparse covers of Section 3.2 of the
// paper: for each layer j, a sparse B^j-cover — a set of clusters with
// low-depth spanning trees such that every node's B^j-ball is fully inside
// some cluster and every node belongs to few clusters — plus the parent
// assignment between consecutive layers (Definition 3.4): parent(C)
// contains C and its B^(j+1)/2-neighborhood.
//
// The paper constructs covers with the Rozhon–Ghaffari network
// decomposition (Theorems 3.10–3.12), whose contribution is its distributed
// round/energy complexity. This package provides the construction as a
// deterministic centralized ("oracle") builder using Awerbuch–Peleg-style
// ball growing, which yields the same interface guarantees the downstream
// algorithms rely on — cover property, cluster-tree depth at most
// stretch·B^j with stretch O(log n), per-node cluster overlap O(log n) —
// and is used to install covers into the simulator. DESIGN.md documents
// this substitution; the experiment E4 measures the actual stretch and
// overlap against the theoretical caps, and package energybfs performs all
// cover *usage* (the activation cascade of Section 3.3) strictly in-model.
package decomp

import (
	"fmt"
	"math/bits"

	"dsssp/internal/graph"
)

// Membership is one node's view of one cluster it belongs to.
type Membership struct {
	// Cluster is the globally unique cluster ID.
	Cluster int32
	// Layer is the cover layer (0-based).
	Layer int
	// Depth is the node's depth in the cluster tree.
	Depth int64
	// Parent is the adjacency index toward the cluster-tree parent (-1 at
	// the cluster root).
	Parent int
	// Children are adjacency indexes of cluster-tree children.
	Children []int
	// ParentCluster is the ID of the assigned parent cluster at layer+1
	// (-1 at the top layer).
	ParentCluster int32
}

// LayerMeta describes one cover layer.
type LayerMeta struct {
	// Radius is B^j, the covered ball radius.
	Radius int64
	// MaxDepth is the maximum cluster-tree depth on this layer.
	MaxDepth int64
	// Period is the cluster protocol period used by package energybfs:
	// one full convergecast+broadcast cycle fits in a window.
	Period int64
	// Clusters counts clusters on this layer.
	Clusters int
}

// Cover is a layered sparse cover of (a subgraph of) a graph.
type Cover struct {
	// B is the layer base (B >= 2*stretch so parents cover half-radius
	// neighborhoods).
	B      int64
	Layers []LayerMeta
	// Node[v] lists v's memberships across all layers (nil for
	// non-participants).
	Node [][]Membership
	// ClusterCount is the total number of clusters.
	ClusterCount int
	// MaxDist is the distance the top layer covers (B^L >= 2*MaxDist).
	MaxDist int64
}

// Stretch returns the construction's stretch bound for an n-node graph:
// cluster radius <= Stretch(n) * B^j.
func Stretch(n int) int64 {
	if n < 2 {
		return 3
	}
	return 2*int64(bits.Len(uint(n-1))) + 3
}

// Base returns the layer base B = 2*Stretch(n), chosen so that a layer-j
// cluster plus its B^(j+1)/2-neighborhood fits inside a layer-(j+1) ball.
func Base(n int) int64 { return 2 * Stretch(n) }

// WeightFn gives the (positive) metric weight of node u's i-th incident
// edge. Nil means hop metric (all ones).
type WeightFn func(u graph.NodeID, i int) int64

// Build constructs a layered sparse cover of the participant-induced
// subgraph under the given metric, with layers 0..L where B^L >= 2*maxDist.
// participants == nil means all nodes. All weights must be >= 1.
func Build(g *graph.Graph, participants []bool, weight WeightFn, maxDist int64) (*Cover, error) {
	if maxDist < 1 {
		return nil, fmt.Errorf("decomp: maxDist must be >= 1, got %d", maxDist)
	}
	n := g.N()
	inSet := func(v graph.NodeID) bool { return participants == nil || participants[v] }
	w := weight
	if w == nil {
		w = func(graph.NodeID, int) int64 { return 1 }
	}

	cv := &Cover{B: Base(n), Node: make([][]Membership, n), MaxDist: maxDist}
	stretch := Stretch(n)
	radius := int64(1)
	clusterID := int32(0)
	// homes[j][v] = cluster whose creation covered v's layer-j ball.
	var homes [][]int32
	// centers[c] = center node of cluster c; layerOf[c] = its layer.
	var centers []graph.NodeID
	b := newBall(n)

	for layer := 0; ; layer++ {
		meta := LayerMeta{Radius: radius}
		var maxActualRadius int64
		home := make([]int32, n)
		for i := range home {
			home[i] = -1
		}
		// Deterministic ball growing: repeatedly take the lowest-ID
		// uncovered node, grow its ball until one more 2d-expansion less
		// than doubles it, and emit the expanded ball as a cluster.
		for v := 0; v < n; v++ {
			if !inSet(graph.NodeID(v)) || home[v] >= 0 {
				continue
			}
			r := radius
			for {
				b.grow(g, graph.NodeID(v), r, inSet, w)
				inner := b.size()
				b.grow(g, graph.NodeID(v), r+2*radius, inSet, w)
				if b.size() <= 2*inner || r >= 2*stretch*radius {
					break
				}
				r += 2 * radius
			}
			cr := r + 2*radius
			b.grow(g, graph.NodeID(v), cr, inSet, w)
			dist, parent := b.dist, b.parent
			for _, u := range b.reached {
				maxActualRadius = max(maxActualRadius, dist[u])
			}
			id := clusterID
			clusterID++
			centers = append(centers, graph.NodeID(v))
			meta.Clusters++
			// Members: the full expanded ball; homes: the inner ball.
			for u := 0; u < n; u++ {
				if dist[u] < 0 {
					continue
				}
				if dist[u] <= r && home[u] < 0 {
					home[u] = id
				}
				m := Membership{
					Cluster: id, Layer: layer, ParentCluster: -1,
					Depth: hopDepth(g, graph.NodeID(u), parent), Parent: parent[u],
				}
				if m.Depth > meta.MaxDepth {
					meta.MaxDepth = m.Depth
				}
				cv.Node[u] = append(cv.Node[u], m)
			}
			// Children lists from parent pointers.
			for u := 0; u < n; u++ {
				if dist[u] >= 0 && parent[u] >= 0 {
					p := g.Adj(graph.NodeID(u))[parent[u]].To
					pm := lastMembership(cv.Node[p], id)
					pi := indexOfNeighbor(g, p, graph.NodeID(u))
					pm.Children = append(pm.Children, pi)
				}
			}
		}
		meta.Period = 2*meta.MaxDepth + 4
		cv.Layers = append(cv.Layers, meta)
		homes = append(homes, home)
		if radius >= 2*maxDist {
			break
		}
		// Adaptive layer growth: the next radius is at least twice the
		// largest actual cluster radius of this layer, which guarantees the
		// Definition 3.4 parent containment (r_C <= d_{j+1}/2) directly
		// from measured geometry rather than the worst-case stretch bound;
		// the factor-4 floor bounds the layer count by log(maxDist).
		next := 4 * radius
		if 2*maxActualRadius > next {
			next = 2 * maxActualRadius
		}
		radius = next
		if len(cv.Layers) > 64 {
			return nil, fmt.Errorf("decomp: layer overflow (maxDist=%d)", maxDist)
		}
	}
	cv.ClusterCount = int(clusterID)
	// Monotone layer depths/periods: the activation-latency argument of
	// package energybfs (Lemma 3.7's condition) wants P_j non-decreasing in
	// j; padding a layer's depth bound only lengthens its windows.
	for j := 1; j < len(cv.Layers); j++ {
		if cv.Layers[j].MaxDepth < cv.Layers[j-1].MaxDepth {
			cv.Layers[j].MaxDepth = cv.Layers[j-1].MaxDepth
		}
		cv.Layers[j].Period = 2*cv.Layers[j].MaxDepth + 4
	}

	// Parent assignment: parent(C at layer j) = the layer j+1 cluster that
	// covered C's center's B^(j+1)-ball; it contains C plus its
	// B^(j+1)/2-neighborhood because C's radius <= stretch*B^j <= B^(j+1)/2.
	top := len(cv.Layers) - 1
	for v := 0; v < n; v++ {
		for i := range cv.Node[v] {
			m := &cv.Node[v][i]
			if m.Layer < top {
				m.ParentCluster = homes[m.Layer+1][centers[m.Cluster]]
			}
		}
	}
	return cv, nil
}

// ball is the bounded-Dijkstra scratch one Build reuses across all its
// balls: after grow, dist[u] is u's metric distance from the center (-1
// outside the ball), parent[u] its tree-parent adjacency index (-1 at the
// center and outside), and reached lists the ball's nodes.
type ball struct {
	dist    []int64
	parent  []int
	reached []graph.NodeID
	heap    []distEntry
}

func newBall(n int) *ball {
	b := &ball{dist: make([]int64, n), parent: make([]int, n)}
	for i := range b.dist {
		b.dist[i] = -1
		b.parent[i] = -1
	}
	return b
}

// size is the number of participant nodes in the last grown ball.
func (b *ball) size() int64 { return int64(len(b.reached)) }

// grow runs bounded Dijkstra from v over participants up to metric
// distance r, clearing only the entries the previous ball set.
func (b *ball) grow(g *graph.Graph, v graph.NodeID, r int64, inSet func(graph.NodeID) bool, w WeightFn) {
	for _, u := range b.reached {
		b.dist[u] = -1
		b.parent[u] = -1
	}
	b.reached = b.reached[:0]
	if !inSet(v) {
		return
	}
	b.dist[v] = 0
	b.reached = append(b.reached, v)
	b.heap = append(b.heap[:0], distEntry{v, 0})
	for len(b.heap) > 0 {
		var top distEntry
		top, b.heap = heapPopDist(b.heap)
		if top.d > b.dist[top.v] {
			continue
		}
		for i, h := range g.Adj(top.v) {
			if !inSet(h.To) {
				continue
			}
			wt := w(top.v, i)
			if wt < 1 {
				panic(fmt.Sprintf("decomp: non-positive metric weight at node %d edge %d", top.v, i))
			}
			nd := top.d + wt
			if nd > r {
				continue
			}
			if d := b.dist[h.To]; d < 0 || nd < d {
				if d < 0 {
					b.reached = append(b.reached, h.To)
				}
				b.dist[h.To] = nd
				// Record the parent as h.To's index of this edge.
				b.parent[h.To] = indexOfNeighborEdge(g, h.To, h.ID)
				b.heap = heapPushDist(b.heap, distEntry{h.To, nd})
			}
		}
	}
}

type distEntry struct {
	v graph.NodeID
	d int64
}

// heapPushDist / heapPopDist implement a binary min-heap on d over a typed
// slice, so the frontier does not box its entries.
func heapPushDist(h []distEntry, e distEntry) []distEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[i].d >= h[p].d {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func heapPopDist(h []distEntry) (distEntry, []distEntry) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h) && h[l].d < h[s].d {
			s = l
		}
		if r < len(h) && h[r].d < h[s].d {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return top, h
}

// hopDepth follows parent adjacency indexes to the root counting hops.
func hopDepth(g *graph.Graph, u graph.NodeID, parent []int) int64 {
	var d int64
	for parent[u] >= 0 {
		u = g.Adj(u)[parent[u]].To
		d++
		if d > int64(g.N()) {
			panic("decomp: parent cycle")
		}
	}
	return d
}

func indexOfNeighbor(g *graph.Graph, u, to graph.NodeID) int {
	for i, h := range g.Adj(u) {
		if h.To == to {
			return i
		}
	}
	panic("decomp: neighbor not found")
}

func indexOfNeighborEdge(g *graph.Graph, u graph.NodeID, id graph.EdgeID) int {
	for i, h := range g.Adj(u) {
		if h.ID == id {
			return i
		}
	}
	panic("decomp: edge not found")
}

func lastMembership(ms []Membership, cluster int32) *Membership {
	for i := len(ms) - 1; i >= 0; i-- {
		if ms[i].Cluster == cluster {
			return &ms[i]
		}
	}
	panic("decomp: membership not found")
}

// MaxOverlap returns the maximum number of clusters any single node
// belongs to (the paper's per-node O(log n)-per-layer sparsity measure).
func (c *Cover) MaxOverlap() int {
	m := 0
	for _, ms := range c.Node {
		if len(ms) > m {
			m = len(ms)
		}
	}
	return m
}

// MaxEdgeTreeOverlap returns the maximum, over edges, of the number of
// cluster trees using that edge (Theorem 3.10's O(log^4 n) measure).
func (c *Cover) MaxEdgeTreeOverlap(g *graph.Graph) int {
	cnt := make(map[graph.EdgeID]map[int32]bool)
	for v, ms := range c.Node {
		for _, m := range ms {
			if m.Parent >= 0 {
				id := g.Adj(graph.NodeID(v))[m.Parent].ID
				if cnt[id] == nil {
					cnt[id] = make(map[int32]bool)
				}
				cnt[id][m.Cluster] = true
			}
		}
	}
	best := 0
	for _, s := range cnt {
		if len(s) > best {
			best = len(s)
		}
	}
	return best
}
