// Package graph provides the weighted undirected graph substrate used by all
// distributed algorithms in this repository: graph construction, generators
// for the workload families of the experiments, structural properties, and
// sequential reference algorithms (Dijkstra, BFS) used to verify the
// distributed implementations.
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a node; nodes are numbered 0..N-1.
type NodeID int32

// EdgeID identifies an undirected edge; edges are numbered 0..M-1. Both
// directions of an edge share the EdgeID, which is what the per-edge
// congestion accounting keys on.
type EdgeID int32

// Inf is the distance value used for "unreachable / above threshold".
const Inf = int64(1) << 62

// MaxThreshold is the largest start threshold D0 the CSSP engine's distance
// arithmetic supports. D0 is the power of two above n·maxW + maxOff on the
// engine's graph; every answer it can produce is below D0, and Inf (2·D0
// here) is the not-found sentinel, so D0 = Inf would turn every distance,
// the source's included, into Inf. The recursion's V1 test compares
// approx·εDen with D·(εDen+εNum) — 3·D at the default ε = 1/2 — and the
// sleeping cutter's depth is 2·D/ρ; both stay inside int64 at D = 2^61.
const MaxThreshold = Inf / 2

// MaxSafeWeight returns the largest edge weight for which every SSSP on an
// n-node graph stays exact: n·(n+1)·w + 1 < MaxThreshold. The factor n+1 is
// the engine's zero-weight rescaling (Theorem 2.7: with a zero weight
// present every weight is multiplied by n+1), the factor n bounds a
// shortest path's hop count, and the +1 makes the start threshold a power
// of two strictly above every finite distance.
func MaxSafeWeight(n int) int64 {
	n64 := max(int64(n), 1)
	return (MaxThreshold - 2) / (n64 * (n64 + 1))
}

// Half is one directed half of an undirected edge as seen from one endpoint.
type Half struct {
	To NodeID
	W  int64
	ID EdgeID
}

// Graph is an undirected weighted simple graph (self-loops are rejected;
// duplicate edges canonicalize under the keep-min policy — see AddEdge).
// The zero value is an empty graph; use New.
type Graph struct {
	n   int
	m   int
	adj [][]Half
	// index maps a canonical endpoint pair (min<<32 | max) to its EdgeID,
	// so AddEdge can detect duplicates in O(1) and the keep-min policy is
	// cheap enough to be unconditional. The map insert taxes every
	// AddEdge, including generator paths that never produce duplicates —
	// a deliberate trade: graph construction is noise next to the
	// simulations run on the graph, and an unconditional policy is what
	// makes a Graph a pure function of its edge set (the serving layer's
	// cache-keying invariant) with no "trusted builder" carve-outs.
	index map[uint64]EdgeID
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{n: n, adj: make([][]Half, n), index: make(map[uint64]EdgeID)}
}

func pairKey(u, v NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts an undirected edge {u,v} with weight w and returns its
// EdgeID. Weights must be non-negative. Self-loops are rejected.
//
// Duplicate edges canonicalize under the keep-min policy: adding {u,v} when
// the pair already exists keeps the minimum of the two weights on the
// existing edge and returns the existing EdgeID — M() does not grow. The
// policy makes a graph a pure function of its edge *set* (insertion
// multiplicity never changes distances, and min is the only merge under
// which shortest paths are preserved), which is what lets the serving
// layer's content-addressed cache key on a canonical edge list.
func (g *Graph) AddEdge(u, v NodeID, w int64) EdgeID {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if u < 0 || int(u) >= g.n || v < 0 || int(v) >= g.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range (n=%d)", u, v, g.n))
	}
	if w < 0 {
		panic(fmt.Sprintf("graph: negative weight %d on edge {%d,%d}", w, u, v))
	}
	if g.index == nil {
		g.index = make(map[uint64]EdgeID)
	}
	key := pairKey(u, v)
	if id, dup := g.index[key]; dup {
		g.setWeightIfLess(u, id, w)
		g.setWeightIfLess(v, id, w)
		return id
	}
	id := EdgeID(g.m)
	g.index[key] = id
	g.adj[u] = append(g.adj[u], Half{To: v, W: w, ID: id})
	g.adj[v] = append(g.adj[v], Half{To: u, W: w, ID: id})
	g.m++
	return id
}

// setWeightIfLess lowers the weight of u's half of edge id to w if smaller.
func (g *Graph) setWeightIfLess(u NodeID, id EdgeID, w int64) {
	for i := range g.adj[u] {
		if g.adj[u][i].ID == id && w < g.adj[u][i].W {
			g.adj[u][i].W = w
		}
	}
}

// Adj returns the adjacency list of u. The returned slice is owned by the
// graph and must not be modified.
func (g *Graph) Adj(u NodeID) []Half { return g.adj[u] }

// Degree returns the degree of u.
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// MaxWeight returns the maximum edge weight (0 for an edgeless graph).
func (g *Graph) MaxWeight() int64 {
	var mw int64
	for u := 0; u < g.n; u++ {
		for _, h := range g.adj[u] {
			if h.W > mw {
				mw = h.W
			}
		}
	}
	return mw
}

// HasEdge reports whether an edge {u,v} exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	for _, h := range g.adj[u] {
		if h.To == v {
			return true
		}
	}
	return false
}

// SortAdj sorts every adjacency list by (To, ID). The simulator relies on a
// canonical neighbor order for deterministic message scheduling; every
// generator calls this before returning.
func (g *Graph) SortAdj() {
	for u := range g.adj {
		a := g.adj[u]
		sort.Slice(a, func(i, j int) bool {
			if a[i].To != a[j].To {
				return a[i].To < a[j].To
			}
			return a[i].ID < a[j].ID
		})
	}
}

// Edges returns all undirected edges as (u,v,w) triples with u < v, indexed
// by EdgeID. The slice is freshly allocated.
func (g *Graph) Edges() []EdgeTriple {
	out := make([]EdgeTriple, g.m)
	seen := make([]bool, g.m)
	for u := 0; u < g.n; u++ {
		for _, h := range g.adj[u] {
			if seen[h.ID] {
				continue
			}
			seen[h.ID] = true
			a, b := NodeID(u), h.To
			if a > b {
				a, b = b, a
			}
			out[h.ID] = EdgeTriple{U: a, V: b, W: h.W, ID: h.ID}
		}
	}
	return out
}

// EdgeTriple is an undirected edge with endpoints in canonical order (U < V).
type EdgeTriple struct {
	U, V NodeID
	W    int64
	ID   EdgeID
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	ng := &Graph{n: g.n, m: g.m, adj: make([][]Half, g.n), index: make(map[uint64]EdgeID, len(g.index))}
	for u := range g.adj {
		ng.adj[u] = append([]Half(nil), g.adj[u]...)
	}
	for k, id := range g.index {
		ng.index[k] = id
	}
	return ng
}

// Reweight returns a copy of the graph with every edge weight mapped through
// f (keyed by EdgeID so both halves stay consistent).
func (g *Graph) Reweight(f func(EdgeID, int64) int64) *Graph {
	ng := g.Clone()
	for u := range ng.adj {
		for i := range ng.adj[u] {
			h := &ng.adj[u][i]
			h.W = f(h.ID, h.W)
		}
	}
	return ng
}

// Validate checks internal consistency (paired halves, weight agreement,
// edge count) and returns an error describing the first violation.
func (g *Graph) Validate() error {
	type dir struct {
		u, v NodeID
		w    int64
	}
	halves := make(map[EdgeID][]dir)
	total := 0
	for u := 0; u < g.n; u++ {
		for _, h := range g.adj[u] {
			if h.To < 0 || int(h.To) >= g.n {
				return fmt.Errorf("node %d: neighbor %d out of range", u, h.To)
			}
			halves[h.ID] = append(halves[h.ID], dir{NodeID(u), h.To, h.W})
			total++
		}
	}
	if total != 2*g.m {
		return fmt.Errorf("half count %d != 2m (m=%d)", total, g.m)
	}
	pairs := make(map[uint64]EdgeID, len(halves))
	for id, ds := range halves {
		if len(ds) != 2 {
			return fmt.Errorf("edge %d has %d halves", id, len(ds))
		}
		a, b := ds[0], ds[1]
		if a.u != b.v || a.v != b.u {
			return fmt.Errorf("edge %d: halves disagree on endpoints", id)
		}
		if a.w != b.w {
			return fmt.Errorf("edge %d: halves disagree on weight (%d vs %d)", id, a.w, b.w)
		}
		key := pairKey(a.u, a.v)
		if other, dup := pairs[key]; dup {
			return fmt.Errorf("edges %d and %d duplicate the pair {%d,%d} — AddEdge's keep-min policy should have merged them", other, id, a.u, a.v)
		}
		pairs[key] = id
	}
	return nil
}
