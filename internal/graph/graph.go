// Package graph provides the weighted undirected graph substrate used by all
// distributed algorithms in this repository: graph construction, generators
// for the workload families of the experiments, structural properties, and
// sequential reference algorithms (Dijkstra, BFS) used to verify the
// distributed implementations.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// NodeID identifies a node; nodes are numbered 0..N-1.
type NodeID int32

// EdgeID identifies an undirected edge; edges are numbered 0..M-1 in pair
// order (see SortAdj), so every built graph's numbering is a function of
// its edge set. Both directions of an edge share the EdgeID, which is what
// the per-edge congestion accounting keys on.
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
	// Rev is the far endpoint's adjacency index of the same edge: the port
	// a message sent over this half arrives on, so Adj(To)[Rev] is the
	// other half. It sits in what was padding; Half stays 24 bytes.
	Rev int32
}

// Graph is an undirected weighted simple graph (self-loops are rejected;
// duplicate edges canonicalize under the keep-min policy — see AddEdge).
// Its adjacency lists are the only pair index: a pair is found by scanning
// the shorter endpoint list (Weight, AddEdge), so a repeat costs O(min
// degree). Bulk callers hand a whole edge list to FromEdges instead.
// The zero value is an empty graph; use New.
//
// A canonical graph's adjacency lists may be shared with the graphs
// ApplyChanges derives from it, or it from (copy-on-write), so AddEdge
// copies before it writes one; a graph that is not canonical holds all its
// lists alone.
type Graph struct {
	n   int
	m   int
	adj [][]Half
	// canonical records that every list is sorted and the edges are
	// numbered in pair order: what build, SortAdj and ApplyChanges leave,
	// and an AddEdge insert undoes.
	canonical bool
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{n: n, adj: make([][]Half, n)}
}

// PairKey is the canonical key of the unordered pair {u,v}: min<<32 | max.
// It orders Edges' and FromEdges' lists and keys every per-pair ledger.
func PairKey(u, v NodeID) uint64 {
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
// EdgeID. Weights must be non-negative. Self-loops are rejected. The ID is
// provisional: it counts insertions, and SortAdj renumbers every edge by
// its pair rank.
//
// Duplicate edges canonicalize under the keep-min policy: adding {u,v} when
// the pair already exists keeps the minimum of the two weights on the
// existing edge and returns the existing EdgeID — M() does not grow. The
// policy makes a graph a pure function of its edge *set* (insertion
// multiplicity never changes distances, and min is the only merge under
// which shortest paths are preserved), which is what lets the serving
// layer's content-addressed cache key on a canonical edge list. The repeat
// check scans the shorter endpoint list, so an insert costs O(min degree):
// a caller with a whole edge list uses FromEdges. The first insert into a
// canonical graph copies every list (O(n + m)), and a keep-min write into
// one copies both endpoint lists, since they may be shared.
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
	a, b := u, v
	if len(g.adj[b]) < len(g.adj[a]) {
		a, b = b, a
	}
	for i, h := range g.adj[a] {
		if h.To == b {
			if w < h.W {
				if g.canonical {
					g.adj[a], g.adj[b] = ownList(g.adj[a]), ownList(g.adj[b])
				}
				g.adj[a][i].W = w
				g.adj[b][h.Rev].W = w
			}
			return h.ID
		}
	}
	if g.canonical { // SortAdj will renumber every list
		g.adj, g.canonical = ownLists(g.adj), false
	}
	id := EdgeID(g.m)
	g.appendEdge(u, v, w, id)
	g.m++
	return id
}

// ownList returns a copy of a whose capacity is its length.
func ownList(a []Half) []Half {
	if len(a) == 0 {
		return a
	}
	return append(make([]Half, 0, len(a)), a...)
}

// appendEdge appends both halves of edge id, each pointing at the other.
func (g *Graph) appendEdge(u, v NodeID, w int64, id EdgeID) {
	iu, iv := int32(len(g.adj[u])), int32(len(g.adj[v]))
	g.adj[u] = append(g.adj[u], Half{To: v, W: w, ID: id, Rev: iv})
	g.adj[v] = append(g.adj[v], Half{To: u, W: w, ID: id, Rev: iu})
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

// Weight returns the weight of edge {u,v} and whether the edge exists; an
// endpoint out of range has no edges. It scans the shorter of the two
// adjacency lists, so a lookup at a hub costs the other endpoint's degree.
func (g *Graph) Weight(u, v NodeID) (int64, bool) {
	if u < 0 || int(u) >= g.n || v < 0 || int(v) >= g.n {
		return 0, false
	}
	if len(g.adj[v]) < len(g.adj[u]) {
		u, v = v, u
	}
	for _, h := range g.adj[u] {
		if h.To == v {
			return h.W, true
		}
	}
	return 0, false
}

// HasEdge reports whether an edge {u,v} exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.Weight(u, v)
	return ok
}

// SortAdj sorts every adjacency list by neighbor, re-links the Rev ports
// and renumbers the edges in pair order: EdgeID i is the i-th pair {u,v},
// u < v, sorted by (u, v). The simulator relies on a canonical neighbor
// order for deterministic message scheduling, and forest.Build breaks ties
// by EdgeID, so a sorted graph — every generator's and builder's output —
// is a pure function of its edge set, EdgeIDs included. A graph already
// canonical is left as it is.
func (g *Graph) SortAdj() {
	if g.canonical {
		return
	}
	for _, a := range g.adj {
		slices.SortFunc(a, func(x, y Half) int { return cmp.Compare(x.To, y.To) })
	}
	// Walking each u's halves toward higher nodes, u ascending, visits the
	// pairs in pair order and meets the reverse halves — v's halves toward
	// lower nodes, which lead v's list — in v's own order, so a cursor per
	// node finds each of them.
	next := make([]int32, g.n)
	id := EdgeID(0)
	for u, a := range g.adj {
		for i, h := range a {
			if h.To < NodeID(u) {
				continue
			}
			j := next[h.To]
			next[h.To]++
			a[i].Rev, a[i].ID = j, id
			g.adj[h.To][j].Rev, g.adj[h.To][j].ID = int32(i), id
			id++
		}
	}
	g.canonical = true
}

// ownLists copies every list of adj into one fresh allocation, each list's
// capacity its length; an empty list becomes nil, as New leaves it.
func ownLists(adj [][]Half) [][]Half {
	total := 0
	for _, a := range adj {
		total += len(a)
	}
	flat := make([]Half, total)
	out := make([][]Half, len(adj))
	off := 0
	for u, a := range adj {
		if len(a) > 0 {
			out[u] = flat[off : off+len(a) : off+len(a)]
			copy(out[u], a)
			off += len(a)
		}
	}
	return out
}

// Canonical returns g if it is in canonical form — every adjacency list
// sorted by neighbor and the edges numbered in pair order, as SortAdj
// leaves them — and otherwise a sorted clone, leaving g untouched. The
// simulator's message order and forest.Build's EdgeID tie-break follow
// the adjacency, so a run on Canonical(g) is a function of g's edge set.
func (g *Graph) Canonical() *Graph {
	if g.canonical {
		return g
	}
	id := EdgeID(0)
	for u, a := range g.adj {
		for i, h := range a {
			if i > 0 && h.To <= a[i-1].To {
				return g.sorted()
			}
			if h.To > NodeID(u) {
				if h.ID != id {
					return g.sorted()
				}
				id++
			}
		}
	}
	return g
}

func (g *Graph) sorted() *Graph {
	c := g.Clone()
	c.SortAdj()
	return c
}

// CheckSources returns an error naming the lowest key of sources that is
// not a node of g, or nil when every key is one.
func CheckSources[V any](g *Graph, sources map[NodeID]V) error {
	bad, found := NodeID(0), false
	for v := range sources {
		if (v < 0 || int(v) >= g.n) && (!found || v < bad) {
			bad, found = v, true
		}
	}
	if !found {
		return nil
	}
	return fmt.Errorf("source %d is not a node of the %d-node graph", bad, g.n)
}

// Edges lists the graph's edges as (u,v,w) triples with u < v, in pair
// order — sorted by (U, V) — reading each edge off its smaller endpoint's
// adjacency list. For a sorted graph that is EdgeID order, and
// FromEdges(g.N(), g.Edges()) reproduces it; a graph AddEdge left unsorted
// is sorted once here. The slice is freshly allocated.
func (g *Graph) Edges() []EdgeTriple {
	out := make([]EdgeTriple, 0, g.m)
	sorted := true
	for u, hs := range g.adj {
		prev := NodeID(u)
		for _, h := range hs {
			if h.To <= NodeID(u) {
				continue
			}
			if h.To < prev {
				sorted = false
			}
			prev = h.To
			out = append(out, EdgeTriple{U: NodeID(u), V: h.To, W: h.W, ID: h.ID})
		}
	}
	if !sorted {
		slices.SortFunc(out, func(a, b EdgeTriple) int { return cmp.Compare(PairKey(a.U, a.V), PairKey(b.U, b.V)) })
	}
	return out
}

// EdgeTriple is an undirected edge with endpoints in canonical order (U < V).
type EdgeTriple struct {
	U, V NodeID
	W    int64
	ID   EdgeID
}

// FromEdges is the inverse of Edges: it returns the n-node graph whose edge
// i is edges[i], numbered i whatever ID it carries. The edges must be in
// strict pair order, so FromEdges(g.N(), g.Edges()) reproduces any sorted
// graph, EdgeIDs and Rev ports included. Unlike AddEdge it returns an
// error instead of panicking or merging: on an endpoint out of range, a
// self-loop, endpoints not in canonical order, a negative weight, or two
// neighbouring edges out of pair order or repeating a pair.
func FromEdges(n int, edges []EdgeTriple) (*Graph, error) {
	if err := CheckEdges(n, edges); err != nil {
		return nil, err
	}
	return build(n, edges), nil
}

// CheckEdges returns the error FromEdges(n, edges) would, without building
// the graph: nil exactly for an n-node edge list in strict pair order.
func CheckEdges(n int, edges []EdgeTriple) error {
	if n < 0 {
		return fmt.Errorf("graph: negative node count %d", n)
	}
	var prev uint64
	for i, e := range edges {
		switch k := PairKey(e.U, e.V); {
		case e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n:
			return fmt.Errorf("graph: edge %d {%d,%d} out of range (n=%d)", i, e.U, e.V, n)
		case e.U == e.V:
			return fmt.Errorf("graph: edge %d is a self-loop at node %d", i, e.U)
		case e.U > e.V:
			return fmt.Errorf("graph: edge %d {%d,%d} not in canonical order u < v", i, e.U, e.V)
		case e.W < 0:
			return fmt.Errorf("graph: edge %d {%d,%d} has negative weight %d", i, e.U, e.V, e.W)
		case i > 0 && k == prev:
			return fmt.Errorf("graph: edges %d and %d repeat the pair {%d,%d}", i-1, i, e.U, e.V)
		case i > 0 && k < prev:
			p := edges[i-1]
			return fmt.Errorf("graph: edges %d {%d,%d} and %d {%d,%d} are out of pair order", i-1, p.U, p.V, i, e.U, e.V)
		default:
			prev = k
		}
	}
	return nil
}

// build returns the n-node graph whose edge i is edges[i], without
// checking endpoints, weights or pair uniqueness. The halves are carved
// from one flat slice (capacity-limited per node, so a later AddEdge
// reallocates instead of overwriting a neighbor). Input in pair order —
// sorted by (U, V) — is numbered by position and leaves every adjacency
// list sorted already; any other order costs one SortAdj, which numbers
// the edges by pair rank all the same.
func build(n int, edges []EdgeTriple) *Graph {
	g := &Graph{n: n, m: len(edges), adj: make([][]Half, n)}
	deg := make([]int32, n)
	pairOrder := true
	var prev uint64
	for i, e := range edges {
		deg[e.U]++
		deg[e.V]++
		k := PairKey(e.U, e.V)
		if i > 0 && k <= prev {
			pairOrder = false
		}
		prev = k
	}
	flat := make([]Half, 2*len(edges))
	off := 0
	for u, d := range deg {
		if d > 0 { // an isolated node keeps a nil list, as New leaves it
			g.adj[u] = flat[off : off : off+int(d)]
			off += int(d)
		}
	}
	for i, e := range edges {
		g.appendEdge(e.U, e.V, e.W, EdgeID(i))
	}
	g.canonical = pairOrder
	g.SortAdj()
	return g
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	return &Graph{n: g.n, m: g.m, adj: ownLists(g.adj), canonical: g.canonical}
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
// edge count, Rev ports) and returns an error describing the first
// violation.
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
		key := PairKey(a.u, a.v)
		if other, dup := pairs[key]; dup {
			return fmt.Errorf("edges %d and %d duplicate the pair {%d,%d} — AddEdge's keep-min policy should have merged them", other, id, a.u, a.v)
		}
		pairs[key] = id
	}
	for u, a := range g.adj {
		for i, h := range a {
			far := g.adj[h.To]
			if h.Rev < 0 || int(h.Rev) >= len(far) || far[h.Rev].ID != h.ID || far[h.Rev].Rev != int32(i) {
				return fmt.Errorf("node %d: edge %d's Rev %d does not point back at its other half", u, h.ID, h.Rev)
			}
		}
	}
	return nil
}
