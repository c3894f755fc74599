package graph

import (
	"fmt"
	"math/rand"
)

// WeightFn assigns a weight to the i-th generated edge. Generators call it
// once per edge in a deterministic order, so a seeded WeightFn yields
// reproducible graphs.
type WeightFn func(i int) int64

// UnitWeights assigns weight 1 to every edge (the BFS/unweighted setting).
func UnitWeights(int) int64 { return 1 }

// UniformWeights returns a WeightFn drawing uniformly from [1, maxW] using
// the given seed.
func UniformWeights(maxW int64, seed int64) WeightFn {
	if maxW < 1 {
		panic("graph: UniformWeights needs maxW >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	return func(int) int64 { return 1 + rng.Int63n(maxW) }
}

// ZeroHeavyWeights returns a WeightFn that emits weight 0 with probability
// 1/4 and otherwise uniform in [1,maxW]; used to exercise the Thm 2.7
// zero-weight extension.
func ZeroHeavyWeights(maxW int64, seed int64) WeightFn {
	rng := rand.New(rand.NewSource(seed))
	return func(int) int64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return 1 + rng.Int63n(maxW)
	}
}

// Path returns the n-node path 0-1-2-...-(n-1).
func Path(n int, w WeightFn) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), w(i))
	}
	g.SortAdj()
	return g
}

// Cycle returns the n-node cycle (n >= 3).
func Cycle(n int, w WeightFn) *Graph {
	if n < 3 {
		panic("graph: Cycle needs n >= 3")
	}
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(NodeID(i), NodeID((i+1)%n), w(i))
	}
	g.SortAdj()
	return g
}

// Star returns the n-node star centered at node 0.
func Star(n int, w WeightFn) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, NodeID(i), w(i-1))
	}
	g.SortAdj()
	return g
}

// CompleteBinaryTree returns a complete binary tree on n nodes (node i's
// parent is (i-1)/2).
func CompleteBinaryTree(n int, w WeightFn) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(NodeID((i-1)/2), NodeID(i), w(i-1))
	}
	g.SortAdj()
	return g
}

// Grid2D returns the rows x cols grid graph; node (r,c) has index r*cols+c.
func Grid2D(rows, cols int, w WeightFn) *Graph {
	g := New(rows * cols)
	i := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := NodeID(r*cols + c)
			if c+1 < cols {
				g.AddEdge(id, id+1, w(i))
				i++
			}
			if r+1 < rows {
				g.AddEdge(id, NodeID((r+1)*cols+c), w(i))
				i++
			}
		}
	}
	g.SortAdj()
	return g
}

// RandomTree returns a uniformly-ish random spanning tree on n nodes: node i
// attaches to a uniformly random earlier node (a random recursive tree).
func RandomTree(n int, w WeightFn, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 1; i < n; i++ {
		p := NodeID(rng.Intn(i))
		g.AddEdge(p, NodeID(i), w(i-1))
	}
	g.SortAdj()
	return g
}

// RandomConnected returns a connected graph: a random recursive tree plus
// `extra` additional distinct non-tree edges chosen uniformly at random.
func RandomConnected(n, extra int, w WeightFn, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	i := 0
	for v := 1; v < n; v++ {
		p := NodeID(rng.Intn(v))
		g.AddEdge(p, NodeID(v), w(i))
		i++
	}
	type pair struct{ a, b NodeID }
	used := make(map[pair]bool, n+extra)
	for v := 1; v < n; v++ {
		for _, h := range g.adj[v] {
			if h.To < NodeID(v) {
				used[pair{h.To, NodeID(v)}] = true
			}
		}
	}
	maxExtra := n*(n-1)/2 - (n - 1)
	if extra > maxExtra {
		extra = maxExtra
	}
	for added := 0; added < extra; {
		a := NodeID(rng.Intn(n))
		b := NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if used[pair{a, b}] {
			continue
		}
		used[pair{a, b}] = true
		g.AddEdge(a, b, w(i))
		i++
		added++
	}
	g.SortAdj()
	return g
}

// Dumbbell returns two cliques of size k joined by a path of length bridge;
// a classic high-diameter, high-congestion stress shape. Total nodes:
// 2k + max(bridge-1, 0).
func Dumbbell(k, bridge int, w WeightFn) *Graph {
	if k < 1 || bridge < 1 {
		panic("graph: Dumbbell needs k >= 1, bridge >= 1")
	}
	es := make([]EdgeTriple, 0, k*(k-1)+bridge)
	add := func(a, b int) { es = append(es, EdgeTriple{U: NodeID(a), V: NodeID(b), W: w(len(es))}) }
	clique := func(base int) {
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				add(base+a, base+b)
			}
		}
	}
	clique(0)
	clique(k + bridge - 1)
	// Path from node k-1 (in clique A) through intermediate nodes
	// k..k+bridge-2 to node k+bridge-1 (the first node of clique B).
	for j := 0; j < bridge; j++ {
		add(k-1+j, k+j)
	}
	// The edges are distinct, so the bulk builder needs no repeat check.
	return build(2*k+bridge-1, es)
}

// Clusters returns `c` dense clusters of size `k` arranged in a ring, with
// single bridge edges between consecutive clusters; each cluster is a random
// connected subgraph with intraExtra extra edges. Good for exercising sparse
// covers and network decomposition.
func Clusters(c, k, intraExtra int, w WeightFn, seed int64) *Graph {
	if c < 2 || k < 1 {
		panic("graph: Clusters needs c >= 2, k >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(c * k)
	i := 0
	for ci := 0; ci < c; ci++ {
		base := ci * k
		for v := 1; v < k; v++ {
			g.AddEdge(NodeID(base+rng.Intn(v)), NodeID(base+v), w(i))
			i++
		}
		for e := 0; e < intraExtra; e++ {
			a := base + rng.Intn(k)
			b := base + rng.Intn(k)
			if a == b || g.HasEdge(NodeID(a), NodeID(b)) {
				continue
			}
			g.AddEdge(NodeID(a), NodeID(b), w(i))
			i++
		}
	}
	for ci := 0; ci < c; ci++ {
		a := ci*k + rng.Intn(k)
		b := ((ci+1)%c)*k + rng.Intn(k)
		if !g.HasEdge(NodeID(a), NodeID(b)) {
			g.AddEdge(NodeID(a), NodeID(b), w(i))
			i++
		}
	}
	g.SortAdj()
	return g
}

// Expander returns a 2d-regular-ish expander on n nodes: the union of d
// seeded random Hamiltonian cycles (duplicate edges are skipped, so degrees
// may fall slightly below 2d). A union of random cycles is an expander with
// high probability, giving the low-diameter, well-connected regime where the
// paper's polylog congestion bounds are easiest to see.
func Expander(n, d int, w WeightFn, seed int64) *Graph {
	if n < 3 || d < 1 {
		panic("graph: Expander needs n >= 3, d >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	i := 0
	for c := 0; c < d; c++ {
		perm := rng.Perm(n)
		for j := 0; j < n; j++ {
			a, b := NodeID(perm[j]), NodeID(perm[(j+1)%n])
			if a == b || g.HasEdge(a, b) {
				continue
			}
			g.AddEdge(a, b, w(i))
			i++
		}
	}
	g.SortAdj()
	return g
}

// Barbell returns the classic barbell on ~n nodes: two cliques of size n/3
// joined by a path of the remaining nodes. It maximizes the bottleneck-edge
// congestion of any all-pairs workload and is a standard worst case for
// delay scheduling.
func Barbell(n int, w WeightFn) *Graph {
	k := n / 3
	if k < 2 {
		k = 2
	}
	bridge := n - 2*k + 1
	if bridge < 1 {
		bridge = 1
	}
	return Dumbbell(k, bridge, w)
}

// PowerLaw returns a Barabási–Albert preferential-attachment graph: nodes
// arrive one at a time and attach `m` edges to existing nodes chosen with
// probability proportional to degree (by sampling a uniform endpoint of a
// uniform existing edge). Heavy-tailed degrees stress the per-edge congestion
// accounting around hubs.
func PowerLaw(n, m int, w WeightFn, seed int64) *Graph {
	if n < 2 || m < 1 {
		panic("graph: PowerLaw needs n >= 2, m >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	i := 0
	// Endpoint multiset: each edge contributes both endpoints, so a uniform
	// draw lands on v with probability deg(v)/2m.
	var ends []NodeID
	g.AddEdge(0, 1, w(i))
	i++
	ends = append(ends, 0, 1)
	for v := 2; v < n; v++ {
		added := 0
		for attempt := 0; added < m && attempt < 4*m+16; attempt++ {
			t := ends[rng.Intn(len(ends))]
			if t == NodeID(v) || g.HasEdge(NodeID(v), t) {
				continue
			}
			g.AddEdge(NodeID(v), t, w(i))
			i++
			ends = append(ends, NodeID(v), t)
			added++
		}
		if added == 0 { // keep it connected no matter what
			t := NodeID(rng.Intn(v))
			g.AddEdge(NodeID(v), t, w(i))
			i++
			ends = append(ends, NodeID(v), t)
		}
	}
	g.SortAdj()
	return g
}

// BellmanFordGadget is the classic Bellman-Ford worst case: a unit-weight
// path of k+1 nodes plus a sink adjacent to every path node with weights
// that improve at every hop of the wave, forcing Θ(k) re-broadcasts per
// sink edge. Weights are structural (the WeightFn convention does not
// apply): path edges are 1, the chord from path node i to the sink is
// 2(k-i)+1. Total nodes: k+2.
func BellmanFordGadget(k int) *Graph {
	if k < 1 {
		panic("graph: BellmanFordGadget needs k >= 1")
	}
	g := New(k + 2)
	for i := 0; i < k; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), 1)
	}
	sink := NodeID(k + 1)
	for i := 0; i <= k; i++ {
		g.AddEdge(NodeID(i), sink, int64(2*(k-i)+1))
	}
	g.SortAdj()
	return g
}

// Disconnected returns a graph made of `parts` independent random connected
// components of size n each; used to test multi-component behavior.
func Disconnected(parts, n, extra int, w WeightFn, seed int64) *Graph {
	g := New(parts * n)
	i := 0
	rng := rand.New(rand.NewSource(seed))
	for p := 0; p < parts; p++ {
		base := p * n
		for v := 1; v < n; v++ {
			g.AddEdge(NodeID(base+rng.Intn(v)), NodeID(base+v), w(i))
			i++
		}
		for e := 0; e < extra; e++ {
			a := base + rng.Intn(n)
			b := base + rng.Intn(n)
			if a == b || g.HasEdge(NodeID(a), NodeID(b)) {
				continue
			}
			g.AddEdge(NodeID(a), NodeID(b), w(i))
			i++
		}
	}
	g.SortAdj()
	return g
}

// Family names a generator for the experiment harness.
type Family string

// Families used throughout the experiment harness.
const (
	FamilyPath     Family = "path"
	FamilyCycle    Family = "cycle"
	FamilyTree     Family = "tree"
	FamilyGrid     Family = "grid"
	FamilyRandom   Family = "random"
	FamilyCluster  Family = "cluster"
	FamilyStar     Family = "star"
	FamilyExpander Family = "expander"
	FamilyBarbell  Family = "barbell"
	FamilyPowerLaw Family = "powerlaw"
	// FamilyBFGadget is the Bellman-Ford congestion worst case; its weights
	// are structural, so the WeightFn passed to Make is ignored.
	FamilyBFGadget Family = "bfgadget"
	// FamilyDisconnected is several independent random components;
	// exercises the unreachable-vertex (+Inf distance) contract of every
	// algorithm — sources never reach the other components.
	FamilyDisconnected Family = "disconnected"
)

// Families lists every named family, in the order the harness sweeps them.
func Families() []Family {
	return []Family{
		FamilyPath, FamilyCycle, FamilyTree, FamilyGrid, FamilyRandom,
		FamilyCluster, FamilyStar, FamilyExpander, FamilyBarbell,
		FamilyPowerLaw, FamilyBFGadget, FamilyDisconnected,
	}
}

// Make builds a graph of the named family with n nodes (approximately, for
// grid/cluster) and the given weight function and seed.
func Make(f Family, n int, w WeightFn, seed int64) *Graph {
	switch f {
	case FamilyPath:
		return Path(n, w)
	case FamilyCycle:
		return Cycle(n, w)
	case FamilyTree:
		return CompleteBinaryTree(n, w)
	case FamilyGrid:
		side := 1
		for side*side < n {
			side++
		}
		return Grid2D(side, side, w)
	case FamilyRandom:
		return RandomConnected(n, n, w, seed)
	case FamilyCluster:
		k := 8
		c := (n + k - 1) / k
		if c < 2 {
			c = 2
		}
		return Clusters(c, k, k, w, seed)
	case FamilyStar:
		return Star(n, w)
	case FamilyExpander:
		return Expander(n, 2, w, seed)
	case FamilyBarbell:
		return Barbell(n, w)
	case FamilyPowerLaw:
		return PowerLaw(n, 2, w, seed)
	case FamilyBFGadget:
		return BellmanFordGadget(n - 2)
	case FamilyDisconnected:
		parts := 3
		if n < 3*4 {
			parts = 2
		}
		size := n / parts
		return Disconnected(parts, size, size/2, w, seed)
	default:
		panic(fmt.Sprintf("graph: unknown family %q", f))
	}
}
