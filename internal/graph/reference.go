package graph

// Sequential reference algorithms. Every distributed algorithm in the
// repository is verified against these.

// Dijkstra returns exact single-source distances from s. Unreachable nodes
// get Inf. Weights must be non-negative.
func Dijkstra(g *Graph, s NodeID) []int64 {
	return MultiSourceDijkstra(g, map[NodeID]int64{s: 0})
}

// MultiSourceDijkstra returns, for each node v, min over sources s of
// offset(s) + dist(s,v) — the closest-source shortest path (CSSP) values
// with per-source offsets, matching Definition 2.3 plus the imaginary-node
// offsets used by the recursion in Section 2.3 of the paper.
func MultiSourceDijkstra(g *Graph, sources map[NodeID]int64) []int64 {
	dist := make([]int64, g.N())
	for i := range dist {
		dist[i] = Inf
	}
	var pq DistHeap
	for s, off := range sources {
		if off < 0 {
			panic("graph: negative source offset")
		}
		if off < dist[s] {
			dist[s] = off
		}
	}
	for v, d := range dist {
		if d < Inf {
			pq.Push(NodeID(v), d)
		}
	}
	for len(pq) > 0 {
		top := pq.Pop()
		if top.D > dist[top.V] {
			continue
		}
		for _, h := range g.Adj(top.V) {
			if top.D+h.W < dist[h.To] {
				dist[h.To] = top.D + h.W
				pq.Push(h.To, dist[h.To])
			}
		}
	}
	return dist
}

// BFSDist returns hop distances from the given sources (offset 0 each).
func BFSDist(g *Graph, sources ...NodeID) []int64 {
	dist := make([]int64, g.N())
	for i := range dist {
		dist[i] = Inf
	}
	queue := make([]NodeID, 0, len(sources))
	for _, s := range sources {
		if dist[s] != 0 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range g.Adj(v) {
			if dist[h.To] == Inf {
				dist[h.To] = dist[v] + 1
				queue = append(queue, h.To)
			}
		}
	}
	return dist
}

// Components returns a component label per node (labels are 0..k-1 in order
// of first appearance) and the number of components.
func Components(g *Graph) ([]int, int) {
	comp := make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	var stack []NodeID
	for v := 0; v < g.N(); v++ {
		if comp[v] >= 0 {
			continue
		}
		comp[v] = next
		stack = append(stack[:0], NodeID(v))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, h := range g.Adj(u) {
				if comp[h.To] < 0 {
					comp[h.To] = next
					stack = append(stack, h.To)
				}
			}
		}
		next++
	}
	return comp, next
}

// HopDiameter returns the maximum hop eccentricity over all nodes of the
// largest component (Inf-free); O(n·m), intended for test/bench graphs.
func HopDiameter(g *Graph) int64 {
	var diam int64
	for v := 0; v < g.N(); v++ {
		d := BFSDist(g, NodeID(v))
		for _, x := range d {
			if x < Inf && x > diam {
				diam = x
			}
		}
	}
	return diam
}

// HopDiameterApprox returns a 2-approximation of hop diameter using a double
// BFS sweep from node 0's component; cheap enough for large bench graphs.
func HopDiameterApprox(g *Graph) int64 {
	if g.N() == 0 {
		return 0
	}
	d0 := BFSDist(g, 0)
	far := NodeID(0)
	var best int64
	for v, d := range d0 {
		if d < Inf && d > best {
			best, far = d, NodeID(v)
		}
	}
	d1 := BFSDist(g, far)
	best = 0
	for _, d := range d1 {
		if d < Inf && d > best {
			best = d
		}
	}
	return best
}

// WeightedDiameterUpper returns n * maxWeight, the upper bound D used to
// start the thresholded recursion (clamped to at least 1).
func WeightedDiameterUpper(g *Graph) int64 {
	d := int64(g.N()) * g.MaxWeight()
	if d < 1 {
		d = 1
	}
	return d
}

// NodeDist is one Dijkstra frontier entry: a node and a tentative
// distance.
type NodeDist struct {
	V NodeID
	D int64
}

// DistHeap is the Dijkstra frontier every sequential shortest-path search
// in the repository uses: a binary min-heap on D over a typed slice, so a
// push does not box its entry. Its sift rules are those of the standard
// library's heap package, so entries of equal D pop in the order that
// package would pop them — decomp's ball parents depend on that order.
// The zero value is empty.
type DistHeap []NodeDist

// Push adds (v, d) to the heap.
func (h *DistHeap) Push(v NodeID, d int64) {
	*h = append(*h, NodeDist{v, d})
	a := *h
	for j := len(a) - 1; j > 0; {
		i := (j - 1) / 2
		if a[j].D >= a[i].D {
			break
		}
		a[i], a[j] = a[j], a[i]
		j = i
	}
}

// Pop removes and returns an entry of minimum D. The heap must not be
// empty.
func (h *DistHeap) Pop() NodeDist {
	a := *h
	n := len(a) - 1
	a[0], a[n] = a[n], a[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && a[j2].D < a[j].D {
			j = j2
		}
		if a[j].D >= a[i].D {
			break
		}
		a[i], a[j] = a[j], a[i]
		i = j
	}
	*h = a[:n]
	return a[n]
}
