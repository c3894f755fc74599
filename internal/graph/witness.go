package graph

import "fmt"

// WitnessParent returns v's deterministic witness parent under the exact
// distance vector dist: the smallest-ID neighbor u with dist[u] + w(u,v) ==
// dist[v], or -1 when dist[v] == Inf (an unreachable node has no parent).
// This is precisely the tie-break the distributed tree extraction
// (dsssp.CSSPTree) applies, so the parent is a pure function of
// (graph, dist) — which is what lets the serving layer rebuild and repair
// witness trees without re-running the extraction round. The whole
// adjacency list is scanned, so the parent does not depend on its order.
//
// A finite dist[v] with no witnessing neighbor means dist is not an exact
// distance vector for g; like the distributed extraction, this panics
// rather than fabricating a tree.
func WitnessParent(g *Graph, v NodeID, dist []int64) NodeID {
	dv := dist[v]
	if dv == Inf {
		return -1
	}
	parent := NodeID(-1)
	for _, h := range g.Adj(v) {
		if du := dist[h.To]; du != Inf && du+h.W == dv && (parent < 0 || h.To < parent) {
			parent = h.To
		}
	}
	if parent < 0 {
		panic(fmt.Sprintf("graph: node %d has distance %d but no witness neighbor", v, dv))
	}
	return parent
}

// WitnessParents extracts the whole deterministic min-ID witness parent
// tree for an exact single-source distance vector: Parent[v] is
// WitnessParent(g, v, dist) for every non-source reachable v, and -1 at
// the source and at unreachable nodes — byte-identical to the Parent
// slice dsssp.SSSPTree computes distributedly (pinned by the witness
// tests). O(n + m).
func WitnessParents(g *Graph, source NodeID, dist []int64) []NodeID {
	if len(dist) != g.N() {
		panic(fmt.Sprintf("graph: distance vector has %d entries for an n=%d graph", len(dist), g.N()))
	}
	parent := make([]NodeID, g.N())
	for v := range parent {
		if NodeID(v) == source {
			parent[v] = -1
			continue
		}
		parent[v] = WitnessParent(g, NodeID(v), dist)
	}
	return parent
}
