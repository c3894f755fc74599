package dsssp

import (
	"fmt"

	"dsssp/internal/phase"
	"dsssp/internal/proto"
	"dsssp/internal/simnet"
)

// TreeResult extends Result with shortest-path-tree structure.
type TreeResult struct {
	Result
	// Parent[v] is v's parent toward the closest source (-1 at sources and
	// unreachable nodes).
	Parent []NodeID
}

// CSSPTree computes exact closest-source distances plus a shortest-path
// forest: after the distance computation, one exchange round lets every
// node pick the neighbor that witnesses its distance (dist[u] + w(u,v) ==
// dist[v], ties broken by smallest node ID) — the standard distributed
// tree extraction, adding O(1) congestion. The extraction run is part of
// the result's account: its counters add into Result.Metrics, and its
// rounds, messages and awake rounds appear in the span ledger under
// phase.Tree.
func CSSPTree(g *Graph, sources map[NodeID]int64, opts *Options) (*TreeResult, error) {
	base, err := CSSP(g, sources, opts)
	if err != nil {
		return nil, err
	}
	// One synchronized exchange round in a fresh engine run: every node
	// announces its distance; each picks its witness parent.
	parents, res, err := simnet.RunEach(g, simnet.Config{Model: simnet.Congest}, func(c *simnet.Ctx) NodeID {
		c.OpenSpan(phase.Tree.Key, 0) // open until the node halts
		mb := proto.NewMailbox(c)
		my := base.Dist[c.ID()]
		for i := 0; i < c.Degree(); i++ {
			mb.Send(i, 1, my)
		}
		mb.Next()
		parent := NodeID(-1)
		_, isSource := sources[c.ID()]
		if my != Inf && !isSource {
			for _, m := range mb.Take(1) {
				d := m.Body.(int64)
				if d == Inf {
					continue
				}
				if d+c.Weight(m.NbIndex) == my && (parent < 0 || m.From < parent) {
					parent = m.From
				}
			}
			if parent < 0 {
				panic(fmt.Sprintf("dsssp: node %d has distance %d but no witness neighbor", c.ID(), my))
			}
		}
		return parent
	})
	if err != nil {
		return nil, err
	}
	out := &TreeResult{Result: *base, Parent: parents}
	out.Metrics.Append(res.Metrics)
	return out, nil
}

// SSSPTree is CSSPTree from a single source.
func SSSPTree(g *Graph, source NodeID, opts *Options) (*TreeResult, error) {
	return CSSPTree(g, map[NodeID]int64{source: 0}, opts)
}

// PathTo reconstructs the path from v back to its closest source using a
// TreeResult (inclusive of both endpoints, source last). Unreachable nodes
// (Dist == Inf, in another component than every source) and corrupted
// parent pointers yield descriptive errors instead of a nil path or an
// unbounded walk.
func (t *TreeResult) PathTo(v NodeID) ([]NodeID, error) {
	if v < 0 || int(v) >= len(t.Dist) {
		return nil, fmt.Errorf("dsssp: PathTo(%d): node out of range [0,%d)", v, len(t.Dist))
	}
	if t.Dist[v] == Inf {
		return nil, fmt.Errorf("dsssp: PathTo(%d): node is unreachable from every source (distance +Inf, parent-less)", v)
	}
	path := []NodeID{v}
	for t.Parent[v] >= 0 {
		p := t.Parent[v]
		if int(p) >= len(t.Parent) {
			return nil, fmt.Errorf("dsssp: PathTo(%d): node %d has out-of-range parent %d — the TreeResult is corrupt", path[0], v, p)
		}
		v = p
		path = append(path, v)
		if len(path) > len(t.Parent) {
			return nil, fmt.Errorf("dsssp: PathTo(%d): parent pointers form a cycle through node %d after %d hops — the TreeResult is corrupt",
				path[0], v, len(path))
		}
	}
	return path, nil
}

// Verify checks a TreeResult against the graph: parents witness distances
// and paths lead to sources. Intended for tests and examples.
func (t *TreeResult) Verify(g *Graph, sources map[NodeID]int64) error {
	for v := 0; v < g.N(); v++ {
		id := NodeID(v)
		switch {
		case t.Dist[v] == Inf:
			if t.Parent[v] != -1 {
				return fmt.Errorf("unreachable node %d has parent %d", v, t.Parent[v])
			}
		case t.Parent[v] == -1:
			if _, ok := sources[id]; !ok {
				return fmt.Errorf("non-source node %d lacks a parent", v)
			}
		default:
			p := t.Parent[v]
			w, ok := g.Weight(id, p)
			if !ok {
				return fmt.Errorf("node %d's parent %d is not adjacent", v, p)
			}
			if t.Dist[p]+w != t.Dist[v] {
				return fmt.Errorf("node %d: parent %d does not witness distance (%d + %d != %d)",
					v, p, t.Dist[p], w, t.Dist[v])
			}
		}
	}
	return nil
}
