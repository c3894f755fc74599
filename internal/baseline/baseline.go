// Package baseline implements the classic distributed shortest-path
// algorithms the paper's introduction (Section 1.1) uses as comparison
// points:
//
//   - BellmanFord: the folklore O(n)-time algorithm whose message complexity
//     is Θ(mn) and whose per-edge congestion is Θ(n) in the worst case.
//   - Dijkstra: the direct distributed implementation of Dijkstra's
//     algorithm — a leader repeatedly extracts the global minimum over a
//     spanning tree — with O(nD) time and O(n^2 + m) messages.
//   - AlwaysAwakeBFS: plain BFS in the sleeping model with every node awake
//     every round, so its energy equals its running time Θ(D); the paper's
//     energy-efficient BFS (package energybfs) is measured against it.
package baseline

import (
	"dsssp/internal/graph"
	"dsssp/internal/proto"
	"dsssp/internal/simnet"
)

// BellmanFord computes exact single-source distances in the Congest model:
// every node re-broadcasts its estimate whenever it improves; after n rounds
// all estimates are exact.
func BellmanFord(g *graph.Graph, source graph.NodeID) ([]int64, simnet.Metrics, error) {
	dists, res, err := simnet.RunEach(g, simnet.Config{Model: simnet.Congest}, func(c *simnet.Ctx) int64 {
		end := int64(c.N()) + 1
		dist := graph.Inf
		if c.ID() == source {
			dist = 0
			for i := 0; i < c.Degree(); i++ {
				c.Send(i, int64(0))
			}
		}
		for c.Round() < end {
			improved := false
			for _, m := range c.WaitMessage(end) {
				if d, ok := m.Body.(int64); ok {
					if cand := d + c.Weight(m.NbIndex); cand < dist {
						dist = cand
						improved = true
					}
				}
			}
			if improved {
				for i := 0; i < c.Degree(); i++ {
					c.Send(i, dist)
				}
			}
		}
		return dist
	})
	if err != nil {
		return nil, simnet.Metrics{}, err
	}
	return dists, res.Metrics, nil
}

// dijkstra message bodies.
type djMin struct {
	Dist int64
	ID   graph.NodeID
}

// Dijkstra runs the direct distributed Dijkstra: a hop-BFS tree is built
// from the source, then each iteration convergecasts the minimum tentative
// distance of unvisited nodes, broadcasts the winner, and lets the winner
// relax its edges. Time O(n·D), messages O(n·(n+D)).
func Dijkstra(g *graph.Graph, source graph.NodeID) ([]int64, simnet.Metrics, error) {
	dists, res, err := simnet.RunEach(g, simnet.Config{Model: simnet.Congest}, func(c *simnet.Ctx) int64 {
		mb := proto.NewMailbox(c)
		tree, inComp := buildBFSTree(mb, source)
		if !inComp {
			// Unreachable component: no participation.
			return graph.Inf
		}
		const (
			tagDepth = 10
			tagIter  = 100 // iteration k uses tags tagIter+3k..tagIter+3k+2
		)
		// Tree building left everyone at round 2n+4; agree on the max tree
		// depth with two scheduled sweeps so every node computes the same
		// iteration schedule.
		n := int64(c.N())
		maxCombine := func(a, b any) any { return max(a.(int64), b.(int64)) }
		agg0, isRoot0 := proto.SweepUp(mb, tree, tagDepth, 2*n+5, n, tree.Depth, maxCombine)
		var rv any
		if isRoot0 {
			rv = agg0
		}
		maxDepth := proto.SweepDown(mb, tree, tagDepth+1, 3*n+7, rv).(int64)

		dist := graph.Inf
		if c.ID() == source {
			dist = 0
		}
		visited := false
		iterLen := 2*maxDepth + 6
		base := 4*n + 9
		mb.SleepUntilAtLeast(base)
		for k := int64(0); ; k++ {
			t0 := base + k*iterLen
			tag := tagIter + 3*uint64(k)
			mine := djMin{Dist: graph.Inf, ID: c.ID()}
			if !visited {
				mine = djMin{Dist: dist, ID: c.ID()}
			}
			agg, isRoot := proto.SweepUp(mb, tree, tag, t0, maxDepth, mine, func(a, b any) any {
				x, y := a.(djMin), b.(djMin)
				if y.Dist < x.Dist || (y.Dist == x.Dist && y.ID < x.ID) {
					return y
				}
				return x
			})
			var rootVal any
			if isRoot {
				rootVal = agg
			}
			winner := proto.SweepDown(mb, tree, tag+1, t0+maxDepth+1, rootVal).(djMin)
			if winner.Dist == graph.Inf {
				break // all reachable nodes visited
			}
			relaxAt := t0 + 2*maxDepth + 2
			mb.AdvanceTo(relaxAt)
			if winner.ID == c.ID() {
				visited = true
				for i := 0; i < c.Degree(); i++ {
					mb.Send(i, tag+2, dist+c.Weight(i))
				}
			}
			mb.SleepUntil(relaxAt + 1)
			for _, m := range mb.Take(tag + 2) {
				if d := m.Body.(int64); d < dist {
					dist = d
				}
			}
		}
		return dist
	})
	if err != nil {
		return nil, simnet.Metrics{}, err
	}
	return dists, res.Metrics, nil
}

// buildBFSTree floods from the root and returns this node's view of the
// hop-BFS tree (parent = first sender). Nodes outside the root's component
// return inComp == false. All nodes leave at round 2n+4.
func buildBFSTree(mb *proto.Mailbox, root graph.NodeID) (proto.Tree, bool) {
	c := mb.C
	const tagFlood, tagChild = 1, 2
	n := int64(c.N())
	floodEnd := n + 1
	t := proto.Tree{Parent: -1}
	inComp := c.ID() == root
	if inComp {
		for i := 0; i < c.Degree(); i++ {
			mb.Send(i, tagFlood, int64(1))
		}
	} else {
		for !inComp && mb.Round() < floodEnd {
			mb.Pump(c.WaitMessage(floodEnd))
			if msgs := mb.Take(tagFlood); len(msgs) > 0 {
				inComp = true
				t.Parent = msgs[0].NbIndex
				t.Depth = msgs[0].Body.(int64)
				for i := 0; i < c.Degree(); i++ {
					if i != t.Parent {
						mb.Send(i, tagFlood, t.Depth+1)
					}
				}
			}
		}
	}
	mb.SleepUntilAtLeast(floodEnd + 1)
	if inComp && t.Parent >= 0 {
		mb.Send(t.Parent, tagChild, true)
	}
	mb.SleepUntil(floodEnd + 2)
	for _, m := range mb.Take(tagChild) {
		t.Children = append(t.Children, m.NbIndex)
	}
	mb.SleepUntil(2*n + 4)
	mb.Take(tagFlood) // discard duplicate flood arrivals
	return t, inComp
}

// AlwaysAwakeBFS computes hop distances from the sources in the Sleeping
// model with every node awake in every round — the energy-naive baseline:
// MaxAwake equals the running time. maxRounds caps the run (0 = the
// engine's default).
func AlwaysAwakeBFS(g *graph.Graph, sources map[graph.NodeID]bool, threshold, maxRounds int64) ([]int64, simnet.Metrics, error) {
	dists, res, err := simnet.RunEach(g, simnet.Config{Model: simnet.Sleeping, MaxRounds: maxRounds}, func(c *simnet.Ctx) int64 {
		dist := graph.Inf
		if sources[c.ID()] {
			dist = 0
			// Like every relay below, a source sends only a distance
			// within the threshold.
			for i := 0; i < c.Degree() && dist < threshold; i++ {
				c.Send(i, int64(1))
			}
		}
		for r := int64(0); r <= threshold; r++ {
			for _, m := range c.Next() {
				if d := m.Body.(int64); d < dist {
					dist = d
					if d < threshold {
						for i := 0; i < c.Degree(); i++ {
							if i != m.NbIndex {
								c.Send(i, d+1)
							}
						}
					}
				}
			}
		}
		return dist
	})
	if err != nil {
		return nil, simnet.Metrics{}, err
	}
	return dists, res.Metrics, nil
}
