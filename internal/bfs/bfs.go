// Package bfs implements the distributed shortest-path primitives of
// Section 2.1 of the paper for the CONGEST model:
//
//   - Fragment: an exact thresholded multi-source shortest-path computation
//     over positive integer edge weights (a distributed Dial/BFS: a node at
//     distance d fires in round start+d and relays across an edge of weight
//     w so the token lands at round start+d+w). Each edge direction carries
//     at most one token, giving O(1) congestion per edge per invocation.
//   - Cut: the weight rounding of Lemma 2.1's approximate cutter
//     (Nanongkai [Nan14]): with rounding unit ρ = Θ(εW/n), a BFS over
//     weights ⌈w/ρ⌉ up to depth O(n/ε), scaled back, has additive error
//     < εW for all distances ≤ 2W. Both models' cutters use it: the
//     CONGEST one runs Fragment over it, the sleeping-model one runs
//     package energybfs.
//
// Fragments run inside a node Program (via proto.Mailbox) so the CSSP
// recursion of Section 2.3 can invoke them phase by phase; Run/RunCutter are
// standalone whole-graph wrappers used by tests, benches, and the public
// API.
package bfs

import (
	"cmp"
	"fmt"
	"slices"

	"dsssp/internal/graph"
	"dsssp/internal/proto"
	"dsssp/internal/simnet"
)

// NotSource is the SourceOffset value marking a non-source node.
const NotSource = int64(-1)

// FragmentParams configures one thresholded multi-source shortest-path
// fragment. All participants must use identical Tag, StartRound, and
// Threshold values.
type FragmentParams struct {
	// Tag is the message tag for this fragment instance (one tag).
	Tag uint64
	// StartRound is the globally agreed round of BFS step 0.
	StartRound int64
	// Threshold is the inclusive distance threshold (Definition 2.3).
	Threshold int64
	// SourceOffset is the node's source offset (>= 0) or NotSource.
	SourceOffset int64
	// Eligible reports whether incident edge i may be used (e.g. only edges
	// to co-participants of the current subproblem). Nil means all edges.
	Eligible func(i int) bool
	// WeightOf returns the (possibly rounded) positive weight of incident
	// edge i. Nil means the graph weight.
	WeightOf func(i int) int64
}

// FragmentEnd returns the round at which every participant of a fragment
// with the given parameters is guaranteed to have finished (and to which it
// has advanced).
func FragmentEnd(startRound, threshold int64) int64 { return startRound + threshold + 1 }

// Fragment executes the thresholded shortest-path fragment and returns the
// node's distance, or graph.Inf if it exceeds the threshold. On return the
// node has advanced to FragmentEnd(p.StartRound, p.Threshold).
//
// Congest mode only (the sleeping-model counterpart is package energybfs).
func Fragment(mb *proto.Mailbox, p FragmentParams) int64 {
	c := mb.C
	weight := p.WeightOf
	if weight == nil {
		weight = c.Weight
	}
	eligible := p.Eligible
	if eligible == nil {
		eligible = func(int) bool { return true }
	}
	end := FragmentEnd(p.StartRound, p.Threshold)

	best := graph.Inf
	if p.SourceOffset >= 0 && p.SourceOffset <= p.Threshold {
		best = p.SourceOffset
	}
	fired := false
	// relays are the node's sends, listed once when it fires and ordered
	// by send round, a round's in edge order; relays[sent:] are still due.
	type relay struct {
		at   int64
		edge int
		val  int64
	}
	var relays []relay
	sent := 0

	for {
		now := mb.Round()
		for _, msg := range mb.Take(p.Tag) {
			cand := msg.Body.(int64)
			if cand < best {
				best = cand
			}
		}
		if !fired && best <= p.Threshold && now >= p.StartRound+best {
			if now > p.StartRound+best {
				panic(fmt.Sprintf("bfs: node %d fired late: round %d > start %d + dist %d", c.ID(), now, p.StartRound, best))
			}
			fired = true
			relays = make([]relay, 0, c.Degree())
			for i := 0; i < c.Degree(); i++ {
				if !eligible(i) {
					continue
				}
				w := weight(i)
				if w < 1 {
					panic(fmt.Sprintf("bfs: node %d edge %d has non-positive weight %d", c.ID(), i, w))
				}
				nd := best + w
				if nd > p.Threshold {
					// A token above the threshold can never matter; skip it
					// to keep congestion at O(1).
					continue
				}
				relays = append(relays, relay{p.StartRound + nd - 1, i, nd})
			}
			slices.SortStableFunc(relays, func(a, b relay) int { return cmp.Compare(a.at, b.at) })
		}
		for ; sent < len(relays) && relays[sent].at == now; sent++ {
			mb.Send(relays[sent].edge, p.Tag, relays[sent].val)
		}
		if now >= end {
			break
		}
		next := end
		if sent < len(relays) {
			next = relays[sent].at // before end: nd <= Threshold
		}
		if !fired && best <= p.Threshold && p.StartRound+best < next {
			next = p.StartRound + best
		}
		mb.Pump(c.WaitMessage(next))
	}
	if best > p.Threshold {
		return graph.Inf
	}
	return best
}

// Cut is the weight rounding of Lemma 2.1 (Nanongkai [Nan14]), the one
// both models' approximate cutters use; only the BFS run over it differs.
// A thresholded BFS over the rounded weights Weight(w), seeded with
// Offset(o), to depth Threshold, scaled back by Dist, returns dist'(S,v)
// with
//
//	dist(S,v) <= dist'(S,v) < dist(S,v) + εW   when dist'(S,v) != Inf,
//	dist(S,v) > 2W                             when dist'(S,v) == Inf.
type Cut struct {
	// Rho is the rounding unit ρ = max(1, ⌊εW/(n̂+1)⌋).
	Rho int64
	// Threshold is the rounded-unit depth that captures every original
	// distance <= 2W: 2W/ρ + (n̂+1) hops of ceil-slack.
	Threshold int64
}

// NewCut returns the rounding for scale W and participant bound n̂, with
// ε = epsNum/epsDen. It panics unless ε is in (0,1) and W >= 1.
func NewCut(w, nHat, epsNum, epsDen int64) Cut {
	if epsNum <= 0 || epsDen <= 0 || epsNum >= epsDen {
		panic(fmt.Sprintf("bfs: cutter needs ε in (0,1), got %d/%d", epsNum, epsDen))
	}
	if w < 1 {
		panic(fmt.Sprintf("bfs: cutter needs W >= 1, got %d", w))
	}
	rho := Rho(w, nHat, epsNum, epsDen)
	return Cut{Rho: rho, Threshold: 2*w/rho + nHat + 1}
}

// Rho returns the rounding unit ρ = max(1, ⌊εW/(n̂+1)⌋).
func Rho(w, nHat, epsNum, epsDen int64) int64 {
	r := (w * epsNum) / (epsDen * (nHat + 1))
	if r < 1 {
		r = 1
	}
	return r
}

// RoundWeight rounds an original weight w to max(1, ⌈w/ρ⌉).
func RoundWeight(w, rho int64) int64 {
	r := (w + rho - 1) / rho
	if r < 1 {
		r = 1
	}
	return r
}

// Weight is the rounded weight of an original edge weight w.
func (c Cut) Weight(w int64) int64 { return RoundWeight(w, c.Rho) }

// Offset is the rounded source offset of an original offset o: a negative
// o is NotSource, 0 stays 0, and any other o rounds like a weight.
func (c Cut) Offset(o int64) int64 {
	switch {
	case o < 0:
		return NotSource
	case o == 0:
		return 0
	}
	return RoundWeight(o, c.Rho)
}

// Dist scales a rounded-unit distance d back to original units; Inf stays
// Inf.
func (c Cut) Dist(d int64) int64 {
	if d == graph.Inf {
		return graph.Inf
	}
	return d * c.Rho
}

// Run executes a whole-graph thresholded multi-source shortest-path
// computation in the Congest model and returns per-node distances
// (graph.Inf above the threshold) plus metrics. Sources map nodes to
// offsets (>= 0).
func Run(g *graph.Graph, sources map[graph.NodeID]int64, threshold int64) ([]int64, simnet.Metrics, error) {
	dist, res, err := simnet.RunEach(g, simnet.Config{Model: simnet.Congest}, func(c *simnet.Ctx) int64 {
		mb := proto.NewMailbox(c)
		off := NotSource
		if o, ok := sources[c.ID()]; ok {
			off = o
		}
		return Fragment(mb, FragmentParams{Tag: 1, StartRound: 0, Threshold: threshold, SourceOffset: off})
	})
	if err != nil {
		return nil, simnet.Metrics{}, err
	}
	return dist, res.Metrics, nil
}

// RunCutter executes a whole-graph Lemma 2.1 approximation in the Congest
// model — Fragment over the rounding of NewCut(w, n, ε) — and returns
// per-node approximate distances plus metrics. A bad ε or w panics every
// node program, which the engine returns as an error.
func RunCutter(g *graph.Graph, sources map[graph.NodeID]int64, w int64, epsNum, epsDen int64) ([]int64, simnet.Metrics, error) {
	dist, res, err := simnet.RunEach(g, simnet.Config{Model: simnet.Congest}, func(c *simnet.Ctx) int64 {
		mb := proto.NewMailbox(c)
		cut := NewCut(w, int64(g.N()), epsNum, epsDen)
		off := NotSource
		if o, ok := sources[c.ID()]; ok {
			off = o
		}
		d := Fragment(mb, FragmentParams{
			Tag: 1, StartRound: 0, Threshold: cut.Threshold, SourceOffset: cut.Offset(off),
			WeightOf: func(i int) int64 { return cut.Weight(c.Weight(i)) },
		})
		return cut.Dist(d)
	})
	if err != nil {
		return nil, simnet.Metrics{}, err
	}
	return dist, res.Metrics, nil
}
