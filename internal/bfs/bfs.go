// Package bfs implements the distributed shortest-path primitives of
// Section 2.1 of the paper for the CONGEST model:
//
//   - Fragment: an exact thresholded multi-source shortest-path computation
//     over positive integer edge weights (a distributed Dial/BFS: a node at
//     distance d fires in round start+d and relays across an edge of weight
//     w so the token lands at round start+d+w). Each edge direction carries
//     at most one token, giving O(1) congestion per edge per invocation.
//   - CutterFragment: the approximate cutter of Lemma 2.1 — the weight
//     rounding of Nanongkai [Nan14]: with rounding unit ρ = Θ(εW/n), run
//     Fragment over weights ⌈w/ρ⌉ up to depth O(n/ε) and scale back,
//     giving additive error < εW for all distances ≤ 2W.
//
// Fragments run inside a node Program (via proto.Mailbox) so the CSSP
// recursion of Section 2.3 can invoke them phase by phase; Run/RunCutter are
// standalone whole-graph wrappers used by tests, benches, and the public
// API.
package bfs

import (
	"fmt"

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
	// sched maps a future round to the relay values to send then.
	type relay struct {
		edge int
		val  int64
	}
	sched := make(map[int64][]relay)

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
				sendAt := p.StartRound + nd - 1
				sched[sendAt] = append(sched[sendAt], relay{i, nd})
			}
		}
		for _, r := range sched[now] {
			mb.Send(r.edge, p.Tag, r.val)
		}
		delete(sched, now)
		if now >= end {
			break
		}
		next := end
		for r := range sched {
			if r < next {
				next = r
			}
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

// CutterParams configures one Lemma 2.1 approximate-CSSP invocation.
// ε is the rational EpsNum/EpsDen in (0,1).
type CutterParams struct {
	Tag        uint64
	StartRound int64
	// W is the Lemma's scale: all distances <= 2W are captured, with
	// additive error < εW.
	W int64
	// NHat is an upper bound on the number of participating nodes.
	NHat int64
	// EpsNum/EpsDen is ε.
	EpsNum, EpsDen int64
	// SourceOffset is the node's source offset (>= 0) or NotSource,
	// in original (unrounded) weight units.
	SourceOffset int64
	Eligible     func(i int) bool
	// WeightOf optionally overrides the graph weight (original units).
	WeightOf func(i int) int64
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

// cutterThreshold is the rounded-unit depth needed to capture all original
// distances <= 2W: 2W/ρ + (n̂+1) hops of ceil-slack.
func cutterThreshold(w, rho, nHat int64) int64 { return 2*w/rho + nHat + 1 }

// CutterFragment runs Lemma 2.1: it returns dist'(S,v) with
//
//	dist(S,v) <= dist'(S,v) < dist(S,v) + εW   when dist'(S,v) != Inf,
//	dist(S,v) > 2W                             when dist'(S,v) == Inf.
//
// On return the node has advanced to the end of its Fragment run, round
// FragmentEnd(p.StartRound, 2W/ρ + n̂ + 1).
func CutterFragment(mb *proto.Mailbox, p CutterParams) int64 {
	if p.EpsNum <= 0 || p.EpsDen <= 0 || p.EpsNum >= p.EpsDen {
		panic(fmt.Sprintf("bfs: cutter needs ε in (0,1), got %d/%d", p.EpsNum, p.EpsDen))
	}
	if p.W < 1 {
		panic(fmt.Sprintf("bfs: cutter needs W >= 1, got %d", p.W))
	}
	weight := p.WeightOf
	if weight == nil {
		weight = mb.C.Weight
	}
	rho := Rho(p.W, p.NHat, p.EpsNum, p.EpsDen)
	offset := p.SourceOffset
	if offset >= 0 {
		offset = RoundWeight(offset, rho)
		if p.SourceOffset == 0 {
			offset = 0
		}
	}
	d := Fragment(mb, FragmentParams{
		Tag:          p.Tag,
		StartRound:   p.StartRound,
		Threshold:    cutterThreshold(p.W, rho, p.NHat),
		SourceOffset: offset,
		Eligible:     p.Eligible,
		WeightOf:     func(i int) int64 { return RoundWeight(weight(i), rho) },
	})
	if d == graph.Inf {
		return graph.Inf
	}
	return d * rho
}

// Run executes a whole-graph thresholded multi-source shortest-path
// computation in the Congest model and returns per-node distances
// (graph.Inf above the threshold) plus metrics. Sources map nodes to
// offsets (>= 0).
func Run(g *graph.Graph, sources map[graph.NodeID]int64, threshold int64) ([]int64, simnet.Metrics, error) {
	eng := simnet.New(g, simnet.Config{Model: simnet.Congest})
	res, err := eng.Run(func(c *simnet.Ctx) {
		mb := proto.NewMailbox(c)
		off := NotSource
		if o, ok := sources[c.ID()]; ok {
			off = o
		}
		d := Fragment(mb, FragmentParams{Tag: 1, StartRound: 0, Threshold: threshold, SourceOffset: off})
		c.SetOutput(d)
	})
	if err != nil {
		return nil, simnet.Metrics{}, err
	}
	return collect(res), res.Metrics, nil
}

// RunCutter executes a whole-graph Lemma 2.1 approximation in the Congest
// model and returns per-node approximate distances plus metrics.
func RunCutter(g *graph.Graph, sources map[graph.NodeID]int64, w int64, epsNum, epsDen int64) ([]int64, simnet.Metrics, error) {
	eng := simnet.New(g, simnet.Config{Model: simnet.Congest})
	res, err := eng.Run(func(c *simnet.Ctx) {
		mb := proto.NewMailbox(c)
		off := NotSource
		if o, ok := sources[c.ID()]; ok {
			off = o
		}
		d := CutterFragment(mb, CutterParams{
			Tag: 1, StartRound: 0, W: w, NHat: int64(g.N()),
			EpsNum: epsNum, EpsDen: epsDen, SourceOffset: off,
		})
		c.SetOutput(d)
	})
	if err != nil {
		return nil, simnet.Metrics{}, err
	}
	return collect(res), res.Metrics, nil
}

func collect(res *simnet.Result) []int64 {
	out := make([]int64, len(res.Outputs))
	for i, v := range res.Outputs {
		out[i] = v.(int64)
	}
	return out
}
