// The CSSP phase pipeline: the shared skeleton of the CONGEST and
// sleeping-model recursions. Both models run the same sequence of stages —
// participation exchange, base case, spanning-forest decomposition,
// approximate cut, first recursion, barrier, cut-offset merge, second
// recursion, barrier, combine — and differ only inside two stages, each
// one function that branches on the model (a nil cover provider means
// CONGEST): the cut, whose weight rounding both models take from bfs.Cut
// and whose BFS is bfs.Fragment or energybfs.Run, and the component
// barrier (event-driven convergecast vs count-based periodic tree sweeps).
//
// Every stage runs inside a span of the engine's ledger (simnet.Metrics
// .Spans), keyed by the stage's Phase and the call's recursion depth,
// so reports can break the paper's round bounds down per phase against
// per-phase envelopes. Opening and closing spans is engine-side accounting
// only: the pipeline's message and round schedule is byte-identical to the
// pre-pipeline monolithic recursions, which the conservation and golden
// tests pin.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"dsssp/internal/bfs"
	"dsssp/internal/energybfs"
	"dsssp/internal/forest"
	"dsssp/internal/graph"
	"dsssp/internal/phase"
	"dsssp/internal/proto"
)

// runCall executes one thresholded CSSP subproblem through the phase
// pipeline; only participants call it. All participants within one parent
// component enter at a common round. Returns dist(S,·) if <= p.d, else
// graph.Inf.
func (s *cssp) runCall(p callParams) int64 {
	mb := s.mb
	c := mb.C
	s.subproblems++
	entry := mb.Round()
	depth := depthOf(p.path)
	if s.provider != nil {
		// The sleeping model's covers are built over the registered
		// participants (engine-side only, never a message).
		s.provider.register(p.path, c.ID())
	}

	// (1) Participation exchange: learn which neighbors are in this call.
	var elig []bool
	mb.Span(phase.Participate.Key, depth, func() {
		for i := 0; i < c.Degree(); i++ {
			if p.eligible == nil || p.eligible[i] {
				mb.Send(i, s.tag(p.path, offExch), struct{}{})
			}
		}
		mb.SleepUntil(entry + 1)
		elig = make([]bool, c.Degree())
		for _, m := range mb.Take(s.tag(p.path, offExch)) {
			if p.eligible == nil || p.eligible[m.NbIndex] {
				elig[m.NbIndex] = true
			}
		}
	})
	eligFn := func(i int) bool { return elig[i] }

	// (2) Base case: distances in {0, 1}.
	if p.d == 1 {
		d := graph.Inf
		mb.Span(phase.Base.Key, depth, func() {
			if p.offset >= 0 && p.offset <= 1 {
				d = p.offset
			}
			if p.offset == 0 {
				for i := 0; i < c.Degree(); i++ {
					if elig[i] && c.Weight(i) == 1 {
						mb.Send(i, s.tag(p.path, offBase), struct{}{})
					}
				}
			}
			mb.SleepUntil(entry + 2)
			if len(mb.Take(s.tag(p.path, offBase))) > 0 && d > 1 {
				d = 1
			}
		})
		return d
	}

	// (3) Spanning forest of the participant subgraph — the per-component
	// coordination structure (Thm 3.1; model-agnostic).
	var fr forest.Result
	mb.Span(phase.Decompose.Key, depth, func() {
		fr = forest.Build(mb, forest.Params{
			Tag:        s.tag(p.path, offForest),
			StartRound: entry + 1,
			SizeBound:  p.sizeBound,
			Eligible:   eligFn,
		})
	})

	// (4) Approximate cut (Lemma 2.1) with W = D.
	cutPhase := phase.Cutter
	if s.provider != nil {
		cutPhase = phase.BFSLayers
	}
	approx := graph.Inf
	mb.Span(cutPhase.Key, depth, func() {
		approx = s.cut(p, entry, fr, eligFn)
	})
	// V1 membership: dist'(v) <= D + εD (inclusive: the cutter's additive
	// error bound is <= εW, so inclusion keeps every dist <= D node).
	inV1 := approx != graph.Inf && approx*s.epsDen <= p.d*(s.epsDen+s.epsNum)
	d1h := p.d / 2

	// (5) First recursion: (V1, S, D/2).
	d1 := graph.Inf
	if inV1 {
		d1 = s.runCall(callParams{
			path: 2 * p.path, d: d1h, offset: p.offset,
			sizeBound: fr.Size, eligible: elig,
		})
	}
	mb.Span(phase.Barrier.Key, depth, func() {
		s.barrier(fr, s.tag(p.path, offBarrier1), entry)
	})

	// (6) Cut offsets: V2 nodes announce their exact distances; boundary
	// nodes simulate the imaginary cut nodes x_{vu}.
	inV2 := d1 != graph.Inf
	offset2 := bfs.NotSource
	mb.Span(phase.Merge.Key, depth, func() {
		b := mb.Round()
		if inV2 {
			for i := 0; i < c.Degree(); i++ {
				if elig[i] {
					mb.Send(i, s.tag(p.path, offV2Exch), d1)
				}
			}
		}
		mb.SleepUntil(b + 1)
		v2Msgs := mb.Take(s.tag(p.path, offV2Exch))
		if inV1 && !inV2 {
			for _, m := range v2Msgs {
				cand := m.Body.(int64) + c.Weight(m.NbIndex) - d1h
				// The CONGEST recursion asserts non-negative offsets; the
				// sleeping one, whose cut works on a rounded metric,
				// tolerates them (Cut.Offset maps them to NotSource).
				if cand < 0 && s.provider == nil {
					panic(fmt.Sprintf("core: node %d: negative cut offset %d", c.ID(), cand))
				}
				if offset2 == bfs.NotSource || cand < offset2 {
					offset2 = cand
				}
			}
			// An original source whose offset exceeds D/2 seeds paths that
			// never enter V2; carry it into the second call.
			if p.offset > d1h {
				if cand := p.offset - d1h; offset2 == bfs.NotSource || cand < offset2 {
					offset2 = cand
				}
			}
		}
	})

	// (7) Second recursion: (V1∖V2, X, D/2).
	d2 := graph.Inf
	if inV1 && !inV2 {
		d2 = s.runCall(callParams{
			path: 2*p.path + 1, d: d1h, offset: offset2,
			sizeBound: fr.Size, eligible: elig,
		})
	}
	mb.Span(phase.Barrier.Key, depth, func() {
		s.barrier(fr, s.tag(p.path, offBarrier2), entry)
	})

	// (8) Combine.
	switch {
	case inV2:
		return d1
	case inV1 && d2 != graph.Inf:
		return d1h + d2
	default:
		return graph.Inf
	}
}

// cut runs the approximate cutter of Lemma 2.1 with W = D over the
// rounding of bfs.NewCut, starting once the forest's budget is spent, and
// returns the node's approximate distance, or graph.Inf. Only the BFS over
// the rounded weights differs between the models: bfs.Fragment in CONGEST,
// energybfs.Run on a layered sparse cover of the rounded metric in the
// sleeping model. Each branch builds its own WeightOf: energybfs.Run
// stores it, so a shared closure would escape on the CONGEST path too.
func (s *cssp) cut(p callParams, entry int64, fr forest.Result, eligFn func(int) bool) int64 {
	c := s.mb.C
	cut := bfs.NewCut(p.d, fr.Size, s.epsNum, s.epsDen)
	start := entry + 1 + forest.Duration(p.sizeBound)
	if s.provider == nil {
		return cut.Dist(bfs.Fragment(s.mb, bfs.FragmentParams{
			Tag:          s.tag(p.path, offCutter),
			StartRound:   start,
			Threshold:    cut.Threshold,
			SourceOffset: cut.Offset(p.offset),
			Eligible:     eligFn,
			WeightOf:     func(i int) int64 { return cut.Weight(c.Weight(i)) },
		}))
	}
	g := s.provider.g
	cover := s.provider.get(p.path, fr.CompID, c.ID(),
		func(u graph.NodeID, i int) int64 { return cut.Weight(g.Adj(u)[i].W) },
		cut.Threshold)
	return cut.Dist(energybfs.Run(s.mb, energybfs.Params{
		Tag:          cutterTag(p.path),
		StartRound:   start,
		Cover:        cover,
		Threshold:    cut.Threshold,
		SourceOffset: cut.Offset(p.offset),
		Eligible:     eligFn,
		WeightOf:     func(i int) int64 { return cut.Weight(c.Weight(i)) },
	}))
}

// barrier re-synchronizes the call's component after a child recursion
// (the paper's step 4): proto's event-driven convergecast in CONGEST, the
// count-based periodic tree sweeps of energyBarrier in the sleeping model.
func (s *cssp) barrier(fr forest.Result, tag uint64, entry int64) {
	if s.provider == nil {
		proto.Barrier(s.mb, fr.Tree, tag, fr.Size)
		return
	}
	energyBarrier(s.mb, fr.Tree, tag, fr.Size, entry)
}

// sourceOffset is one (source node, offset) pair of a CSSP instance.
type sourceOffset struct {
	v   graph.NodeID
	off int64
}

// sortedSources returns the source set in ascending node-ID order. Every
// place that seeds per-source work iterates this slice, never the map:
// Go's map order is randomized per run, and a run's error messages, traces,
// and span ledgers must be reproducible.
func sortedSources(sources map[graph.NodeID]int64) []sourceOffset {
	srcs := make([]sourceOffset, 0, len(sources))
	for v, off := range sources {
		srcs = append(srcs, sourceOffset{v, off})
	}
	sort.Slice(srcs, func(a, b int) bool { return srcs[a].v < srcs[b].v })
	return srcs
}

// problem is a prepared CSSP instance: the (possibly rescaled) graph the
// engine runs, the Theorem 2.7 weight scale, the largest rescaled source
// offset, and the starting threshold.
type problem struct {
	run    *graph.Graph
	scale  int64
	maxOff int64
	d0     int64
	levels int
}

// prepareProblem validates the sources, applies the Theorem 2.7 zero-weight
// rescaling, and derives the initial power-of-two threshold D0. Weights,
// offsets or an ε that would push the threshold arithmetic past
// graph.MaxThreshold or int64 are an error, not a wrong answer.
func prepareProblem(g *graph.Graph, srcs []sourceOffset, epsNum, epsDen int64) (problem, error) {
	var maxOff int64
	for _, s := range srcs {
		if s.off < 0 {
			return problem{}, fmt.Errorf("core: negative offset %d at source %d", s.off, s.v)
		}
		maxOff = max(maxOff, s.off)
	}
	pr := problem{run: g, scale: 1}
	n := max(int64(g.N()), 1)
	for _, e := range g.Edges() {
		if e.W == 0 {
			pr.scale = n + 1
			break
		}
	}
	// D0 is the power of two above (n·maxW + maxOff)·scale: it must not
	// exceed graph.MaxThreshold. Checked before any product can overflow.
	lim := (graph.MaxThreshold - 2) / pr.scale
	if maxW := max(g.MaxWeight(), 1); maxW > lim/n || maxOff > lim-n*maxW {
		return problem{}, fmt.Errorf("core: weights too large for exact distances: n=%d, max weight %d, max offset %d; n·maxW+maxOff must be at most %d",
			g.N(), maxW, maxOff, lim)
	}
	if pr.scale > 1 {
		// Scaling every weight by n+1 (zeros to 1) preserves exact
		// distances: a shortest path gains less than n+1 from the
		// zero-weight perturbation.
		pr.run = g.Reweight(func(_ graph.EdgeID, w int64) int64 {
			if w == 0 {
				return 1
			}
			return w * pr.scale
		})
	}
	pr.maxOff = maxOff * pr.scale
	pr.d0, pr.levels = startThreshold(pr.run, pr.maxOff)
	if pr.d0 > math.MaxInt64/(epsDen+epsNum) || epsDen > math.MaxInt64/(n+1) {
		return problem{}, fmt.Errorf("core: ε = %d/%d overflows the threshold arithmetic at D0 = %d", epsNum, epsDen, pr.d0)
	}
	return pr, nil
}

// collectOutputs descales the per-node outputs into distances and stats.
func collectOutputs(outs []output, scale int64, levels int) ([]int64, Stats) {
	dists := make([]int64, len(outs))
	stats := Stats{Subproblems: make([]int, len(outs)), Levels: levels}
	for v, out := range outs {
		if out.Dist == graph.Inf {
			dists[v] = graph.Inf
		} else {
			dists[v] = out.Dist / scale
		}
		stats.Subproblems[v] = out.Subproblems
	}
	return dists, stats
}

// depthOf recovers the recursion depth from a call's heap path (path 1 is
// the root call at depth 0).
func depthOf(path uint64) int {
	return bits.Len64(path) - 1
}
