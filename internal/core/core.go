// Package core implements the paper's primary contribution: the recursive
// D-thresholded closest-source shortest path (CSSP) algorithm of
// Section 2.3, giving exact SSSP/CSSP in Õ(n) rounds with poly(log n)
// congestion per edge (Theorems 2.6 and 2.7) in the CONGEST model.
//
// The recursion on a subproblem (participants P, source offsets o, bound D)
// is an explicit phase pipeline (pipeline.go; phase descriptors in
// package phase):
//
//  1. D == 1: one exchange round resolves distances in {0, 1} (all weights
//     are >= 1; zero weights are removed up front by the Theorem 2.7
//     scaling described at RunCSSP).
//  2. Build a rooted spanning forest of the participant subgraph
//     (package forest) — the per-component coordination structure.
//  3. Run the approximate cutter (Lemma 2.1, package bfs) with W = D and
//     the configured ε; V1 = {v : dist'(v) <= D+εD} over-approximates
//     {v : dist(v) <= D}.
//  4. Recurse on (V1, o, D/2). Each connected component proceeds at its
//     own speed; a convergecast barrier over the component tree
//     re-synchronizes, with the root picking a start round Θ(|C|) ahead
//     (the paper's step 4).
//  5. V2 = nodes that learned dist <= D/2. Boundary nodes outside V2
//     compute offsets simulating the imaginary cut nodes x_{vu}
//     (offset = dist(v) + w(vu) − D/2), merged with any original source
//     offset above D/2, and the second recursion runs on (V1∖V2, X, D/2).
//  6. Results combine: dist = dist1 if in V2, D/2 + dist2 if the second
//     call succeeded, else ∞ for this threshold.
//
// Every subproblem owns a tag block derived from its recursion path, so
// messages from drifted sibling components are buffered, never confused.
// Every pipeline stage reports its round/message/awake/bit spend into the
// engine's span ledger (simnet.SpanMetrics), keyed by phase and recursion
// depth; the per-phase counters partition the run's Metrics exactly.
package core

import (
	"fmt"
	"math/bits"

	"dsssp/internal/bfs"
	"dsssp/internal/forest"
	"dsssp/internal/graph"
	"dsssp/internal/phase"
	"dsssp/internal/proto"
	"dsssp/internal/simnet"
)

// Options configures the CSSP run.
type Options struct {
	// EpsNum/EpsDen is the cutter ε in (0,1); 0/0 defaults to 1/2.
	EpsNum, EpsDen int64
	// MaxRounds overrides the engine's safety cap (0 = engine default).
	MaxRounds int64
	// StrictCongest enforces the strict CONGEST bandwidth model: every
	// message is sized (proto.MessageBits) and the run fails loudly if any
	// exceeds the O(log n)-bit budget (proto.BitBudget). Congest model
	// only; metrics then report MaxMessageBits.
	StrictCongest bool
}

func (o Options) eps() (int64, int64) {
	if o.EpsNum == 0 && o.EpsDen == 0 {
		return 1, 2
	}
	return o.EpsNum, o.EpsDen
}

// validEps resolves the configured ε and rejects values outside (0,1).
func (o Options) validEps() (int64, int64, error) {
	epsNum, epsDen := o.eps()
	if epsNum <= 0 || epsDen <= 0 || epsNum >= epsDen {
		return 0, 0, fmt.Errorf("core: ε must be in (0,1), got %d/%d", epsNum, epsDen)
	}
	return epsNum, epsDen, nil
}

// Stats reports per-node structural measurements of one run.
type Stats struct {
	// Subproblems[v] counts the recursion calls node v participated in
	// (Lemma 2.4 bounds it by O(log D)).
	Subproblems []int
	// Levels is the recursion depth log2(D0).
	Levels int
}

// Output is a node's result.
type output struct {
	Dist        int64
	Subproblems int
}

// Tag block layout: each recursion call owns a 64-tag block indexed by its
// path in the binary recursion tree.
const (
	tagBlock    = 64
	offExch     = 0
	offBase     = 1
	offForest   = 2 // ..14 used by package forest
	offCutter   = 16
	offBarrier1 = 17 // +18
	offV2Exch   = 19
	offBarrier2 = 20 // +21
)

type cssp struct {
	mb             *proto.Mailbox
	epsNum, epsDen int64
	subproblems    int
	// v supplies the model-sensitive pipeline stages (pipeline.go).
	v variant
	// provider supplies per-call covers in the energy variant (energy.go).
	provider *coverProvider
}

// startThreshold returns the initial power-of-two threshold D0 covering
// every finite distance, and the recursion depth.
func startThreshold(g *graph.Graph, maxOff int64) (int64, int) {
	bound := int64(g.N())*g.MaxWeight() + maxOff + 1
	levels := bits.Len64(uint64(bound))
	return int64(1) << levels, levels
}

type callParams struct {
	path      uint64 // 1-based heap index of this call in the recursion tree
	d         int64  // threshold (power of two)
	offset    int64  // source offset or bfs.NotSource
	sizeBound int64  // upper bound on this call's component sizes
	eligible  []bool // edges to co-participants of the parent call (nil=all)
}

func (s *cssp) tag(path uint64, off int) uint64 { return path*tagBlock + uint64(off) }

// congestVariant instantiates the pipeline's model-sensitive stages for the
// CONGEST model (Theorems 2.6/2.7): the fragment cutter of Lemma 2.1 and
// the event-driven convergecast barrier.
type congestVariant struct{}

func (congestVariant) cutterPhase() phase.Phase { return phase.Cutter }

func (congestVariant) register(*cssp, uint64, graph.NodeID) {}

func (congestVariant) cut(s *cssp, p callParams, entry int64, fr forest.Result, eligFn func(int) bool) int64 {
	return bfs.CutterFragment(s.mb, bfs.CutterParams{
		Tag:          s.tag(p.path, offCutter),
		StartRound:   entry + 1 + forest.Duration(p.sizeBound),
		W:            p.d,
		NHat:         fr.Size,
		EpsNum:       s.epsNum,
		EpsDen:       s.epsDen,
		SourceOffset: p.offset,
		Eligible:     eligFn,
	})
}

func (congestVariant) barrier(s *cssp, fr forest.Result, tag uint64, _ int64) {
	proto.Barrier(s.mb, fr.Tree, tag, fr.Size)
}

func (congestVariant) checkOffsets() bool { return true }

// RunCSSPTraced is RunCSSP with per-message trace recording, used by the
// APSP scheduling composition.
func RunCSSPTraced(g *graph.Graph, sources map[graph.NodeID]int64, opts Options) ([]int64, Stats, simnet.Metrics, []simnet.TraceEntry, error) {
	return run(g, sources, opts, simnet.Congest, true)
}

// RunCSSP computes exact closest-source distances dist(S, v) =
// min_{s in S}(offset(s) + dist(s, v)) for every node, in the CONGEST
// model, per Theorems 2.6 and 2.7 (non-negative integer weights; zero
// weights are handled by scaling every weight by n+1, mapping zeros to 1,
// and dividing the result — the scaling preserves exact distances because
// a shortest path gains less than n+1 from the zero-weight perturbation).
func RunCSSP(g *graph.Graph, sources map[graph.NodeID]int64, opts Options) ([]int64, Stats, simnet.Metrics, error) {
	d, st, met, _, err := run(g, sources, opts, simnet.Congest, false)
	return d, st, met, err
}

// run executes the CSSP pipeline in the given model: the CONGEST recursion
// (congestVariant) or the sleeping-model one (energyVariant, with its cover
// provider). trace records one simnet.TraceEntry per message. Every run
// reports its per-(phase, depth) span ledger in Metrics.Spans.
func run(g *graph.Graph, sources map[graph.NodeID]int64, opts Options, model simnet.Model, trace bool) ([]int64, Stats, simnet.Metrics, []simnet.TraceEntry, error) {
	epsNum, epsDen, err := opts.validEps()
	if err != nil {
		return nil, Stats{}, simnet.Metrics{}, nil, err
	}
	if opts.StrictCongest && model == simnet.Sleeping {
		return nil, Stats{}, simnet.Metrics{}, nil, fmt.Errorf("core: StrictCongest applies to the CONGEST model, not the sleeping model")
	}
	pr, err := prepareProblem(g, sortedSources(sources), epsNum, epsDen)
	if err != nil {
		return nil, Stats{}, simnet.Metrics{}, nil, err
	}

	cfg := simnet.Config{Model: model, MaxRounds: opts.MaxRounds, RecordTrace: trace}
	if opts.StrictCongest {
		// The budget covers distance-sized payloads up to n·maxW+maxOff on
		// the (possibly zero-weight-rescaled) graph the engine actually runs.
		cfg.MessageBits = proto.MessageBits
		cfg.MaxMessageBits = proto.BitBudget(pr.run.N(), pr.run.MaxWeight()+pr.maxOff)
	}
	var v variant = congestVariant{}
	var provider *coverProvider
	if model == simnet.Sleeping {
		v, provider = energyVariant{}, newCoverProvider(pr.run)
	}
	eng := simnet.New(pr.run, cfg)
	res, err := eng.Run(func(c *simnet.Ctx) {
		mb := proto.NewMailbox(c)
		st := &cssp{mb: mb, epsNum: epsNum, epsDen: epsDen, v: v, provider: provider}
		off := bfs.NotSource
		if o, ok := sources[c.ID()]; ok {
			off = o * pr.scale
		}
		d := st.runCall(callParams{path: 1, d: pr.d0, offset: off, sizeBound: int64(c.N())})
		c.SetOutput(output{Dist: d, Subproblems: st.subproblems})
	})
	if err != nil {
		return nil, Stats{}, simnet.Metrics{}, nil, err
	}
	dists, stats := collectOutputs(g, res, pr.scale, pr.levels)
	return dists, stats, res.Metrics, res.Trace, nil
}

// RunSSSP computes exact single-source distances (Theorem 2.6/2.7
// specialized to one source).
func RunSSSP(g *graph.Graph, source graph.NodeID, opts Options) ([]int64, Stats, simnet.Metrics, error) {
	return RunCSSP(g, map[graph.NodeID]int64{source: 0}, opts)
}
