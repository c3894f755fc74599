// Package dsssp is a reproduction of "A Near-Optimal Low-Energy
// Deterministic Distributed SSSP with Ramifications on Congestion and APSP"
// (Ghaffari & Trygub, PODC 2024): deterministic distributed shortest-path
// algorithms on a simulated synchronous message-passing network, in two
// models:
//
//   - ModelCongest — the classic CONGEST model; the CSSP/SSSP algorithms
//     run in Õ(n) rounds with poly(log n) messages per edge
//     (Theorems 2.6/2.7), which lets n instances be scheduled concurrently
//     for APSP in Õ(n) rounds (Section 1.1).
//   - ModelSleeping — the sleeping (energy) model; nodes sleep almost
//     always and each spends only polylogarithmically many awake rounds
//     (Theorems 1.1/3.8/3.15).
//
// Quick start:
//
//	g := dsssp.NewGraph(4)
//	g.AddEdge(0, 1, 2)
//	g.AddEdge(1, 2, 1)
//	g.AddEdge(2, 3, 5)
//	res, err := dsssp.SSSP(g, 0, nil)
//	// res.Dist == [0 2 3 8], res.Metrics.MaxEdgeMessages is polylog.
//
// The packages under internal/ hold the building blocks: the round/energy
// simulator (simnet), graph substrate (graph), tree coordination (proto),
// Boruvka spanning forests (forest), the approximate cutter (bfs), sparse
// covers (decomp), the sleeping-model BFS (energybfs), the core recursion
// (core), classic baselines (baseline), and the APSP scheduling composition
// (sched).
package dsssp

import (
	"fmt"
	"runtime"
	"slices"

	"dsssp/internal/baseline"
	"dsssp/internal/core"
	"dsssp/internal/energybfs"
	"dsssp/internal/graph"
	"dsssp/internal/sched"
	"dsssp/internal/simnet"
)

// Model selects the execution model; it is the simulator's own enum.
type Model = simnet.Model

// Available models.
const (
	// ModelCongest is the synchronous CONGEST model (Section 2).
	ModelCongest = simnet.Congest
	// ModelSleeping is the sleeping/energy model (Section 3).
	ModelSleeping = simnet.Sleeping
)

// Inf marks an unreachable node (or one beyond a threshold).
const Inf = graph.Inf

// NodeID identifies a node (0..n-1).
type NodeID = graph.NodeID

// Graph re-exports the weighted undirected graph type.
type Graph = graph.Graph

// NewGraph returns an empty graph with n nodes. Graphs are simple:
// re-adding an existing edge {u,v} keeps the minimum of the weights and
// returns the existing edge ID instead of growing the graph (see
// Graph.AddEdge), so a graph is a pure function of its edge set — the
// property the serving layer's content-addressed result cache keys on.
func NewGraph(n int) *Graph { return graph.New(n) }

// EdgeDelta is one edge mutation (insert / delete / reweight) in a batched
// graph update; see ApplyDeltas.
type EdgeDelta = graph.EdgeDelta

// Edge-delta operations, re-exported for ApplyDeltas batches.
const (
	DeltaInsert   = graph.DeltaInsert
	DeltaDelete   = graph.DeltaDelete
	DeltaReweight = graph.DeltaReweight
)

// ApplyDeltas returns a new graph equal to g with the edge deltas applied
// in order, leaving g untouched. Inserting an existing pair merges under
// the same keep-min policy as AddEdge and the result is rebuilt in
// canonical edge order, so a patched graph remains a pure function of its
// edge set — the invariant the serving layer's dynamic-graph revisions and
// content-addressed cache rely on.
func ApplyDeltas(g *Graph, deltas []EdgeDelta) (*Graph, error) {
	return graph.ApplyDeltas(g, deltas)
}

// WitnessParents extracts the canonical min-ID shortest-path tree implied
// by an exact distance vector: parent[v] is the lowest-numbered neighbor u
// with dist[u] + w(u,v) == dist[v] (-1 at the source and at unreachable
// nodes). It is a pure function of (g, dist) and matches SSSPTree's Parent
// byte-for-byte, which is what lets the serving layer rebuild a remembered
// tree after a patch (affected-region repair) without re-running the
// engine. dist must be exact for source; inexact vectors panic.
func WitnessParents(g *Graph, source NodeID, dist []int64) []NodeID {
	return graph.WitnessParents(g, source, dist)
}

// Metrics re-exports the simulator's complexity measures: Rounds (time),
// MaxEdgeMessages (congestion), MaxAwake (energy), Messages, and more.
type Metrics = simnet.Metrics

// Options tunes a run.
type Options struct {
	// Model selects CONGEST (default) or the sleeping model. APSP and
	// APSPFrom run in CONGEST only and reject the sleeping model.
	Model Model
	// EpsNum/EpsDen is the cutter ε in (0,1); defaults to 1/2.
	EpsNum, EpsDen int64
	// MaxRounds caps the simulation (0 = a generous default).
	MaxRounds int64
	// StrictCongest enforces the strict CONGEST bandwidth model on
	// SSSP/CSSP/APSP runs (ModelCongest only): every message is sized and
	// the run fails loudly if any exceeds the O(log n)-bit budget.
	// Result.Metrics.MaxMessageBits then reports the largest message seen.
	StrictCongest bool
	// Workers bounds the worker pool used by APSP's per-source instances
	// (0 = runtime.NumCPU(); 1 = sequential). SSSP/CSSP/BFS ignore it:
	// a single simulation always runs sequentially.
	Workers int
	// IntraWorkers is ignored: a simulation runs each round's wakes on one
	// goroutine.
	//
	// Deprecated: it stays only because the benchmark harness still sets
	// it, and goes once a benchmark change stops doing so.
	IntraWorkers int
	// RecordPhases is ignored: every SSSP/CSSP/SSSPTree result carries
	// the per-phase span ledger in Result.Metrics.Spans, and every APSP
	// result carries the merged ledger in APSPResult.Composition.Spans.
	//
	// Deprecated: it stays only because the benchmark harness still sets
	// it, and goes once a benchmark change stops doing so.
	RecordPhases bool
}

// resolved validates the options once and normalizes the zero value: a nil
// Options or a zero Model means ModelCongest; any other unknown Model is
// rejected here with a descriptive error, so SSSP/CSSP/BFS all fail
// consistently instead of each reporting its own opaque error.
func (o *Options) resolved() (Model, core.Options, error) {
	m := ModelCongest
	copt := core.Options{}
	if o != nil {
		if o.Model != 0 {
			m = o.Model
		}
		copt = core.Options{EpsNum: o.EpsNum, EpsDen: o.EpsDen, MaxRounds: o.MaxRounds, StrictCongest: o.StrictCongest}
	}
	switch m {
	case ModelCongest, ModelSleeping:
		if copt.StrictCongest && m != ModelCongest {
			return 0, core.Options{}, fmt.Errorf(
				"dsssp: Options.StrictCongest applies to ModelCongest only (got %s)", m)
		}
		return m, copt, nil
	default:
		return 0, core.Options{}, fmt.Errorf(
			"dsssp: invalid Options.Model %d: use ModelCongest (%d), ModelSleeping (%d), or leave it zero for the CONGEST default",
			int(m), int(ModelCongest), int(ModelSleeping))
	}
}

func (o *Options) workers() int {
	if o == nil || o.Workers == 0 {
		return runtime.NumCPU()
	}
	return o.Workers
}

// Result is the outcome of a distance computation.
type Result struct {
	// Dist[v] is the exact distance (Inf if unreachable).
	Dist []int64
	// Metrics holds time/congestion/energy measurements.
	Metrics Metrics
	// SubproblemsMax is the maximum number of recursion subproblems any
	// node participated in (Lemma 2.4 bounds it by O(log D)).
	SubproblemsMax int
}

// SSSP computes exact single-source shortest paths from source with the
// paper's algorithm in the selected model.
func SSSP(g *Graph, source NodeID, opts *Options) (*Result, error) {
	return CSSP(g, map[NodeID]int64{source: 0}, opts)
}

// CSSP computes exact closest-source distances dist(S,v) = min over sources
// s of offset(s)+dist(s,v) (Definition 2.3 with offsets). A source that is
// not a node of g is an error. A graph AddEdge left unsorted gives the
// results of its sorted form (see Graph.Canonical) and is not modified.
func CSSP(g *Graph, sources map[NodeID]int64, opts *Options) (*Result, error) {
	m, copt, err := opts.resolved()
	if err != nil {
		return nil, err
	}
	d, st, run, err := core.Run(g, sources, copt, m, false)
	if err != nil {
		return nil, err
	}
	res := &Result{Dist: d, Metrics: run.Metrics}
	for _, k := range st.Subproblems {
		if k > res.SubproblemsMax {
			res.SubproblemsMax = k
		}
	}
	return res, nil
}

// BFS computes hop distances from the sources — the nodes mapped to true —
// up to the threshold, which must not be negative; a node farther than the
// threshold gets Inf. A threshold above n−1 runs as n−1, so any larger
// value, math.MaxInt64 included, means "unbounded". In ModelSleeping it
// uses the cover-driven low-energy BFS (Theorem 3.13/3.14); in
// ModelCongest the plain distributed BFS.
func BFS(g *Graph, sources map[NodeID]bool, threshold int64, opts *Options) (*Result, error) {
	m, copt, err := opts.resolved()
	if err != nil {
		return nil, err
	}
	if copt.StrictCongest {
		// The CONGEST-side BFS baseline simulates in the sleeping engine
		// (always awake) for the energy contrast, so the strict bandwidth
		// budget does not attach to it.
		return nil, fmt.Errorf("dsssp: Options.StrictCongest is supported for SSSP/CSSP/APSP, not BFS")
	}
	if threshold < 0 {
		return nil, fmt.Errorf("dsssp: BFS threshold %d is negative", threshold)
	}
	// No hop distance exceeds n−1: a larger threshold would only lengthen
	// the run (the CONGEST baseline runs threshold+1 rounds).
	threshold = min(threshold, max(int64(g.N())-1, 0))
	src := make(map[NodeID]int64, len(sources))
	for s, ok := range sources {
		if ok {
			src[s] = 0
		}
	}
	if err := graph.CheckSources(g, src); err != nil {
		return nil, fmt.Errorf("dsssp: %w", err)
	}
	g = g.Canonical()
	if m == ModelSleeping {
		d, met, err := energybfs.BFS(g, src, threshold, simnet.Config{Model: simnet.Sleeping, MaxRounds: copt.MaxRounds})
		if err != nil {
			return nil, err
		}
		return &Result{Dist: d, Metrics: met}, nil
	}
	d, met, err := baseline.AlwaysAwakeBFS(g, sources, threshold, copt.MaxRounds)
	if err != nil {
		return nil, err
	}
	return &Result{Dist: d, Metrics: met}, nil
}

// APSPResult reports the scheduling composition of n SSSP instances
// (Section 1.1's APSP implication).
type APSPResult struct {
	// Dist[s][v] is the exact distance from s to v.
	Dist [][]int64
	// Composition holds dilation, congestion, and makespans (aligned,
	// random-delay, sequential), plus the instances' message total and
	// the heaviest instance's own congestion.
	Composition sched.Composition
}

// APSP computes all-pairs shortest paths by running one CONGEST CSSP
// instance per source, recording each instance's edge usage, and composing
// the traces under random-delay scheduling (seeded). The per-instance
// polylog congestion is what makes the random-delay makespan Õ(n).
// Section 1.1's composition is a CONGEST result, so ModelSleeping is
// rejected with an error.
//
// The per-source instances are independent simulations and are fanned out
// over Options.Workers goroutines (default runtime.NumCPU()); their results
// are composed in source order, so the result (and, if an instance fails,
// the error) is identical to a sequential run.
func APSP(g *Graph, opts *Options, seed int64) (*APSPResult, error) {
	return APSPFrom(g, nil, opts, seed)
}

// APSPFrom is APSP restricted to the given sources (nil means all n). The
// per-source instances run and compose exactly as in APSP, so for the same
// seed a source's distance row is identical whether it was computed in a
// full or a partial fan-out — which is what lets the serving layer's
// incremental path recompute only the sources an edge delta dirtied and
// reuse every other cached row verbatim. Dist rows for sources outside the
// set stay nil, and Composition covers only the instances actually run.
// A source listed twice is an error naming the lowest such source. Like
// APSP it runs in ModelCongest only.
func APSPFrom(g *Graph, sources []NodeID, opts *Options, seed int64) (*APSPResult, error) {
	m, copt, err := opts.resolved()
	if err != nil {
		return nil, err
	}
	if m != ModelCongest {
		return nil, fmt.Errorf("dsssp: APSP composes CONGEST instances (Section 1.1) and runs in ModelCongest only (got %s)", m)
	}
	sorted := slices.Sorted(slices.Values(sources))
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("dsssp: APSPFrom lists source %d more than once", sorted[i])
		}
	}
	g = g.Canonical() // sort once here, not once per instance in core.Run
	out := &APSPResult{Dist: make([][]int64, g.N())}
	runner := func(g *Graph, s NodeID) (*simnet.Result, error) {
		d, _, res, err := core.Run(g, map[NodeID]int64{s: 0}, copt, ModelCongest, true)
		if err == nil {
			out.Dist[s] = d
		}
		return res, err
	}
	comp, err := sched.APSPParallel(g, sources, runner, seed, opts.workers())
	if err != nil {
		return nil, err
	}
	out.Composition = comp
	return out, nil
}
