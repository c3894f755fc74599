package service

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"

	"dsssp"
	"dsssp/internal/graph"
	"dsssp/internal/harness"
	"dsssp/internal/simnet"
)

// badRequest marks an error as the client's fault (HTTP 400); everything
// else surfaces as a server-side failure.
type badRequest struct{ err error }

func (e badRequest) Error() string { return e.err.Error() }
func (e badRequest) Unwrap() error { return e.err }

func badf(format string, args ...any) error {
	return badRequest{fmt.Errorf(format, args...)}
}

// notFoundErr marks an error as naming a resource that is not there
// (HTTP 404).
type notFoundErr struct{ err error }

func (e notFoundErr) Error() string { return e.err.Error() }
func (e notFoundErr) Unwrap() error { return e.err }

func notfoundf(format string, args ...any) error {
	return notFoundErr{fmt.Errorf(format, args...)}
}

// GraphSpec describes a query's input graph, one of three ways:
//
//   - inline: "n" plus "edges" ([[u,v,w], …]); duplicate pairs merge under
//     the keep-min policy and the edge list is canonicalized (sorted), so
//     any permutation of the same edge set is the same graph — and hits
//     the same cache entry;
//   - generator: "family" (one of the registered generator families) plus
//     "n", "seed", and an optional weight spec — the graph is materialized
//     server-side exactly like the bench harness does it;
//   - registered: "graph_id" names a graph registered via POST /v1/graphs;
//     the query runs against its head revision (the handle's current
//     content after any PATCHes), mutually exclusive with every other
//     field.
type GraphSpec struct {
	// ID names a registered graph (POST /v1/graphs); mutually exclusive
	// with the inline and generator fields.
	ID    string     `json:"graph_id,omitempty"`
	N     int        `json:"n,omitempty"`
	Edges [][3]int64 `json:"edges,omitempty"`
	// Family selects a generator family (path, cycle, tree, grid, random,
	// cluster, star, expander, barbell, powerlaw, bfgadget, disconnected);
	// empty means inline edges.
	Family string `json:"family,omitempty"`
	// Seed names the generator's structure stream verbatim (omitted means
	// 0, a valid seed). The weight stream is derived, not shared: every
	// other spec axis — family, n, weight kind, max_w — is folded in
	// before decorrelation (see weightSeed), so two specs differing in any
	// field draw different weights even under the same bare Seed and
	// content-addressed cache keys cannot alias.
	Seed int64 `json:"seed,omitempty"`
	// Weights picks the generator's weight distribution (unit, uniform,
	// zero-heavy); default unit. Ignored for inline edges.
	Weights *WeightSpec `json:"weights,omitempty"`
}

// WeightSpec mirrors the harness weight vocabulary.
type WeightSpec struct {
	Kind string `json:"kind"`
	MaxW int64  `json:"max_w,omitempty"`
}

// QueryOptions mirrors dsssp.Options over the wire.
type QueryOptions struct {
	// Model is "congest" (default) or "sleeping".
	Model string `json:"model,omitempty"`
	// EpsNum/EpsDen set the cutter ε in (0,1); 0/0 means the default 1/2.
	EpsNum int64 `json:"eps_num,omitempty"`
	EpsDen int64 `json:"eps_den,omitempty"`
	// StrictCongest enforces the O(log n)-bit per-message budget.
	StrictCongest bool `json:"strict_congest,omitempty"`
	// MaxRounds caps the simulation (0 = a generous default).
	MaxRounds int64 `json:"max_rounds,omitempty"`
}

// SSSPRequest is the POST /v1/sssp body. Source defaults to node 0.
type SSSPRequest struct {
	Graph   GraphSpec    `json:"graph"`
	Source  int64        `json:"source"`
	Options QueryOptions `json:"options"`
}

// PathRequest is the POST /v1/path body: SSSP plus a path reconstruction
// from target back to source.
type PathRequest struct {
	Graph   GraphSpec    `json:"graph"`
	Source  int64        `json:"source"`
	Target  int64        `json:"target"`
	Options QueryOptions `json:"options"`
}

// APSPRequest is the POST /v1/apsp body. Seed is accepted and ignored:
// the composition's delays are fixed (Section 1.1), so it keys no cache.
type APSPRequest struct {
	Graph   GraphSpec    `json:"graph"`
	Seed    int64        `json:"seed"`
	Options QueryOptions `json:"options"`
}

// MetricsJSON is the wire form of the simulator metrics (the per-edge and
// per-node vectors stay server-side; totals travel).
type MetricsJSON struct {
	Rounds          int64 `json:"rounds"`
	StrictRounds    int64 `json:"strict_rounds,omitempty"`
	Messages        int64 `json:"messages"`
	MaxEdgeMessages int64 `json:"max_edge_messages"`
	MaxMessageBits  int64 `json:"max_message_bits,omitempty"`
	MaxAwake        int64 `json:"max_awake,omitempty"`
	TotalAwake      int64 `json:"total_awake,omitempty"`
}

func metricsJSON(m simnet.Metrics) MetricsJSON {
	return MetricsJSON{
		Rounds: m.Rounds, StrictRounds: m.StrictRounds, Messages: m.Messages,
		MaxEdgeMessages: m.MaxEdgeMessages, MaxMessageBits: m.MaxMessageBits,
		MaxAwake: m.MaxAwake, TotalAwake: m.TotalAwake,
	}
}

// SSSPResponse is the POST /v1/sssp result. Dist uses the +Inf sentinel
// (1<<62) for unreachable nodes, mirrored in Unreachable. A response
// served by affected-region repair carries Incr instead of Metrics: no
// simulation ran, so there are no rounds/messages to report — the
// distances are still byte-identical to a full run's.
type SSSPResponse struct {
	N              int            `json:"n"`
	M              int            `json:"m"`
	Dist           []int64        `json:"dist"`
	Unreachable    int            `json:"unreachable"`
	SubproblemsMax int            `json:"subproblems_max,omitempty"`
	Metrics        MetricsJSON    `json:"metrics,omitzero"`
	Incr           *QueryIncrJSON `json:"incr,omitempty"`

	// distLen is the length of Dist's encoding when spliceSSSP measured it
	// in the walk that counted Unreachable, so that renderSSSP does not
	// walk the row again to size it; 0 means not measured.
	distLen int
}

// QueryIncrJSON is the incremental-serving block of a single-source
// response that skipped the full computation.
type QueryIncrJSON struct {
	// Served is how the result was produced without a full run:
	// "repaired" (affected-region repair of a stale trace).
	Served string `json:"served"`
	// AffectedVertices / AffectedFraction size the region the repair
	// rebuilt (0 when the remembered trace was already exact).
	AffectedVertices int     `json:"affected_vertices"`
	AffectedFraction float64 `json:"affected_fraction"`
}

// PathResponse is the POST /v1/path result: the exact distance and one
// shortest path target → … → source (both endpoints inclusive). Repaired
// responses carry Incr instead of Metrics (see SSSPResponse).
type PathResponse struct {
	Dist    int64          `json:"dist"`
	Path    []int64        `json:"path"`
	Metrics MetricsJSON    `json:"metrics,omitzero"`
	Incr    *QueryIncrJSON `json:"incr,omitempty"`
}

// CompositionJSON is the wire form of the APSP scheduling composition.
type CompositionJSON struct {
	Dilation           int64 `json:"dilation"`
	Congestion         int64 `json:"congestion"`
	MakespanAligned    int64 `json:"makespan_aligned"`
	Makespan           int64 `json:"makespan"`
	MakespanSequential int64 `json:"makespan_sequential"`
	MaxMessageBits     int64 `json:"max_message_bits,omitempty"`
}

// APSPResponse is the POST /v1/apsp result. For registered graphs served
// incrementally, Incr reports the per-source reuse split and Composition
// covers only the incr.sources_recomputed instances; a reply that re-ran
// none omits it (distance rows are byte-identical to a from-scratch run
// either way; the composition of instances that were never re-run is
// unknowable without re-running them).
type APSPResponse struct {
	N           int              `json:"n"`
	M           int              `json:"m"`
	Dist        [][]int64        `json:"dist"`
	Composition *CompositionJSON `json:"composition,omitempty"`
	Incr        *IncrJSON        `json:"incr,omitempty"`
}

// IncrJSON is the incremental-serving split of an APSP response: how many
// per-source instances were served from cached rows, rebuilt by
// affected-region repair, or actually re-run.
type IncrJSON struct {
	SourcesReused     int `json:"sources_reused"`
	SourcesRepaired   int `json:"sources_repaired,omitempty"`
	SourcesRecomputed int `json:"sources_recomputed"`
}

// RegisterRequest is the POST /v1/graphs body: the graph to register,
// inline or by generator spec (graph_id is, naturally, rejected here).
type RegisterRequest struct {
	Graph GraphSpec `json:"graph"`
}

// GraphListResponse is the GET /v1/graphs body.
type GraphListResponse struct {
	Graphs []GraphInfo `json:"graphs"`
}

// DeltaJSON is one edge mutation in a PATCH /v1/graphs/{id}/edges batch.
type DeltaJSON struct {
	// Op is "insert", "delete", or "reweight".
	Op string `json:"op"`
	U  int64  `json:"u"`
	V  int64  `json:"v"`
	// W is the weight for insert/reweight; ignored for delete.
	W int64 `json:"w,omitempty"`
}

// PatchRequest is the PATCH /v1/graphs/{id}/edges body: a batch of edge
// deltas applied atomically, producing one new revision.
type PatchRequest struct {
	Deltas []DeltaJSON `json:"deltas"`
}

// parseDeltas validates the wire deltas against the target graph's node
// range and maps them onto graph.EdgeDelta.
func parseDeltas(ds []DeltaJSON, n int) ([]graph.EdgeDelta, error) {
	if len(ds) == 0 {
		return nil, badf("deltas must be a non-empty array")
	}
	out := make([]graph.EdgeDelta, len(ds))
	limit := graph.MaxSafeWeight(n)
	for i, d := range ds {
		var op graph.DeltaOp
		switch d.Op {
		case "insert":
			op = graph.DeltaInsert
		case "delete":
			op = graph.DeltaDelete
		case "reweight":
			op = graph.DeltaReweight
		default:
			return nil, badf("delta %d: unknown op %q (insert, delete, reweight)", i, d.Op)
		}
		switch {
		case d.U == d.V:
			return nil, badf("delta %d: self-loop at node %d", i, d.U)
		case d.U < 0 || d.U >= int64(n) || d.V < 0 || d.V >= int64(n):
			return nil, badf("delta %d: endpoints {%d,%d} out of range [0,%d)", i, d.U, d.V, n)
		case op != graph.DeltaDelete && d.W < 0:
			return nil, badf("delta %d: negative weight %d", i, d.W)
		case op != graph.DeltaDelete && d.W > limit:
			return nil, badf("delta %d: weight %d exceeds the limit %d for n=%d", i, d.W, limit, n)
		}
		out[i] = graph.EdgeDelta{Op: op, U: graph.NodeID(d.U), V: graph.NodeID(d.V), W: d.W}
	}
	return out, nil
}

// ErrorResponse is every non-2xx body: human prose in Error, a stable
// machine-readable Code (clients switch on it; the prose may change), and
// the request's correlation ID (also in the X-Dsssp-Request-Id header).
type ErrorResponse struct {
	Error     string `json:"error"`
	Code      string `json:"code"`
	RequestID string `json:"request_id,omitempty"`
}

// maxInlineEdges caps an inline edge list.
const maxInlineEdges = 1 << 20

// buildGraph validates a GraphSpec and materializes the graph, bounded by
// the server's size limits. Inline edge lists are canonicalized (sorted,
// duplicates merged keep-min) and handed to the bulk builder, so the
// simulation — not just the cache key — is a pure function of the edge set.
func buildGraph(spec GraphSpec, maxN int) (*graph.Graph, error) {
	if spec.ID != "" {
		// Handles are resolved by the caller (Server.prepare); a spec that
		// reaches materialization with one set is a caller that cannot
		// honor it.
		return nil, badf("graph.graph_id is not accepted here (inline or generator spec required)")
	}
	if spec.Family != "" {
		if err := checkGenerator(spec, maxN); err != nil {
			return nil, err
		}
		return makeGenerator(spec), nil
	}
	if spec.N < 2 || spec.N > maxN {
		return nil, badf("graph.n must be in [2,%d], got %d", maxN, spec.N)
	}
	if len(spec.Edges) == 0 {
		return nil, badf("inline graph has no edges (set graph.edges or graph.family)")
	}
	if len(spec.Edges) > maxInlineEdges {
		return nil, badf("graph has %d edges, limit %d", len(spec.Edges), maxInlineEdges)
	}
	edges := make([]graph.EdgeTriple, len(spec.Edges))
	limit := graph.MaxSafeWeight(spec.N)
	for i, e := range spec.Edges {
		u, v, w := e[0], e[1], e[2]
		if u > v {
			u, v = v, u
		}
		switch {
		case u == v:
			return nil, badf("edge %d: self-loop at node %d", i, u)
		case u < 0 || v >= int64(spec.N):
			return nil, badf("edge %d: endpoints {%d,%d} out of range [0,%d)", i, e[0], e[1], spec.N)
		case w < 0:
			return nil, badf("edge %d: negative weight %d", i, w)
		case w > limit:
			return nil, badf("edge %d: weight %d exceeds the limit %d for n=%d", i, w, limit, spec.N)
		}
		edges[i] = graph.EdgeTriple{U: graph.NodeID(u), V: graph.NodeID(v), W: w}
	}
	// Sorting by (u, v, w) puts a pair's copies side by side, lightest
	// first, so keeping the first copy is keep-min at O(1) a copy — a cost
	// an untrusted inline edge list cannot raise.
	slices.SortFunc(edges, func(a, b graph.EdgeTriple) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V), cmp.Compare(a.W, b.W))
	})
	dedup := edges[:0]
	for _, e := range edges {
		if n := len(dedup); n > 0 && e.U == dedup[n-1].U && e.V == dedup[n-1].V {
			continue
		}
		dedup = append(dedup, e)
	}
	return graph.FromEdges(spec.N, dedup)
}

// checkGenerator validates a generator spec without building anything, so
// a query can check it on every request and still resolve its cache key
// from the spec memo.
func checkGenerator(spec GraphSpec, maxN int) error {
	if len(spec.Edges) > 0 {
		return badf("graph.family and graph.edges are mutually exclusive")
	}
	if !slices.Contains(graph.Families(), graph.Family(spec.Family)) {
		return badf("unknown graph family %q (families: %v)", spec.Family, graph.Families())
	}
	if spec.N < 4 || spec.N > maxN {
		return badf("generator graphs need n in [4,%d], got %d", maxN, spec.N)
	}
	if spec.Weights == nil {
		return nil
	}
	switch spec.Weights.Kind {
	case "", string(harness.WeightUnit):
	case string(harness.WeightUniform), string(harness.WeightZeroHeavy):
		if spec.Weights.MaxW < 1 {
			return badf("%s weights need max_w >= 1", spec.Weights.Kind)
		}
		if limit := graph.MaxSafeWeight(spec.N); spec.Weights.MaxW > limit {
			return badf("max_w %d exceeds the weight limit %d for n=%d", spec.Weights.MaxW, limit, spec.N)
		}
	default:
		return badf("unknown weight kind %q (unit, uniform, zero-heavy)", spec.Weights.Kind)
	}
	return nil
}

// makeGenerator materializes a spec checkGenerator accepted.
func makeGenerator(spec GraphSpec) *graph.Graph {
	var w harness.WeightSpec
	if spec.Weights != nil {
		w = harness.WeightSpec{Kind: harness.WeightKind(spec.Weights.Kind), MaxW: spec.Weights.MaxW}
	}
	return graph.Make(graph.Family(spec.Family), spec.N, w.Fn(weightSeed(spec)), spec.Seed)
}

// weightSeed derives a generator spec's weight-stream seed. The spec-seed
// contract: spec.Seed names the structure stream verbatim (graph.Make
// consumes it as-is), while the weight stream folds every other spec axis —
// family, n, weight kind, max_w — into the seed before an LCG decorrelation
// step. The fold is what keeps distinct specs distinct: a bare LCG of
// spec.Seed alone made every family sharing a seed (notably the omitted-
// seed default 0) draw the same weight stream. A spec therefore names
// exactly one reproducible graph in the service's namespace. (Harness
// scenarios additionally fold the scenario *name* into their seeds, so a
// spec does not reproduce a named scenario's graph — replay those through
// dsssp-bench -scenarios instead.)
//
// The derivation is part of the wire contract and pinned by
// TestWeightSeedContract: changing it silently repoints every cached
// generator-spec result.
func weightSeed(spec GraphSpec) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|", spec.Family, spec.N)
	if spec.Weights != nil {
		fmt.Fprintf(h, "%s|%d", spec.Weights.Kind, spec.Weights.MaxW)
	}
	x := spec.Seed ^ int64(h.Sum64())
	return x*6364136223846793005 + 1442695040888963407
}

// resolveOptions maps wire options onto dsssp.Options. Every computed
// query's span ledger becomes phase:* spans in its trace and feeds the
// per-phase round histograms in /metrics; no response carries the
// breakdown inline.
func resolveOptions(o QueryOptions, workers int) (*dsssp.Options, error) {
	opts := &dsssp.Options{
		EpsNum: o.EpsNum, EpsDen: o.EpsDen,
		MaxRounds:     o.MaxRounds,
		StrictCongest: o.StrictCongest,
		Workers:       workers,
	}
	switch o.Model {
	case "", "congest":
		opts.Model = dsssp.ModelCongest
	case "sleeping":
		opts.Model = dsssp.ModelSleeping
	default:
		return nil, badf("unknown model %q (congest, sleeping)", o.Model)
	}
	if o.EpsNum != 0 || o.EpsDen != 0 {
		if o.EpsNum <= 0 || o.EpsDen <= 0 || o.EpsNum >= o.EpsDen {
			return nil, badf("ε must be in (0,1), got %d/%d", o.EpsNum, o.EpsDen)
		}
	}
	if o.MaxRounds < 0 {
		return nil, badf("max_rounds must be >= 0, got %d", o.MaxRounds)
	}
	return opts, nil
}
