package harness

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"dsssp"
	"dsssp/internal/baseline"
	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

// Result is the machine-readable outcome of one scenario run. Every field
// is a pure function of the Scenario — so reports from parallel and
// sequential sweeps (and from different machines) are byte-identical and
// diffable across PRs.
type Result struct {
	Scenario    string `json:"scenario"`
	Description string `json:"description,omitempty"`
	Family      string `json:"family"`
	Model       string `json:"model"`
	Alg         string `json:"alg"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	// EpsNum/EpsDen echo the scenario's cutter ε (0/0 = default 1/2) and
	// Strict its strict-CONGEST flag, so reports are self-describing and
	// the diff tool can refuse to align rows whose dimensions changed.
	EpsNum int64 `json:"eps_num,omitempty"`
	EpsDen int64 `json:"eps_den,omitempty"`
	Strict bool  `json:"strict,omitempty"`

	// Simulator metrics (per instance; for APSP, of the heaviest instance).
	Rounds          int64 `json:"rounds"`
	StrictRounds    int64 `json:"strict_rounds,omitempty"`
	Messages        int64 `json:"messages"`
	MaxEdgeMessages int64 `json:"max_edge_messages"`
	// MaxMessageBits is the largest single message in bits (strict
	// scenarios only — sizing is skipped elsewhere).
	MaxMessageBits int64 `json:"max_message_bits,omitempty"`
	MaxAwake       int64 `json:"max_awake,omitempty"`
	TotalAwake     int64 `json:"total_awake,omitempty"`
	SubproblemsMax int   `json:"subproblems_max,omitempty"`
	// Unreachable counts nodes at distance +Inf from the scenario's
	// sources (multi-component families; 0 elsewhere and for APSP).
	Unreachable int `json:"unreachable,omitempty"`

	// APSP composition metrics (Section 1.1), zero elsewhere.
	Dilation           int64 `json:"dilation,omitempty"`
	Congestion         int64 `json:"congestion,omitempty"`
	MakespanAligned    int64 `json:"makespan_aligned,omitempty"`
	Makespan           int64 `json:"makespan,omitempty"`
	MakespanSequential int64 `json:"makespan_sequential,omitempty"`

	// Phases is the per-phase breakdown of the run (CSSP-pipeline
	// algorithms only): where the rounds, messages, and awake rounds went,
	// stage by stage. The counters partition the scenario-level metrics
	// exactly — see PhaseStat.
	Phases []PhaseStat `json:"phases,omitempty"`

	// Envelope is the paper's predicted bound for this scenario; compare
	// the measured columns against it across PRs.
	Envelope Envelope `json:"envelope"`

	// DistHash is an FNV-64a digest of the exact distance vector(s); OK
	// reports agreement with the sequential Dijkstra/BFS reference.
	DistHash string `json:"dist_hash"`
	OK       bool   `json:"ok"`
	Err      string `json:"err,omitempty"`
}

// RunOptions tunes a sweep.
type RunOptions struct {
	// Parallel is the worker-pool size (0 = runtime.NumCPU(), 1 = run
	// sequentially in the calling goroutine's pool of one).
	Parallel int
	// Progress, if non-nil, is called after each scenario completes with
	// (completed count, total, that scenario's result). Calls are
	// serialized but arrive in completion order, not input order.
	Progress func(done, total int, r Result)
}

// Run executes the scenarios over a worker pool and returns results in
// input order. Independent simnet engines share nothing, so the sweep
// scales near-linearly with the pool; per-scenario seeds are derived from
// the scenario itself, so results are identical for any Parallel value.
//
// Cancellation: every worker checks ctx.Err() between scenarios, so a
// cancelled sweep stops at scenario granularity — scenarios already running
// finish, every undispatched one lands in the results as an explicitly
// skipped (failing) row, and the returned error is a *CancelError naming
// how many scenarios completed. A cancelled partial report can therefore
// never masquerade as an ordinarily short-but-successful sweep: the caller
// gets a descriptive error and the report itself carries the skipped rows
// as failures.
func Run(ctx context.Context, scenarios []Scenario, opt RunOptions) ([]Result, error) {
	workers := opt.Parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	if workers < 1 {
		workers = 1
	}
	results := make([]Result, len(scenarios))
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		done    int
		skipCnt int
	)
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				wasSkipped := false
				s := scenarios[i]
				if ctx.Err() != nil {
					results[i] = skipped(s, ctx.Err())
					wasSkipped = true
				} else {
					results[i] = Execute(s)
				}
				mu.Lock()
				done++
				if wasSkipped {
					skipCnt++
				}
				if opt.Progress != nil {
					opt.Progress(done, len(scenarios), results[i])
				}
				mu.Unlock()
			}
		}()
	}
	for i := range scenarios {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return results, &CancelError{Completed: len(scenarios) - skipCnt, Skipped: skipCnt, Total: len(scenarios), Cause: err}
	}
	return results, nil
}

// CancelError reports a sweep stopped by context cancellation: the partial
// results are still returned alongside it, with every unrun scenario
// present as a skipped failure.
type CancelError struct {
	// Completed scenarios actually ran (successfully or not); Skipped ones
	// were abandoned by the cancellation; Completed+Skipped == Total.
	Completed, Skipped, Total int
	// Cause is the context's error (context.Canceled or DeadlineExceeded).
	Cause error
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("harness: sweep cancelled after %d of %d scenarios (%d skipped): %v",
		e.Completed, e.Total, e.Skipped, e.Cause)
}

func (e *CancelError) Unwrap() error { return e.Cause }

func skipped(s Scenario, err error) Result {
	return Result{
		Scenario: s.Name, Description: s.Description,
		Family: string(s.Family), Model: string(s.Model), Alg: string(s.Alg),
		N: s.N, Err: fmt.Sprintf("skipped: sweep cancelled before this scenario ran: %v", err),
	}
}

// Execute runs a single scenario to completion and never panics: invalid
// scenarios are rejected by Validate, and generator or simulator panics are
// converted into the Err field, so one bad workload cannot take down a
// sweep. SSSP, CSSP, BFS and APSP scenarios run through the public API
// (dsssp.CSSP, dsssp.BFS, dsssp.APSPFrom) that library callers and the
// daemon use, so reports pin that API; only the Bellman-Ford and Dijkstra
// baselines come from internal/baseline.
func Execute(s Scenario) Result {
	if err := s.Validate(); err != nil {
		r := resultHeader(s)
		r.Err = err.Error()
		return r
	}
	return executeUnvalidated(s)
}

func resultHeader(s Scenario) Result {
	return Result{
		Scenario: s.Name, Description: s.Description,
		Family: string(s.Family), Model: string(s.Model), Alg: string(s.Alg),
		N: s.N, EpsNum: s.EpsNum, EpsDen: s.EpsDen, Strict: s.Strict,
		Envelope: s.PredictedEnvelope(),
	}
}

func executeUnvalidated(s Scenario) (r Result) {
	r = resultHeader(s)
	defer func() {
		if p := recover(); p != nil {
			r.Err = fmt.Sprintf("panic: %v", p)
			r.OK = false
		}
	}()
	g := s.BuildGraph()
	r.N, r.M = g.N(), g.M()
	opts := &dsssp.Options{
		Model:  dsssp.ModelCongest,
		EpsNum: s.EpsNum, EpsDen: s.EpsDen, StrictCongest: s.Strict,
		Workers: 1, // Run's sweep-level pool is the parallelism
	}
	if s.Model == ModelSleeping {
		opts.Model = dsssp.ModelSleeping
	}

	switch s.Alg {
	case AlgSSSP, AlgCSSP:
		sources := map[graph.NodeID]int64{0: 0}
		if s.Alg == AlgCSSP {
			sources = s.SourceOffsets()
		}
		res, err := dsssp.CSSP(g, sources, opts)
		if err != nil {
			r.Err = err.Error()
			return r
		}
		fillMetrics(&r, res.Metrics)
		r.SubproblemsMax = res.SubproblemsMax
		finish(&r, res.Dist, graph.MultiSourceDijkstra(g, sources))
		return r

	case AlgBFS:
		// 2·approx+1 upper-bounds the true hop diameter (double-sweep is a
		// 2-approximation), so every reachable node gets a finite distance.
		threshold := 2*graph.HopDiameterApprox(g) + 1
		res, err := dsssp.BFS(g, map[graph.NodeID]bool{0: true}, threshold, opts)
		if err != nil {
			r.Err = err.Error()
			return r
		}
		fillMetrics(&r, res.Metrics)
		finish(&r, res.Dist, graph.BFSDist(g, 0))
		return r

	case AlgBellmanFord:
		d, met, err := baseline.BellmanFord(g, 0)
		if err != nil {
			r.Err = err.Error()
			return r
		}
		fillMetrics(&r, met)
		finish(&r, d, graph.Dijkstra(g, 0))
		return r

	case AlgDijkstra:
		d, met, err := baseline.Dijkstra(g, 0)
		if err != nil {
			r.Err = err.Error()
			return r
		}
		fillMetrics(&r, met)
		finish(&r, d, graph.Dijkstra(g, 0))
		return r

	case AlgAPSP:
		res, err := dsssp.APSPFrom(g, nil, opts)
		if err != nil {
			r.Err = err.Error()
			return r
		}
		comp := res.Composition
		// Per-instance metrics are the heaviest instance's; Messages is the
		// total over all instances.
		r.Rounds, r.MaxEdgeMessages, r.Messages = comp.Dilation, comp.InstanceCongestion, comp.Messages
		r.MaxMessageBits = comp.MaxMessageBits
		// Phases merged over all composed instances: the summed counters
		// (messages, awake) and the bit maximum tie back to the scenario
		// totals; rounds are per-instance sums, not the heaviest instance.
		r.Phases = PhasesFromSpans(comp.Spans)
		r.Dilation, r.Congestion = comp.Dilation, comp.Congestion
		r.MakespanAligned, r.Makespan, r.MakespanSequential = comp.MakespanAligned, comp.Makespan, comp.MakespanSequential
		h := fnv.New64a()
		ok := true
		for src := 0; src < g.N(); src++ {
			want := graph.Dijkstra(g, graph.NodeID(src))
			ok = ok && equalDists(res.Dist[src], want)
			hashInto(h, res.Dist[src])
		}
		r.DistHash = fmt.Sprintf("%016x", h.Sum64())
		r.OK = ok
		if !ok {
			r.Err = "distances disagree with the Dijkstra reference"
		}
		return r
	}
	r.Err = fmt.Sprintf("harness: unhandled algorithm %q", s.Alg)
	return r
}

func fillMetrics(r *Result, met simnet.Metrics) {
	r.Rounds, r.StrictRounds, r.Messages = met.Rounds, met.StrictRounds, met.Messages
	r.MaxEdgeMessages, r.MaxAwake, r.TotalAwake = met.MaxEdgeMessages, met.MaxAwake, met.TotalAwake
	r.MaxMessageBits = met.MaxMessageBits
	r.Phases = PhasesFromSpans(met.Spans)
}

// finish verifies got against the sequential reference and records the hash.
// Unreachable nodes must agree on the exact +Inf sentinel — a huge-but-
// finite value would be a bug masked by plain equality on reachable rows,
// so the check is explicit.
func finish(r *Result, got, want []int64) {
	h := fnv.New64a()
	hashInto(h, got)
	r.DistHash = fmt.Sprintf("%016x", h.Sum64())
	r.OK = equalDists(got, want)
	if !r.OK {
		r.Err = "distances disagree with the sequential reference"
		return
	}
	for i, d := range got {
		if d == graph.Inf {
			r.Unreachable++
		} else if d > graph.Inf/2 {
			r.OK = false
			r.Err = fmt.Sprintf("node %d: near-Inf distance %d is neither finite nor the +Inf sentinel", i, d)
			return
		}
	}
}

func equalDists(got, want []int64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func hashInto(h interface{ Write([]byte) (int, error) }, dist []int64) {
	var buf [8]byte
	for _, d := range dist {
		for b := 0; b < 8; b++ {
			buf[b] = byte(uint64(d) >> (8 * b))
		}
		h.Write(buf[:])
	}
}
