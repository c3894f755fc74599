package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"time"
)

// DynamicLoadOptions tunes the dynamic-graph workload: one graph of size N
// is registered, then Concurrency clients fire Requests SSSP queries drawn
// round-robin from Sources distinct sources against its handle while the
// dispatcher interleaves a single-edge PATCH every PatchEvery queries.
// This is the APSP-style serving pattern the incremental path exists for —
// many per-source results over a slowly mutating graph — and the report
// splits latency by how each query was served (reused from cache vs
// recomputed), which is the measured win.
type DynamicLoadOptions struct {
	Concurrency int   `json:"concurrency"`
	Requests    int   `json:"requests"`
	N           int   `json:"n"`
	Sources     int   `json:"sources"`
	PatchEvery  int   `json:"patch_every"`
	Seed        int64 `json:"seed"`
	// ExpectRepair turns the run into an assertion: if the PATCH stream
	// dirtied at least one repairable source but no query was served by
	// affected-region repair, the run fails instead of silently measuring
	// the full-recompute path.
	ExpectRepair bool `json:"expect_repair,omitempty"`
}

func (o *DynamicLoadOptions) applyDefaults() {
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.Requests <= 0 {
		o.Requests = 400
	}
	if o.N <= 0 {
		o.N = 256
	}
	if o.Sources <= 0 {
		o.Sources = 32
	}
	if o.Sources > o.N {
		o.Sources = o.N
	}
	if o.PatchEvery <= 0 {
		o.PatchEvery = 50
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// DynamicLoadReport is the dynamic-graph workload outcome. Reused counts
// queries answered from the cache (trace survived every PATCH since the
// last recompute); Repaired counts dirty sources rebuilt from their stale
// trace by affected-region repair; Recomputed counts full simulations.
// The three-way latency split is the point: reused queries cost a map
// lookup, repaired ones an affected-region rebuild, recomputed ones a
// full simulation.
type DynamicLoadReport struct {
	Options DynamicLoadOptions `json:"options"`
	GraphID string             `json:"graph_id"`
	// FinalRevision is the graph's revision after the run (1 + patches applied).
	FinalRevision int `json:"final_revision"`

	Requests   int     `json:"requests"`
	Patches    int     `json:"patches"`
	Reused     int     `json:"reused"`
	Repaired   int     `json:"repaired"`
	Recomputed int     `json:"recomputed"`
	Errors     int     `json:"errors"`
	ReuseRate  float64 `json:"reuse_rate"`
	// DirtiedSources sums the per-PATCH count of traced sources that went
	// dirty with a stale trace kept — the population repair could serve.
	DirtiedSources int `json:"dirtied_sources"`

	ReusedP50NS     int64 `json:"reused_p50_ns"`
	ReusedP99NS     int64 `json:"reused_p99_ns"`
	RepairedP50NS   int64 `json:"repaired_p50_ns"`
	RepairedP99NS   int64 `json:"repaired_p99_ns"`
	RecomputedP50NS int64 `json:"recomputed_p50_ns"`
	RecomputedP99NS int64 `json:"recomputed_p99_ns"`

	WallNS int64   `json:"wall_ns"`
	RPS    float64 `json:"rps"`
	// P99Traces are the trace IDs of the slowest requests across all three
	// serving classes, slowest first, each tagged with how it was served —
	// the tail of a dynamic run is almost always recomputes, and the refs
	// make that checkable against /debug/traces instead of guessable.
	P99Traces  []TraceRef `json:"p99_traces,omitempty"`
	FirstError string     `json:"first_error,omitempty"`
}

// RunLoadDynamic drives the dynamic-graph workload against a running
// server: register, then interleave PATCHes with per-source queries and
// measure the reuse rate and the latency split. client may be nil.
func RunLoadDynamic(ctx context.Context, client *http.Client, baseURL string, opt DynamicLoadOptions) (DynamicLoadReport, error) {
	opt.applyDefaults()
	if client == nil {
		client = http.DefaultClient
	}
	rep := DynamicLoadReport{Options: opt}

	// Register the graph, and materialize the same generator spec locally:
	// the PATCH stream needs real edges to reweight, and the spec is a pure
	// function of its fields, so the local build matches the server's.
	spec := GraphSpec{
		Family: "random", N: opt.N, Seed: opt.Seed,
		Weights: &WeightSpec{Kind: "uniform", MaxW: int64(opt.N)},
	}
	g, err := buildGraph(spec, opt.N, 1<<30)
	if err != nil {
		return rep, err
	}
	edges := g.Edges()
	var info GraphInfo
	if err := doJSON(ctx, client, http.MethodPost, baseURL+"/v1/graphs", RegisterRequest{Graph: spec}, &info); err != nil {
		return rep, fmt.Errorf("registering graph: %w", err)
	}
	rep.GraphID = info.ID
	rep.FinalRevision = info.Revision

	queryBodies := make([][]byte, opt.Sources)
	for s := range queryBodies {
		b, err := json.Marshal(SSSPRequest{Graph: GraphSpec{ID: info.ID}, Source: int64(s)})
		if err != nil {
			return rep, err
		}
		queryBodies[s] = b
	}

	// The dispatcher owns the PATCH stream: every PatchEvery queries it
	// reweights one random edge (alternating +1 / back to original), so
	// queries and mutations genuinely interleave. Weight changes of ±1
	// exercise both classification directions — increases keep non-tight
	// sources, decreases keep sources the new weight cannot improve.
	rng := rand.New(rand.NewSource(opt.Seed))
	bumped := make(map[int]bool)
	patch := func(lr *loadRun, i int) {
		if i == 0 || i%opt.PatchEvery != 0 || len(edges) == 0 {
			return
		}
		ei := rng.Intn(len(edges))
		e := edges[ei]
		w := e.W + 1
		if bumped[ei] {
			w = e.W
		}
		bumped[ei] = !bumped[ei]
		var pi PatchInfo
		err := doJSON(ctx, client, http.MethodPatch, fmt.Sprintf("%s/v1/graphs/%s/edges", baseURL, info.ID), PatchRequest{
			Deltas: []DeltaJSON{{Op: "reweight", U: int64(e.U), V: int64(e.V), W: w}},
		}, &pi)
		if err != nil {
			lr.fail(fmt.Errorf("patch: %w", err))
			return
		}
		rep.Patches++
		rep.FinalRevision = pi.Revision
		rep.DirtiedSources += pi.SourcesRepairable
	}
	lr := runLoadPool(ctx, client, baseURL, opt.Concurrency, opt.Requests,
		func(i int) []byte { return queryBodies[i%len(queryBodies)] },
		func(hit bool, incr string) string {
			switch {
			case hit:
				return "reused"
			case incr == "repaired":
				return "repaired"
			}
			return "recomputed"
		}, patch)

	reused, repaired, recomputed := lr.latencies("reused"), lr.latencies("repaired"), lr.latencies("recomputed")
	rep.Errors, rep.FirstError, rep.WallNS = lr.errors, lr.firstErr, lr.wall.Nanoseconds()
	rep.Reused, rep.Repaired, rep.Recomputed = len(reused), len(repaired), len(recomputed)
	rep.Requests = rep.Reused + rep.Repaired + rep.Recomputed + rep.Errors
	if served := rep.Reused + rep.Repaired + rep.Recomputed; served > 0 {
		// Repaired queries avoided a full simulation too: count them on the
		// reuse side of the rate.
		rep.ReuseRate = float64(rep.Reused+rep.Repaired) / float64(served)
	}
	rep.ReusedP50NS, rep.ReusedP99NS = percentiles(reused)
	rep.RepairedP50NS, rep.RepairedP99NS = percentiles(repaired)
	rep.RecomputedP50NS, rep.RecomputedP99NS = percentiles(recomputed)
	_, rep.P99Traces = p99TraceRefs(lr.samples)
	if rep.WallNS > 0 {
		rep.RPS = float64(rep.Requests) / (float64(rep.WallNS) / 1e9)
	}
	if opt.ExpectRepair && rep.DirtiedSources > 0 && rep.Repaired == 0 {
		return rep, fmt.Errorf("expect-repair: %d sources went dirty with stale traces kept but no query was served by repair", rep.DirtiedSources)
	}
	return rep, ctx.Err()
}

// percentiles returns the p50 and p99 of the sample in nanoseconds (0,0
// for an empty sample).
func percentiles(ds []time.Duration) (p50, p99 int64) {
	if len(ds) == 0 {
		return 0, 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	at := func(q float64) int64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i].Nanoseconds()
	}
	return at(0.50), at(0.99)
}

func doJSON(ctx context.Context, client *http.Client, method, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(payload))
	}
	if out != nil {
		return json.Unmarshal(payload, out)
	}
	return nil
}
