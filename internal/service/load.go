package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"dsssp/internal/obs/trace"
)

// LoadOptions tunes the service-load workload: Concurrency clients fire
// Requests total POST /v1/sssp queries drawn round-robin from Graphs
// distinct generator specs of size N. With Requests >> Graphs the steady
// state is cache-hit dominated, so the measured throughput is the serving
// layer's — not the simulator's.
type LoadOptions struct {
	Concurrency int `json:"concurrency"`
	Requests    int `json:"requests"`
	Graphs      int `json:"graphs"`
	N           int `json:"n"`
}

func (o *LoadOptions) applyDefaults() {
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.Requests <= 0 {
		o.Requests = 200
	}
	if o.Graphs <= 0 {
		o.Graphs = 4
	}
	if o.N <= 0 {
		o.N = 48
	}
}

// LoadReport is the service-load outcome.
type LoadReport struct {
	Options  LoadOptions `json:"options"`
	Requests int         `json:"requests"`
	// Hits/Misses count the X-Dsssp-Cache verdicts; HitRate = Hits/Requests.
	Hits    int     `json:"hits"`
	Misses  int     `json:"misses"`
	Errors  int     `json:"errors"`
	HitRate float64 `json:"hit_rate"`
	WallNS  int64   `json:"wall_ns"`
	// RPS is end-to-end request throughput over the run.
	RPS float64 `json:"rps"`
	// P50NS / P99NS are client-observed per-request latency percentiles.
	P50NS int64 `json:"p50_ns"`
	P99NS int64 `json:"p99_ns"`
	// P99Traces are the trace IDs of the slowest requests (at or above
	// the p99), slowest first — each load run mints a traceparent per
	// request, so a bad percentile is directly drillable in the server's
	// /debug/traces instead of being an anonymous number.
	P99Traces []TraceRef `json:"p99_traces,omitempty"`
	// FirstError carries one representative failure for diagnosis.
	FirstError string `json:"first_error,omitempty"`
}

// TraceRef points a load-report outlier at a concrete server-side trace
// in the flight recorder.
type TraceRef struct {
	TraceID   string `json:"trace_id"`
	LatencyNS int64  `json:"latency_ns"`
	// Served records how the request was answered (hit/miss for the
	// static workload; reused/repaired/recomputed for the dynamic one).
	Served string `json:"served,omitempty"`
}

// p99TraceRefs returns the sample's p99 and the refs at or above it,
// slowest first, capped so a report stays a report (the full recorder is
// one /debug/traces call away).
func p99TraceRefs(samples []TraceRef) (p99 int64, slowest []TraceRef) {
	const maxRefs = 5
	if len(samples) == 0 {
		return 0, nil
	}
	sorted := make([]TraceRef, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].LatencyNS > sorted[b].LatencyNS })
	p99 = sorted[(len(sorted)-1)-int(0.99*float64(len(sorted)-1))].LatencyNS
	for _, s := range sorted {
		if s.LatencyNS < p99 || len(slowest) == maxRefs {
			break
		}
		slowest = append(slowest, s)
	}
	return p99, slowest
}

// RunLoad hammers a running server with concurrent SSSP queries and
// measures cache-hit throughput. client may be nil (http.DefaultClient).
func RunLoad(ctx context.Context, client *http.Client, baseURL string, opt LoadOptions) (LoadReport, error) {
	opt.applyDefaults()
	if client == nil {
		client = http.DefaultClient
	}
	bodies := make([][]byte, opt.Graphs)
	for i := range bodies {
		b, err := json.Marshal(SSSPRequest{
			Graph: GraphSpec{
				Family: "random", N: opt.N, Seed: int64(i + 1),
				Weights: &WeightSpec{Kind: "uniform", MaxW: int64(opt.N)},
			},
		})
		if err != nil {
			return LoadReport{}, err
		}
		bodies[i] = b
	}

	lr := runLoadPool(ctx, client, baseURL, opt.Concurrency, opt.Requests,
		func(i int) []byte { return bodies[i%len(bodies)] },
		func(hit bool, _ string) string {
			if hit {
				return "hit"
			}
			return "miss"
		}, nil)
	rep := LoadReport{Options: opt, Errors: lr.errors, FirstError: lr.firstErr, WallNS: lr.wall.Nanoseconds()}
	rep.Hits, rep.Misses = len(lr.latencies("hit")), len(lr.latencies("miss"))
	rep.Requests = rep.Hits + rep.Misses + rep.Errors
	if rep.Requests > 0 {
		rep.HitRate = float64(rep.Hits) / float64(rep.Requests)
	}
	if rep.WallNS > 0 {
		rep.RPS = float64(rep.Requests) / (float64(rep.WallNS) / 1e9)
	}
	rep.P50NS, _ = percentiles(lr.latencies(""))
	rep.P99NS, rep.P99Traces = p99TraceRefs(lr.samples)
	return rep, ctx.Err()
}

// loadRun is what the closed-loop client pool leaves behind: every
// successful request as a TraceRef labelled with how it was served, and
// the failures.
type loadRun struct {
	mu       sync.Mutex
	samples  []TraceRef
	errors   int
	firstErr string
	wall     time.Duration
}

// fail counts a failed request (or PATCH), keeping the first error text.
func (lr *loadRun) fail(err error) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.errors++
	if lr.firstErr == "" {
		lr.firstErr = err.Error()
	}
}

// latencies returns the latencies of the samples served as label (every
// sample for "").
func (lr *loadRun) latencies(label string) []time.Duration {
	var out []time.Duration
	for _, s := range lr.samples {
		if label == "" || s.Served == label {
			out = append(out, time.Duration(s.LatencyNS))
		}
	}
	return out
}

// runLoadPool is the closed-loop client pool both load drivers share:
// concurrency workers take request indices 0..requests-1 from the
// dispatcher, fire body(i) at /v1/sssp with a minted traceparent, and record
// the latency under label(hit, incr). before, when non-nil, runs on the
// dispatcher ahead of request i (the dynamic driver PATCHes there). A
// cancelled ctx stops the dispatch; in-flight requests drain.
func runLoadPool(ctx context.Context, client *http.Client, baseURL string, concurrency, requests int,
	body func(i int) []byte, label func(hit bool, incr string) string, before func(lr *loadRun, i int)) *loadRun {
	lr := &loadRun{}
	var wg sync.WaitGroup
	idx := make(chan int)
	start := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				t0 := time.Now()
				hit, incr, traceID, err := oneLoadRequest(ctx, client, baseURL, body(i))
				d := time.Since(t0)
				if err != nil {
					lr.fail(err)
					continue
				}
				lr.mu.Lock()
				lr.samples = append(lr.samples, TraceRef{TraceID: traceID, LatencyNS: d.Nanoseconds(), Served: label(hit, incr)})
				lr.mu.Unlock()
			}
		}()
	}
dispatch:
	for i := 0; i < requests; i++ {
		if before != nil {
			before(lr, i)
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	lr.wall = time.Since(start)
	return lr
}

// oneLoadRequest fires a single SSSP query and reports how it was
// served: hit is the X-Dsssp-Cache verdict, incr is the X-Dsssp-Incr
// verdict ("repaired"/"recomputed", empty off the registered path).
// Each request carries a freshly minted traceparent so its server-side
// span tree is addressable in the flight recorder by the returned
// traceID — that is what turns a p99 number into a p99 explanation.
func oneLoadRequest(ctx context.Context, client *http.Client, baseURL string, body []byte) (hit bool, incr, traceID string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/sssp", bytes.NewReader(body))
	if err != nil {
		return false, "", "", err
	}
	req.Header.Set("Content-Type", "application/json")
	sc := trace.MintContext()
	req.Header.Set(trace.TraceparentHeader, sc.Traceparent())
	traceID = sc.TraceID.String()
	resp, err := client.Do(req)
	if err != nil {
		return false, "", traceID, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, "", traceID, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, "", traceID, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	return resp.Header.Get("X-Dsssp-Cache") == "hit", resp.Header.Get("X-Dsssp-Incr"), traceID, nil
}
