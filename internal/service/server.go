// Package service is the long-running serving layer over the whole stack:
// an HTTP API that answers SSSP/APSP/path queries (inline graphs or
// generator specs or registered, PATCHable graphs) from a bounded worker
// pool behind a content-addressed result cache. The determinism the bench
// harness guarantees is what makes this sound: a query result is a pure
// function of (canonical graph, options), so cached bytes are
// indistinguishable from recomputation. Scenario sweeps and their diffs
// are offline tools (dsssp-bench -json, dsssp-diff), not endpoints.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dsssp"
	"dsssp/internal/graph"
	"dsssp/internal/harness"
	"dsssp/internal/obs"
	"dsssp/internal/obs/trace"
	"dsssp/internal/simnet"
)

// Config tunes a Server. The zero value serves with sane defaults.
type Config struct {
	// HistoryDir is ignored: the daemon no longer stores sweep reports.
	//
	// Deprecated: it stays only because the benchmark harness still sets
	// it, and goes once a benchmark change stops doing so.
	HistoryDir string
	// CacheBytes is the result cache's byte budget (default 64 MiB; <= 0
	// after defaulting disables storage but keeps request deduplication).
	CacheBytes int64
	// GraphBytes is the dynamic-graph registry's byte budget: registered
	// graphs plus their per-source result traces and the bodies those keep,
	// evicted whole-graph LRU once every kept body is shed (default 256 MiB).
	GraphBytes int64
	// RegistryDir, when set, persists registered graphs (and their traces)
	// to disk on register/PATCH and reloads them on startup, so a redeploy
	// doesn't forget every registered graph. Empty disables persistence.
	RegistryDir string
	// RepairMaxAffected negative disables repairing stale traces: a dirty
	// source recomputes from scratch. Any other value repairs it whatever
	// the size of its affected region, since even a repair that rebuilds
	// every label costs a fraction of a simulation.
	RepairMaxAffected float64
	// Workers bounds concurrently executing queries (default NumCPU).
	Workers int
	// MaxN caps requested graph sizes (default 4096).
	MaxN int
	// Logger receives one structured completion line per request plus
	// slow-query and lifecycle events (default: discard — the daemon
	// passes a real handler; tests stay quiet).
	Logger *slog.Logger
	// SlowQueryThreshold marks requests slower than this as slow queries
	// (logged at Warn, counted in dsssp_slow_queries_total; default 1s).
	// Traces at least this slow also land in the flight recorder's
	// retained ring.
	SlowQueryThreshold time.Duration
	// TraceSampleRate is the fraction of requests that record a span tree
	// into the flight recorder (0 defaults to 1.0 — record everything;
	// negative disables recording, leaving only trace-ID correlation).
	// Unsampled requests pay no tracing allocations.
	TraceSampleRate float64
	// TraceRecent is the flight recorder's recent-trace ring capacity
	// (default 256).
	TraceRecent int
	// TraceRetained is the flight recorder's slow/error retention ring
	// capacity (default 64).
	TraceRetained int

	// now is the test hook for timestamps (default time.Now).
	now func() time.Time
	// maxBodyBytes is the test hook for the request body cap (default 16 MiB).
	maxBodyBytes int64
}

func (c *Config) applyDefaults() {
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.GraphBytes == 0 {
		c.GraphBytes = 256 << 20
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.MaxN <= 0 {
		c.MaxN = 4096
	}
	if c.maxBodyBytes <= 0 {
		c.maxBodyBytes = 16 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.SlowQueryThreshold <= 0 {
		c.SlowQueryThreshold = time.Second
	}
	if c.TraceSampleRate == 0 {
		c.TraceSampleRate = 1
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// Server is the dsssp serving layer; construct with New, expose with
// Handler, stop with Close.
type Server struct {
	cfg      Config
	cache    *Cache
	registry *GraphRegistry
	querySem chan struct{}
	mux      *http.ServeMux
	metrics  *serverMetrics
	tracer   *trace.Tracer
	logger   *slog.Logger
}

// New builds a Server (restoring the persisted registry, if configured)
// without binding a port.
func New(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	cache := NewCache(cfg.CacheBytes)
	registry := NewGraphRegistry(cfg.GraphBytes, nil, cfg.now)
	if cfg.RegistryDir != "" {
		restored, err := registry.EnablePersistence(cfg.RegistryDir)
		if err != nil {
			return nil, fmt.Errorf("registry persistence: %w", err)
		}
		cfg.Logger.Info("registry persistence enabled",
			"dir", cfg.RegistryDir, "graphs_restored", restored)
	}
	metrics := newServerMetrics(&cfg, cache, registry)
	registry.bind(metrics, cfg.Logger)
	tracer := trace.New(trace.Config{
		SampleRate:    cfg.TraceSampleRate,
		Recent:        cfg.TraceRecent,
		Retained:      cfg.TraceRetained,
		SlowThreshold: cfg.SlowQueryThreshold,
	})
	s := &Server{
		cfg:      cfg,
		cache:    cache,
		registry: registry,
		querySem: make(chan struct{}, cfg.Workers),
		mux:      http.NewServeMux(),
		metrics:  metrics,
		tracer:   tracer,
		logger:   cfg.Logger,
	}
	s.mux.Handle("GET /metrics", s.metrics.reg.Handler())
	s.mux.HandleFunc("POST /v1/sssp", s.handleSSSP)
	s.mux.HandleFunc("POST /v1/path", s.handlePath)
	s.mux.HandleFunc("POST /v1/apsp", s.handleAPSP)
	s.mux.HandleFunc("POST /v1/graphs", s.handleGraphRegister)
	s.mux.HandleFunc("GET /v1/graphs", s.handleGraphList)
	s.mux.HandleFunc("GET /v1/graphs/{id}", s.handleGraphGet)
	s.mux.HandleFunc("DELETE /v1/graphs/{id}", s.handleGraphDelete)
	s.mux.HandleFunc("PATCH /v1/graphs/{id}/edges", s.handleGraphPatch)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the HTTP handler, wrapped in the instrumentation
// middleware: request-ID assignment, per-endpoint metrics, one structured
// completion log line per request, and panic recovery (a handler panic
// becomes a 500 JSON error, never a dead connection and never a dead
// server).
func (s *Server) Handler() http.Handler {
	return s.instrument(s.mux)
}

// Metrics exposes the telemetry registry (the daemon mounts it on the
// debug listener too; tests scrape it directly).
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// Close flushes the registry to its persistence directory: each graph's
// spill is rewritten whole, its journal cut back to the change log, so
// rows recorded by queries since the last rewrite survive too.
// Without Close — a crash or SIGKILL — the next boot replays each journal,
// so every acknowledged PATCH survives but rows recorded since the last
// rewrite may not. Call after the HTTP listener has drained
// (http.Server.Shutdown) so in-flight requests see consistent state.
func (s *Server) Close() {
	_ = s.registry.Flush() // the registry counts and logs each failure
}

// --- query endpoints ---

func (s *Server) handleSSSP(w http.ResponseWriter, r *http.Request) {
	var req SSSPRequest
	if !s.decode(w, r, &req) {
		return
	}
	rg, opts, ok := s.prepare(w, r, req.Graph, req.Options)
	if !ok {
		return
	}
	if req.Source < 0 || req.Source >= int64(rg.n) {
		s.replyError(w, badf("source %d out of range [0,%d)", req.Source, rg.n))
		return
	}
	var res *dsssp.Result
	src := graph.NodeID(req.Source)
	s.serveRows(w, r, rowQuery{
		resolvedGraph: rg,
		sources:       []graph.NodeID{src},
		parts:         queryKeyParts("sssp", req.Options, fmt.Sprintf("src=%d", req.Source)),
		engine: func(missing []graph.NodeID) ([]row, []simnet.SpanMetrics, error) {
			var err error
			if res, err = dsssp.SSSP(rg.load(), missing[0], opts); err != nil {
				return nil, nil, err
			}
			return []row{{dist: res.Dist}}, res.Metrics.Spans, nil
		},
	}, func(rs rowSet) ([]byte, error) {
		rw := rs.rows[0]
		if rw.body != nil {
			return rw.body, nil
		}
		g := rg.load()
		b, err := renderSSSP(ssspResponse(g, rw, res))
		// A repaired row is its trace's exact row from now on, and a
		// zero-change body depends on n, m and the row alone: offer one
		// to the trace.
		if err == nil && rw.served == rowRepaired {
			kept := b
			if rw.affected != 0 {
				kept = zeroChangeBody(b)
			}
			s.registry.keepBody(rg.id, src, rw.dist, g.M(), kept)
		}
		return b, err
	})
}

// zeroIncr is the incr block, and the body's closing brace, of a /v1/sssp
// body served from an exact trace.
var zeroIncr = func() []byte {
	b, err := json.Marshal(queryIncr(row{}, 1))
	if err != nil {
		panic(err)
	}
	return append(b, '}')
}()

// zeroChangeBody returns the body of an exact trace's row from b, the
// body that served the same row repaired: the two differ only in the incr
// block, the body's last field.
func zeroChangeBody(b []byte) []byte {
	i := bytes.LastIndex(b, []byte(`"incr":`)) + len(`"incr":`)
	return append(append(make([]byte, 0, i+len(zeroIncr)), b[:i]...), zeroIncr...)
}

// ssspResponse is the /v1/sssp answer of one row: a repaired row's carries
// its incr block, a computed row's the metrics of res, the run that
// computed it.
func ssspResponse(g *graph.Graph, rw row, res *dsssp.Result) SSSPResponse {
	size, unreachable := rowSize(rw.dist)
	resp := SSSPResponse{N: g.N(), M: g.M(), Dist: rw.dist, Unreachable: unreachable, distLen: size}
	if rw.served == rowRepaired {
		resp.Incr = queryIncr(rw, g.N())
	} else {
		resp.SubproblemsMax = res.SubproblemsMax
		resp.Metrics = metricsJSON(res.Metrics)
	}
	return resp
}

func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	var req PathRequest
	if !s.decode(w, r, &req) {
		return
	}
	rg, opts, ok := s.prepare(w, r, req.Graph, req.Options)
	if !ok {
		return
	}
	for _, op := range []struct {
		name string
		v    int64
	}{{"source", req.Source}, {"target", req.Target}} {
		if op.v < 0 || op.v >= int64(rg.n) {
			s.replyError(w, badf("%s %d out of range [0,%d)", op.name, op.v, rg.n))
			return
		}
	}
	var res *dsssp.TreeResult
	s.serveRows(w, r, rowQuery{
		resolvedGraph: rg,
		sources:       []graph.NodeID{graph.NodeID(req.Source)},
		parts:         queryKeyParts("path", req.Options, fmt.Sprintf("src=%d|dst=%d", req.Source, req.Target)),
		engine: func(missing []graph.NodeID) ([]row, []simnet.SpanMetrics, error) {
			var err error
			if res, err = dsssp.SSSPTree(rg.load(), missing[0], opts); err != nil {
				return nil, nil, err
			}
			return []row{{dist: res.Dist, parent: res.Parent}}, res.Metrics.Spans, nil
		},
	}, func(rs rowSet) ([]byte, error) {
		// The row's witness tree IS the shortest-path tree, computed or
		// repaired alike: the path is a parent walk from the target.
		rw := rs.rows[0]
		resp := PathResponse{Dist: rw.dist[req.Target], Path: []int64{}}
		if rw.served == rowRepaired {
			resp.Incr = queryIncr(rw, rg.n)
		} else {
			resp.Metrics = metricsJSON(res.Metrics)
		}
		if resp.Dist != graph.Inf {
			// Unreachable targets are an answer (dist = +Inf sentinel,
			// empty path), not an error.
			tree := dsssp.TreeResult{Result: dsssp.Result{Dist: rw.dist}, Parent: rw.parent}
			nodes, err := tree.PathTo(graph.NodeID(req.Target))
			if err != nil {
				return nil, err
			}
			for _, v := range nodes {
				resp.Path = append(resp.Path, int64(v))
			}
		}
		return json.Marshal(resp)
	})
}

func (s *Server) handleAPSP(w http.ResponseWriter, r *http.Request) {
	var req APSPRequest
	if !s.decode(w, r, &req) {
		return
	}
	rg, opts, ok := s.prepare(w, r, req.Graph, req.Options)
	if !ok {
		return
	}
	if opts.Model != dsssp.ModelCongest {
		// APSPFrom rejects it too, but on a registered graph whose every
		// source is traced the rows below would answer without calling it.
		s.replyError(w, fmt.Errorf("dsssp: APSP composes CONGEST instances (Section 1.1) and runs in ModelCongest only (got %s)", opts.Model))
		return
	}
	// Per-source SSSP instances are independent, so a reused or repaired row
	// is byte-identical to what a re-run would produce; only the Composition
	// (which describes the instances actually run this time, and is omitted
	// when none ran) and the Incr split distinguish a partially-reused
	// response from a from-scratch one.
	var res *dsssp.APSPResult
	s.serveRows(w, r, rowQuery{
		resolvedGraph: rg,
		parts:         queryKeyParts("apsp", req.Options, ""),
		allPairs:      true,
		engine: func(missing []graph.NodeID) ([]row, []simnet.SpanMetrics, error) {
			var err error
			if res, err = dsssp.APSPFrom(rg.load(), missing, opts); err != nil {
				return nil, nil, err
			}
			rows := make([]row, len(missing))
			for k, src := range missing {
				rows[k].dist = res.Dist[src]
			}
			return rows, res.Composition.Spans, nil
		},
	}, func(rs rowSet) ([]byte, error) {
		return renderAPSP(apspResponse(rg.load(), rs, res))
	})
}

// apspResponse is the /v1/apsp answer of a row per source. res is the run
// of the computed rows, nil when every row was reused or repaired; the
// incr block appears unless every row was computed.
func apspResponse(g *graph.Graph, rs rowSet, res *dsssp.APSPResult) APSPResponse {
	resp := APSPResponse{N: g.N(), M: g.M(), Dist: make([][]int64, g.N())}
	for v, rw := range rs.rows {
		resp.Dist[v] = rw.dist
	}
	if res != nil {
		comp := res.Composition
		resp.Composition = &CompositionJSON{
			Dilation: comp.Dilation, Congestion: comp.Congestion,
			MakespanAligned: comp.MakespanAligned, Makespan: comp.Makespan,
			MakespanSequential: comp.MakespanSequential, MaxMessageBits: comp.MaxMessageBits,
		}
	}
	if !rs.all(rowComputed) {
		resp.Incr = &IncrJSON{SourcesReused: rs.count[rowReused], SourcesRepaired: rs.count[rowRepaired], SourcesRecomputed: rs.count[rowComputed]}
	}
	return resp
}

// resolvedGraph is a query's graph as prepare resolved it. n and digest —
// what the range checks and the cache key need — are always set. g is nil
// when a generator spec was answered from the spec memo; load builds it
// then, on the compute path, so a result-cache hit never builds a graph.
type resolvedGraph struct {
	n      int
	digest [32]byte
	// id is the registered graph's handle ("" for inline and generator
	// specs). The query is pinned to the head revision it resolved — its
	// snapshot and digest — and that snapshot is immutable, so the query
	// is consistent even if a PATCH lands mid-computation.
	id   string
	g    *graph.Graph
	spec GraphSpec // the validated generator spec load builds g from
}

// load returns the query's graph, building it from the spec on first use.
func (rg *resolvedGraph) load() *graph.Graph {
	if rg.g == nil {
		rg.g = makeGenerator(rg.spec)
	}
	return rg.g
}

// prepare resolves the graph (inline, generator, or registered handle)
// and options for a query, replying on error. A generator spec is
// validated on every request and then resolved through the spec memo
// (resolveGenerator): on a memo hit the cache key and node count come
// without building the graph, which the compute path builds only if the
// result cache misses. Inline specs are built and hashed here; registered
// handles resolve to their head revision. For registered graphs the
// handle and revision travel in response headers, not the body: a cached
// body belongs to its content, which every handle, revision and inline
// query naming that content shares.
// A sampled request gets a graph.resolve span recording where the graph
// came from (registry / inline / generator, with the memo outcome) and
// its size.
func (s *Server) prepare(w http.ResponseWriter, r *http.Request, spec GraphSpec, qo QueryOptions) (*resolvedGraph, *dsssp.Options, bool) {
	sp := trace.FromContext(r.Context()).StartChild("graph.resolve")
	fail := func(err error) (*resolvedGraph, *dsssp.Options, bool) {
		sp.SetError(err.Error())
		sp.End()
		s.replyError(w, err)
		return nil, nil, false
	}
	opts, err := resolveOptions(qo, s.cfg.Workers)
	if err != nil {
		return fail(err)
	}
	var rg *resolvedGraph
	switch {
	case spec.ID != "":
		if spec.N != 0 || len(spec.Edges) > 0 || spec.Family != "" || spec.Seed != 0 || spec.Weights != nil {
			return fail(badf("graph.graph_id is mutually exclusive with inline and generator fields"))
		}
		g, digest, rev, err := s.registry.Resolve(spec.ID)
		if err != nil {
			return fail(err)
		}
		w.Header().Set("X-Dsssp-Graph-Id", spec.ID)
		w.Header().Set("X-Dsssp-Graph-Revision", strconv.Itoa(rev))
		sp.SetAttr("source", "registry")
		sp.SetAttr("graph_id", spec.ID)
		sp.SetAttr("revision", rev)
		rg = &resolvedGraph{n: g.N(), digest: digest, id: spec.ID, g: g}
	case spec.Family != "":
		if rg, err = s.resolveGenerator(spec); err != nil {
			return fail(err)
		}
		sp.SetAttr("source", "generator")
		if rg.g == nil {
			sp.SetAttr("memo", "hit")
		} else {
			sp.SetAttr("memo", "miss")
		}
	default:
		g, err := buildGraph(spec, s.cfg.MaxN)
		if err != nil {
			return fail(err)
		}
		sp.SetAttr("source", "inline")
		rg = &resolvedGraph{n: g.N(), digest: canonicalGraphDigest(g), g: g}
	}
	sp.SetAttr("n", rg.n)
	sp.End()
	return rg, opts, true
}

// resolveGenerator validates a generator spec, then resolves it through
// the spec memo: a hit gives the digest and node count without building
// the graph; a miss builds and hashes it and memoizes the pair. Only a
// spec that passed validation is memoized, so an invalid one fails with
// the same error on every request.
func (s *Server) resolveGenerator(spec GraphSpec) (*resolvedGraph, error) {
	if err := checkGenerator(spec, s.cfg.MaxN); err != nil {
		return nil, err
	}
	key := specMemoKey(spec)
	if digest, n, ok := s.cache.specDigest(key); ok {
		return &resolvedGraph{n: n, digest: digest, spec: spec}, nil
	}
	g := makeGenerator(spec)
	rg := &resolvedGraph{n: g.N(), digest: canonicalGraphDigest(g), g: g, spec: spec}
	s.cache.putSpecDigest(key, rg.digest, rg.n)
	return rg, nil
}

// finishQuery funnels every query through the content-addressed cache and
// the bounded worker pool: hits skip the pool entirely; misses acquire a
// worker slot (respecting request cancellation while queued), compute,
// and leave their bytes behind. Identical concurrent misses collapse into
// one computation (every follower gets the leader's bytes, counted as a
// hit and marked X-Dsssp-Cache: hit). compute's second return value says
// whether its bytes may be cached — false for responses that are not pure
// functions of the key (the incremental-APSP assembly). Returns whether
// the response was a cache hit and whether it was served at all (ok=false
// means an error reply already went out).
//
// Tracing: the request's span tree gains a cache.lookup span labeled with
// the outcome (hit / shared / miss); only the flight leader additionally
// opens queue.wait and exec spans — a singleflight follower's trace shows
// the wait inside its own cache.lookup and carries no engine work, which
// is exactly what happened. compute receives the exec span to hang repair
// and engine children from.
func (s *Server) finishQuery(w http.ResponseWriter, r *http.Request, key string, compute func(sp *trace.Span) ([]byte, bool, error)) (hit, ok bool) {
	root := trace.FromContext(r.Context())
	cacheSp := root.StartChild("cache.lookup")
	body, incr, outcome, err := s.cache.getOrCompute(key, func() ([]byte, string, bool, error) {
		qsp := root.StartChild("queue.wait")
		s.metrics.queueDepth.Inc()
		queued := time.Now()
		select {
		case s.querySem <- struct{}{}:
			s.metrics.queueDepth.Dec()
			s.metrics.queueWait.Observe(time.Since(queued).Seconds())
			qsp.End()
			s.metrics.poolBusy.Inc()
			defer func() {
				s.metrics.poolBusy.Dec()
				<-s.querySem
			}()
		case <-r.Context().Done():
			s.metrics.queueDepth.Dec()
			qsp.SetError("cancelled while queued")
			qsp.End()
			return nil, "", false, r.Context().Err()
		}
		execSp := root.StartChild("exec")
		b, cacheable, err := compute(execSp)
		if err != nil {
			execSp.SetError(err.Error())
		}
		execSp.End()
		return b, w.Header().Get("X-Dsssp-Incr"), cacheable, err
	})
	cacheSp.SetAttr("result", outcome.String())
	cacheSp.End()
	hit = outcome != cacheMiss
	if err != nil {
		s.replyError(w, err)
		return false, false
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)+1))
	if outcome == cacheShared && incr != "" {
		w.Header().Set("X-Dsssp-Incr", incr)
	}
	if hit {
		w.Header().Set("X-Dsssp-Cache", "hit")
	} else {
		w.Header().Set("X-Dsssp-Cache", "miss")
	}
	w.Write(body)
	w.Write([]byte("\n"))
	return hit, true
}

// graftEnginePhases embeds the simulator's span ledger into the wall-clock
// trace as children of the engine span: the engine's measured interval is
// apportioned across the phases by round share (the ledger's clock is
// rounds, not seconds), so the trace's leaf intervals line up end to end
// under their parent and the per-phase `rounds` attributes sum exactly to
// the run's total rounds — the conservation law the span ledger guarantees
// and the /debug/traces consumers assert.
func graftEnginePhases(eng *trace.Span, phases []harness.PhaseStat) {
	if eng == nil || len(phases) == 0 {
		return
	}
	total := harness.PhaseRounds(phases)
	d := time.Since(eng.StartTime())
	cursor := eng.StartTime()
	for _, ph := range phases {
		var pd time.Duration
		if total > 0 {
			pd = time.Duration(int64(d) * ph.Rounds / total)
		}
		attrs := []trace.Attr{
			trace.Int64("rounds", ph.Rounds),
			trace.Int64("messages", ph.Messages),
			trace.Int64("awake_rounds", ph.AwakeRounds),
		}
		if ph.MaxMessageBits > 0 {
			attrs = append(attrs, trace.Int64("max_message_bits", ph.MaxMessageBits))
		}
		if ph.RoundsByDepth != "" {
			attrs = append(attrs, trace.String("rounds_by_depth", ph.RoundsByDepth))
		}
		eng.Graft("phase:"+ph.Phase, cursor, pd, attrs...)
		cursor = cursor.Add(pd)
	}
	eng.SetAttr("rounds", total)
}

// --- dynamic-graph endpoints ---

func (s *Server) handleGraphRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Graph.ID != "" {
		s.replyError(w, badf("graph.graph_id cannot be set when registering a graph"))
		return
	}
	g, err := buildGraph(req.Graph, s.cfg.MaxN)
	if err != nil {
		s.replyError(w, err)
		return
	}
	info, created := s.registry.Register(g)
	code := http.StatusOK
	if created {
		code = http.StatusCreated
		s.logger.Info("graph registered",
			"graph_id", info.ID, "n", info.N, "m", info.M, "digest", info.Digest)
	}
	writeJSON(w, code, info)
}

func (s *Server) handleGraphList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, GraphListResponse{Graphs: s.registry.List()})
}

func (s *Server) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	info, ok := s.registry.Get(r.PathValue("id"))
	if !ok {
		s.replyError(w, notfoundf("no registered graph %q (evicted or never registered)", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	if !s.registry.Remove(r.PathValue("id")) {
		s.replyError(w, notfoundf("no registered graph %q (evicted or never registered)", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"removed": true})
}

func (s *Server) handleGraphPatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req PatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	g, _, _, err := s.registry.Resolve(id)
	if err != nil {
		s.replyError(w, err)
		return
	}
	deltas, err := parseDeltas(req.Deltas, g.N())
	if err != nil {
		s.replyError(w, err)
		return
	}
	pi, err := s.registry.Patch(id, deltas)
	if err != nil {
		s.replyError(w, err)
		return
	}
	s.logger.Info("graph patched",
		"graph_id", id, "revision", pi.Revision,
		"deltas", pi.DeltasApplied, "effects", pi.Effects,
		"sources_kept", pi.SourcesKept, "sources_dropped", pi.SourcesDropped,
		"sources_repairable", pi.SourcesRepairable)
	writeJSON(w, http.StatusOK, pi)
}

// --- observability endpoints ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// --- plumbing ---

// decode parses a JSON request body strictly: unknown fields and trailing
// garbage are 400s, a body over maxBodyBytes a 413, all with JSON errors.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "parsing request body: %v", err)
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "trailing data after the JSON body")
		return false
	}
	return true
}

// replyError maps an error to its status: client mistakes are 400s,
// algorithm/simulation rejections 422s, cancellations 499 (the de facto
// client-closed-request code), everything else 500.
func (s *Server) replyError(w http.ResponseWriter, err error) {
	var br badRequest
	var nf notFoundErr
	switch {
	case errors.As(err, &nf):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.As(err, &br):
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		writeError(w, 499, "request cancelled: %v", err)
	case isComputeError(err):
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// isComputeError recognizes algorithm-level rejections (invalid option
// combinations the wire validation cannot see, strict-CONGEST budget
// violations, round-cap overruns) — requests that were well-formed but
// unprocessable, as opposed to infrastructure failures.
func isComputeError(err error) bool {
	msg := err.Error()
	for _, prefix := range []string{"dsssp:", "simnet:", "core:", "proto:", "sched:"} {
		if strings.HasPrefix(msg, prefix) {
			return true
		}
	}
	return false
}
