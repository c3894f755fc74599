// Package service is the long-running serving layer over the whole stack:
// an HTTP API that answers SSSP/APSP/path queries (inline graphs or
// generator specs) from a bounded worker pool behind a content-addressed
// result cache, runs scenario sweeps as cancellable async jobs whose
// reports land in an append-only history store, and chains that history
// through internal/benchdiff into per-scenario and per-phase envelope-ratio
// trends. The determinism the bench harness guarantees is what makes this
// sound: a query result is a pure function of (canonical graph, options),
// so cached bytes are indistinguishable from recomputation, and stored
// reports from different moments in history are directly comparable.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dsssp"
	"dsssp/internal/graph"
	"dsssp/internal/harness"
	"dsssp/internal/obs"
	"dsssp/internal/obs/trace"
	"dsssp/internal/simnet"
)

// Config tunes a Server. The zero value serves with sane defaults except
// HistoryDir, which is required.
type Config struct {
	// HistoryDir is the append-only bench history directory (required).
	HistoryDir string
	// CacheBytes is the result cache's byte budget (default 64 MiB; <= 0
	// after defaulting disables storage but keeps request deduplication).
	CacheBytes int64
	// GraphBytes is the dynamic-graph registry's byte budget: registered
	// graphs plus their per-source result traces, evicted whole-graph LRU
	// (default 256 MiB).
	GraphBytes int64
	// RegistryDir, when set, persists registered graphs (and their traces)
	// to disk on register/PATCH and reloads them on startup, so a redeploy
	// doesn't forget every registered graph. Empty disables persistence.
	RegistryDir string
	// RepairMaxAffected is the affected-region repair cutoff as a fraction
	// of n: a dirty source is repaired from its stale trace only while the
	// affected region stays within the fraction; past it the repair
	// abandons ship and the source recomputes from scratch (which also
	// re-mints a cacheable canonical body). 0 defaults to 0.5; negative
	// disables repair entirely.
	RepairMaxAffected float64
	// Workers bounds concurrently executing queries (default NumCPU).
	Workers int
	// MaxIntraWorkers caps a query's requested intra-round simulation
	// workers (QueryOptions.Workers); requests above the cap are clamped,
	// not rejected — the knob cannot change result bytes, only wall time.
	// Default NumCPU; set 1 to force sequential simulation. Note the cap
	// composes with Workers: a saturated query pool times per-query intra
	// workers can oversubscribe the machine, so busy deployments should
	// keep one of the two at 1.
	MaxIntraWorkers int
	// SweepParallel is the worker-pool size handed to sweeps that do not
	// set their own (default NumCPU).
	SweepParallel int
	// MaxConcurrentSweeps bounds sweeps running at once (default 1);
	// queued jobs wait their turn.
	MaxConcurrentSweeps int
	// Rev labels stored reports (a git revision; default "unknown").
	Rev string
	// MaxN caps requested graph sizes (default 4096).
	MaxN int
	// MaxEdges caps inline edge lists (default 1<<20).
	MaxEdges int
	// MaxBodyBytes caps request bodies (default 16 MiB).
	MaxBodyBytes int64
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
}

func (c *Config) applyDefaults() {
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.GraphBytes == 0 {
		c.GraphBytes = 256 << 20
	}
	if c.RepairMaxAffected == 0 {
		c.RepairMaxAffected = 0.5
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.MaxIntraWorkers <= 0 {
		c.MaxIntraWorkers = runtime.NumCPU()
	}
	if c.SweepParallel <= 0 {
		c.SweepParallel = runtime.NumCPU()
	}
	if c.MaxConcurrentSweeps <= 0 {
		c.MaxConcurrentSweeps = 1
	}
	if c.Rev == "" {
		c.Rev = "unknown"
	}
	if c.MaxN <= 0 {
		c.MaxN = 4096
	}
	if c.MaxEdges <= 0 {
		c.MaxEdges = 1 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
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
	store    *Store
	registry *GraphRegistry
	jobs     *jobSet
	querySem chan struct{}
	sweepSem chan struct{}
	mux      *http.ServeMux
	metrics  *serverMetrics
	tracer   *trace.Tracer
	logger   *slog.Logger
	started  time.Time

	// baseCtx parents every job so Close can cancel them; jobsWG waits for
	// their goroutines to observe it.
	baseCtx   context.Context
	cancelAll context.CancelFunc
	jobsWG    sync.WaitGroup
}

// New builds a Server (opening the history store) without binding a port.
func New(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	store, err := OpenStore(cfg.HistoryDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	cache := NewCache(cfg.CacheBytes)
	registry := NewGraphRegistry(cfg.GraphBytes, cache, cfg.now)
	if cfg.RegistryDir != "" {
		restored, err := registry.EnablePersistence(cfg.RegistryDir)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("registry persistence: %w", err)
		}
		cfg.Logger.Info("registry persistence enabled",
			"dir", cfg.RegistryDir, "graphs_restored", restored)
	}
	metrics := newServerMetrics(&cfg, cache, store, registry)
	registry.bindMetrics(metrics)
	tracer := trace.New(trace.Config{
		SampleRate:    cfg.TraceSampleRate,
		Recent:        cfg.TraceRecent,
		Retained:      cfg.TraceRetained,
		SlowThreshold: cfg.SlowQueryThreshold,
	})
	s := &Server{
		cfg:       cfg,
		cache:     cache,
		store:     store,
		registry:  registry,
		jobs:      newJobSet(),
		querySem:  make(chan struct{}, cfg.Workers),
		sweepSem:  make(chan struct{}, cfg.MaxConcurrentSweeps),
		mux:       http.NewServeMux(),
		metrics:   metrics,
		tracer:    tracer,
		logger:    cfg.Logger,
		started:   cfg.now(),
		baseCtx:   ctx,
		cancelAll: cancel,
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
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepGet)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
	s.mux.HandleFunc("GET /v1/trends", s.handleTrends)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
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

// Tracer exposes the request tracer (the load generators and tests reach
// the flight recorder through it).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Close cancels every running job, waits for them to finish, and flushes
// the registry to its persistence directory (traces accumulated by queries
// since the last register/PATCH spill included). Call after the HTTP
// listener has drained (http.Server.Shutdown) so in-flight requests see
// consistent state.
func (s *Server) Close() {
	s.cancelAll()
	s.jobsWG.Wait()
	if err := s.registry.Flush(); err != nil {
		s.logger.Error("registry flush failed", "err", err)
	}
}

// Store exposes the history store (the daemon reports its location).
func (s *Server) Store() *Store { return s.store }

func (s *Server) now() time.Time { return s.cfg.now() }

// --- query endpoints ---

func (s *Server) handleSSSP(w http.ResponseWriter, r *http.Request) {
	var req SSSPRequest
	if !s.decode(w, r, &req) {
		return
	}
	// ?trace=1 and options.record_phases both attach the per-phase
	// breakdown; folding trace into the options before the key is computed
	// keeps traced and untraced responses as distinct cache entries.
	req.Options.RecordPhases = req.Options.RecordPhases || wantTrace(r)
	g, digest, opts, ref, ok := s.prepare(w, r, req.Graph, req.Options)
	if !ok {
		return
	}
	if req.Source < 0 || req.Source >= int64(g.N()) {
		s.replyError(w, badf("source %d out of range [0,%d)", req.Source, g.N()))
		return
	}
	var res *dsssp.Result
	s.serveRows(w, r, rowQuery{
		g: g, digest: digest, ref: ref,
		sources:      []graph.NodeID{graph.NodeID(req.Source)},
		parts:        queryKeyParts("sssp", req.Options, fmt.Sprintf("src=%d", req.Source)),
		recordPhases: req.Options.RecordPhases,
		engine: func(missing []graph.NodeID) ([]row, []simnet.SpanMetrics, error) {
			var err error
			if res, err = dsssp.SSSP(g, missing[0], opts); err != nil {
				return nil, nil, err
			}
			return []row{{dist: res.Dist}}, res.Metrics.Spans, nil
		},
	}, func(rs rowSet) ([]byte, error) {
		rw := rs.rows[0]
		resp := SSSPResponse{N: g.N(), M: g.M(), Dist: rw.dist, Unreachable: countUnreachable(rw.dist)}
		if rw.served == rowRepaired {
			resp.Incr = queryIncr(rw, g.N())
		} else {
			resp.SubproblemsMax = res.SubproblemsMax
			resp.Metrics = metricsJSON(res.Metrics)
			if req.Options.RecordPhases {
				resp.Phases = rs.phases
			}
		}
		return json.Marshal(resp)
	})
}

// wantTrace reports whether the query string asks for the span-level
// trace (?trace=1): the per-phase round/energy/bits breakdown inline in
// the response.
func wantTrace(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true":
		return true
	}
	return false
}

func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	var req PathRequest
	if !s.decode(w, r, &req) {
		return
	}
	// A path body carries no phases: ignore record_phases like ?trace=1, so
	// it neither forks the cache key nor steps repair aside.
	req.Options.RecordPhases = false
	g, digest, opts, ref, ok := s.prepare(w, r, req.Graph, req.Options)
	if !ok {
		return
	}
	for _, op := range []struct {
		name string
		v    int64
	}{{"source", req.Source}, {"target", req.Target}} {
		if op.v < 0 || op.v >= int64(g.N()) {
			s.replyError(w, badf("%s %d out of range [0,%d)", op.name, op.v, g.N()))
			return
		}
	}
	var res *dsssp.TreeResult
	s.serveRows(w, r, rowQuery{
		g: g, digest: digest, ref: ref,
		sources: []graph.NodeID{graph.NodeID(req.Source)},
		parts:   queryKeyParts("path", req.Options, fmt.Sprintf("src=%d|dst=%d", req.Source, req.Target)),
		engine: func(missing []graph.NodeID) ([]row, []simnet.SpanMetrics, error) {
			var err error
			if res, err = dsssp.SSSPTree(g, missing[0], opts); err != nil {
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
			resp.Incr = queryIncr(rw, g.N())
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
	req.Options.RecordPhases = req.Options.RecordPhases || wantTrace(r)
	g, digest, opts, ref, ok := s.prepare(w, r, req.Graph, req.Options)
	if !ok {
		return
	}
	sources := make([]graph.NodeID, g.N())
	for v := range sources {
		sources[v] = graph.NodeID(v)
	}
	// Per-source SSSP instances are independent, so a reused or repaired row
	// is byte-identical to what a re-run would produce; only the Composition
	// (which describes the instances actually run this time) and the Incr
	// split distinguish a partially-reused response from a from-scratch one.
	var res *dsssp.APSPResult
	s.serveRows(w, r, rowQuery{
		g: g, digest: digest, ref: ref,
		sources:      sources,
		parts:        queryKeyParts("apsp", req.Options, fmt.Sprintf("seed=%d", req.Seed)),
		allPairs:     true,
		recordPhases: req.Options.RecordPhases,
		engine: func(missing []graph.NodeID) ([]row, []simnet.SpanMetrics, error) {
			var err error
			if res, err = dsssp.APSPFrom(g, missing, opts, req.Seed); err != nil {
				return nil, nil, err
			}
			rows := make([]row, len(missing))
			for k, src := range missing {
				rows[k].dist = res.Dist[src]
			}
			return rows, res.Composition.Spans, nil
		},
	}, func(rs rowSet) ([]byte, error) {
		resp := APSPResponse{N: g.N(), M: g.M(), Dist: make([][]int64, g.N())}
		for v, rw := range rs.rows {
			resp.Dist[v] = rw.dist
		}
		if res != nil {
			comp := res.Composition
			resp.Composition = CompositionJSON{
				Dilation: comp.Dilation, Congestion: comp.Congestion,
				MakespanAligned: comp.MakespanAligned, MakespanRandom: comp.MakespanRandom,
				MakespanSequential: comp.MakespanSequential, MaxMessageBits: comp.MaxMessageBits,
			}
			if req.Options.RecordPhases {
				resp.Phases = rs.phases
			}
		}
		if !rs.all(rowComputed) {
			resp.Incr = &IncrJSON{SourcesReused: rs.count[rowReused], SourcesRepaired: rs.count[rowRepaired], SourcesRecomputed: rs.count[rowComputed]}
		}
		return json.Marshal(resp)
	})
}

// graphRef identifies the registered graph a query resolved (nil for
// inline/generator specs). The query is pinned to the head revision it
// resolved — its snapshot and digest — and that snapshot is immutable, so
// the query is consistent even if a PATCH lands mid-computation.
type graphRef struct {
	id string
}

// prepare resolves the graph (inline, generator, or registered handle)
// and options for a query, replying on error. For registered graphs the
// handle and revision travel in response headers, not the body: cached
// bodies are migrated verbatim across revisions on PATCH, so a body-borne
// revision number would go stale the moment an entry is carried forward.
// A sampled request gets a graph.resolve span recording where the graph
// came from (registry / inline / generator) and its size.
func (s *Server) prepare(w http.ResponseWriter, r *http.Request, spec GraphSpec, qo QueryOptions) (*graph.Graph, [32]byte, *dsssp.Options, *graphRef, bool) {
	sp := trace.FromContext(r.Context()).StartChild("graph.resolve")
	fail := func(err error) (*graph.Graph, [32]byte, *dsssp.Options, *graphRef, bool) {
		sp.SetError(err.Error())
		sp.End()
		s.replyError(w, err)
		return nil, [32]byte{}, nil, nil, false
	}
	opts, err := resolveOptions(qo, s.cfg.Workers, s.cfg.MaxIntraWorkers)
	if err != nil {
		return fail(err)
	}
	if spec.ID != "" {
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
		sp.SetAttr("n", g.N())
		sp.End()
		return g, digest, opts, &graphRef{id: spec.ID}, true
	}
	g, err := buildGraph(spec, s.cfg.MaxN, s.cfg.MaxEdges)
	if err != nil {
		return fail(err)
	}
	if spec.Family != "" {
		sp.SetAttr("source", "generator")
	} else {
		sp.SetAttr("source", "inline")
	}
	sp.SetAttr("n", g.N())
	sp.End()
	return g, canonicalGraphDigest(g), opts, nil, true
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
	body, outcome, err := s.cache.getOrCompute(key, func() ([]byte, bool, error) {
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
			return nil, false, r.Context().Err()
		}
		execSp := root.StartChild("exec")
		b, cacheable, err := compute(execSp)
		if err != nil {
			execSp.SetError(err.Error())
		}
		execSp.End()
		return b, cacheable, err
	})
	cacheSp.SetAttr("result", outcome.String())
	cacheSp.End()
	hit = outcome != cacheMiss
	if err != nil {
		s.replyError(w, err)
		return false, false
	}
	w.Header().Set("Content-Type", "application/json")
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
	g, err := buildGraph(req.Graph, s.cfg.MaxN, s.cfg.MaxEdges)
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
	info, ok := s.registry.Get(id)
	if !ok {
		s.replyError(w, notfoundf("no registered graph %q (evicted or never registered)", id))
		return
	}
	deltas, err := parseDeltas(req.Deltas, info.N)
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
		"sources_repairable", pi.SourcesRepairable,
		"entries_migrated", pi.EntriesMigrated, "entries_invalidated", pi.EntriesInvalidated)
	writeJSON(w, http.StatusOK, pi)
}

// --- sweep endpoints ---

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	// Normalize the filter exactly like RunScenariosWith will: trim each
	// pattern, drop blanks, and treat an empty (or all-blank) list as "the
	// whole suite" — the pre-validation below must not enforce a stricter
	// grammar than the sweep itself.
	cleaned := req.Patterns[:0:0]
	for _, p := range req.Patterns {
		if p = strings.TrimSpace(p); p != "" {
			cleaned = append(cleaned, p)
		}
	}
	if len(cleaned) == 0 {
		cleaned = nil
	}
	req.Patterns = cleaned
	// Reject unknown patterns up front (cheap registry check) so a typo is
	// a 400, not a failed job discovered by polling.
	if req.Patterns != nil {
		if _, err := harness.Default(req.Quick).Select(req.Patterns); err != nil {
			s.replyError(w, badRequest{err})
			return
		}
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j, err := s.jobs.add(JobStatus{
		State:       JobQueued,
		Patterns:    req.Patterns,
		Quick:       req.Quick,
		SubmittedAt: s.now(),
	}, cancel)
	if err != nil {
		cancel()
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.metrics.jobsActive.With(string(JobQueued)).Inc()
	s.jobsWG.Add(1)
	go s.runJob(ctx, j, req)
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.snapshots())
}

func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no sweep job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no sweep job %q", r.PathValue("id"))
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.snapshot())
}

// --- observability endpoints ---

// StatsResponse is the GET /v1/stats body: a full operational snapshot —
// cache, worker pool, jobs by state, and history store — not cache-only.
type StatsResponse struct {
	Rev            string           `json:"rev"`
	UptimeNS       int64            `json:"uptime_ns"`
	Cache          CacheStats       `json:"cache"`
	Registry       RegistryStats    `json:"registry"`
	Incr           IncrStats        `json:"incr"`
	Pool           PoolStats        `json:"pool"`
	Jobs           map[JobState]int `json:"jobs"`
	Store          StoreStats       `json:"store"`
	HistoryReports int              `json:"history_reports"`
}

// IncrStats is the registered-graph serving split since process start:
// per-source results served from cache/traces, rebuilt by affected-region
// repair, or recomputed from scratch — plus repairs that bailed to a full
// recompute.
type IncrStats struct {
	SourcesReused     int64 `json:"sources_reused"`
	SourcesRepaired   int64 `json:"sources_repaired"`
	SourcesRecomputed int64 `json:"sources_recomputed"`
	RepairFallbacks   int64 `json:"repair_fallbacks"`
}

// PoolStats is the query worker pool's instantaneous state.
type PoolStats struct {
	// Workers is the configured pool size.
	Workers int `json:"workers"`
	// InFlight is the number of slots currently executing a query.
	InFlight int `json:"in_flight"`
	// Queued is the number of query misses waiting for a slot.
	Queued int `json:"queued"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	storeStats, err := s.store.Stats()
	if err != nil {
		s.replyError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Rev:      s.cfg.Rev,
		UptimeNS: s.now().Sub(s.started).Nanoseconds(),
		Cache:    s.cache.Stats(),
		Registry: s.registry.Stats(),
		Incr: IncrStats{
			SourcesReused:     s.metrics.incrSourcesReused.Value(),
			SourcesRepaired:   s.metrics.incrSourcesRepaired.Value(),
			SourcesRecomputed: s.metrics.incrSourcesRecomputed.Value(),
			RepairFallbacks:   s.metrics.incrRepairFallbacks.Value(),
		},
		Pool: PoolStats{
			Workers:  s.cfg.Workers,
			InFlight: int(s.metrics.poolBusy.Value()),
			Queued:   int(s.metrics.queueDepth.Value()),
		},
		Jobs:           s.jobs.counts(),
		Store:          storeStats,
		HistoryReports: storeStats.Reports,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// --- plumbing ---

// decode parses a JSON request body strictly: unknown fields and trailing
// garbage are 400s, a body over MaxBodyBytes a 413, all with JSON errors.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
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
