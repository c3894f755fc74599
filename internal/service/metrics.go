package service

import (
	"strings"

	"dsssp/internal/harness"
	"dsssp/internal/obs"
)

// serverMetrics is the server's telemetry surface, rendered at
// GET /metrics. Event-shaped signals are counters/histograms updated
// inline on the hot paths; level-shaped signals owned by other subsystems
// (cache occupancy, registry size) are read at scrape time from those
// subsystems' own stats, so there is exactly one source of truth per
// number and /metrics is the one place to read it.
type serverMetrics struct {
	reg *obs.Registry

	// HTTP surface.
	requests *obs.CounterVec   // endpoint, code
	latency  *obs.HistogramVec // endpoint
	inFlight *obs.GaugeVec     // endpoint

	// Query worker pool.
	queueDepth *obs.Gauge     // requests waiting for a worker slot
	poolBusy   *obs.Gauge     // worker slots currently held
	queueWait  *obs.Histogram // seconds spent waiting for a slot

	// Per-phase round distribution (the paper's envelope structure, per
	// live query): one histogram series per pipeline phase key.
	phaseRounds *obs.HistogramVec // phase

	slowQueries *obs.Counter

	// Dynamic-graph (registered) serving path: per-source reuse outcomes
	// and the per-PATCH classification ledger.
	incrSourcesReused     *obs.Counter
	incrSourcesRecomputed *obs.Counter
	patchDirtyFraction    *obs.Histogram

	// Affected-region repair: dirty sources rebuilt from their stale trace
	// instead of recomputed from scratch, the fraction of the graph each
	// repair touched, its wall time, and how often a stale trace could not
	// be repaired and was recomputed instead.
	incrSourcesRepaired    *obs.Counter
	incrRepairFallbacks    *obs.Counter
	repairAffectedFraction *obs.Histogram
	repairSeconds          *obs.Histogram
	// repairBodies counts the /v1/sssp replies of rows repaired from a
	// stale trace by how they were rendered: spliced from the body the
	// trace kept, or in full when it kept none.
	repairBodies *obs.CounterVec // render

	// Per-phase wall-time split of successful repairs (carve/seed/settle/
	// witness) — the served:"repaired" counterpart of phaseRounds, so a
	// repaired query has a breakdown story like a computed one.
	repairPhaseSeconds *obs.HistogramVec // phase
}

func newServerMetrics(cfg *Config, cache *Cache, registry *GraphRegistry) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg: r,
		requests: r.CounterVec("dsssp_http_requests_total",
			"HTTP requests served, by endpoint and status code.", "endpoint", "code"),
		latency: r.HistogramVec("dsssp_http_request_duration_seconds",
			"End-to-end request latency in seconds, by endpoint.", obs.LatencyBuckets, "endpoint"),
		inFlight: r.GaugeVec("dsssp_http_in_flight",
			"Requests currently being served, by endpoint.", "endpoint"),
		queueDepth: r.Gauge("dsssp_query_queue_depth",
			"Query requests waiting for a worker-pool slot."),
		poolBusy: r.Gauge("dsssp_query_pool_busy",
			"Worker-pool slots currently executing a query."),
		queueWait: r.Histogram("dsssp_query_queue_wait_seconds",
			"Seconds a query miss waited for a worker-pool slot.", obs.LatencyBuckets),
		phaseRounds: r.HistogramVec("dsssp_phase_rounds",
			"Per-query simulated rounds attributed to each pipeline phase.",
			obs.ExpBuckets(1, 2, 18), "phase"),
		slowQueries: r.Counter("dsssp_slow_queries_total",
			"Requests slower than the configured slow-query threshold."),
		incrSourcesReused: r.Counter("dsssp_incr_sources_reused_total",
			"Registered-graph per-source results served from cache/traces without recomputation."),
		incrSourcesRecomputed: r.Counter("dsssp_incr_sources_recomputed_total",
			"Registered-graph per-source results that had to be recomputed."),
		patchDirtyFraction: r.Histogram("dsssp_incr_patch_dirty_fraction",
			"Per-PATCH fraction of traced sources classified dirty (recompute-needed).",
			[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}),
		incrSourcesRepaired: r.Counter("dsssp_incr_sources_repaired_total",
			"Dirty sources served by affected-region repair of a stale trace (no full recomputation)."),
		incrRepairFallbacks: r.Counter("dsssp_incr_repair_fallbacks_total",
			"Repair attempts that fell back to full recomputation (a trace that does not fit the graph)."),
		repairAffectedFraction: r.Histogram("dsssp_incr_affected_fraction",
			"Per-repair fraction of vertices whose label was rebuilt.",
			[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1}),
		repairSeconds: r.Histogram("dsssp_incr_repair_seconds",
			"Wall seconds spent in affected-region repair (successful or abandoned).",
			obs.LatencyBuckets),
		repairBodies: r.CounterVec("dsssp_repair_bodies_total",
			"/v1/sssp replies of rows repaired from a stale trace, by render: spliced from the body the trace kept, or full.",
			"render"),
		repairPhaseSeconds: r.HistogramVec("dsssp_repair_phase_seconds",
			"Wall seconds a successful repair spent in each phase (carve, seed, settle, witness).",
			obs.ExpBuckets(1e-6, 4, 12), "phase"),
	}
	r.Gauge("dsssp_query_pool_workers", "Configured worker-pool size.").Set(int64(cfg.Workers))
	r.GaugeFunc("dsssp_graphs_registered",
		"Graphs currently resident in the dynamic-graph registry.",
		func() float64 { return float64(registry.Stats().Graphs) })
	r.CounterFunc("dsssp_graph_revisions_total",
		"Graph revisions ever created (registrations plus PATCHes).",
		func() float64 { return float64(registry.Stats().Revisions) })
	r.CounterFunc("dsssp_graph_evictions_total",
		"Registered graphs evicted under the registry byte budget.",
		func() float64 { return float64(registry.Stats().Evictions) })
	r.GaugeFunc("dsssp_graph_registry_bytes",
		"Approximate resident bytes of registered graphs and their traces.",
		func() float64 { return float64(registry.Stats().BytesUsed) })
	r.GaugeFunc("dsssp_graph_stale_traces",
		"Dirty per-source traces awaiting repair across every registered graph.",
		func() float64 { return float64(registry.Stats().StaleTraces) })
	r.CounterFunc("dsssp_graph_spill_errors_total",
		"Registry spills (whole rewrites and journal appends) that failed.",
		func() float64 { return float64(registry.Stats().SpillErrors) })

	// Cache counters live in their subsystem (they predate the
	// registry); surface them at scrape time.
	r.CounterFunc("dsssp_cache_hits_total",
		"Result-cache hits, including singleflight-shared computations.",
		func() float64 { return float64(cache.Stats().Hits) })
	r.CounterFunc("dsssp_cache_misses_total",
		"Result-cache misses (computations actually run).",
		func() float64 { return float64(cache.Stats().Misses) })
	r.CounterFunc("dsssp_cache_evictions_total",
		"Result-cache LRU evictions under the byte budget.",
		func() float64 { return float64(cache.Stats().Evictions) })
	r.CounterFunc("dsssp_cache_singleflight_dedup_total",
		"Concurrent identical misses served by another request's in-flight computation.",
		func() float64 { return float64(cache.Stats().SingleflightDedup) })
	r.GaugeFunc("dsssp_cache_entries",
		"Result-cache entries resident.",
		func() float64 { return float64(cache.Stats().Entries) })
	r.GaugeFunc("dsssp_cache_bytes_used",
		"Result-cache bytes resident, generator-spec memo entries included.",
		func() float64 { return float64(cache.Stats().BytesUsed) })
	r.GaugeFunc("dsssp_cache_bytes_budget",
		"Result-cache byte budget.",
		func() float64 { return float64(cache.Stats().Budget) })
	return m
}

// observePhases feeds one query's per-phase round breakdown into the
// per-phase histograms — the bridge from the span ledger (PR 4) to the
// scrape surface. Called once per computed (not cached) query. traceID,
// when non-empty (the query was sampled), rides along as each bucket's
// exemplar so a dashboard outlier deep-links into /debug/traces.
func (m *serverMetrics) observePhases(phases []harness.PhaseStat, traceID string) {
	for _, ph := range phases {
		if ph.Rounds > 0 {
			m.phaseRounds.With(ph.Phase).ObserveExemplar(float64(ph.Rounds), traceID)
		}
	}
}

// endpointLabel maps a request path to a bounded label vocabulary so an
// attacker spraying random paths cannot mint unbounded metric series.
func endpointLabel(path string) string {
	switch path {
	case "/v1/sssp", "/v1/apsp", "/v1/path", "/v1/graphs":
		return strings.TrimPrefix(path, "/v1/")
	case "/healthz":
		return "healthz"
	case "/metrics":
		return "metrics"
	}
	if strings.HasPrefix(path, "/v1/graphs/") {
		return "graphs/{id}"
	}
	return "other"
}
