package service

import (
	"fmt"
	"net/http"
	"time"

	"dsssp/internal/graph"
	"dsssp/internal/harness"
	"dsssp/internal/incr"
	"dsssp/internal/obs/trace"
	"dsssp/internal/simnet"
)

// The row provider is the one serving path behind /v1/sssp, /v1/path and
// /v1/apsp: every query is a set of per-source SSSP instances (the paper's
// APSP is n of them, §1.1), each answered by a row. For a registered graph
// it takes the head revision's exact trace, repairs a stale trace with
// incr.Repair, and hands the rest to one engine call the endpoint supplies.
// It alone owns the repair and engine spans, phase grafting, registry
// recording, reuse counting and X-Dsssp-Incr.

// rowServed says how the provider produced a row.
type rowServed uint8

const (
	rowComputed rowServed = iota // the endpoint's engine call ran for it
	rowReused                    // an exact head trace, served as is (all-pairs queries)
	rowRepaired                  // incr.Repair of a stale trace, or an exact trace under a single-source query
)

// row is one source's answer. dist and parent may be the registry's shared
// trace slices: read them, never write through them.
type row struct {
	dist []int64
	// parent is the witness tree; nil for a computed row whose engine does
	// not extract one, or a reused row traced without one.
	parent   []graph.NodeID
	served   rowServed
	affected int // vertices incr.Repair rebuilt (repaired rows)
}

// rowQuery is one query's demand on the provider.
type rowQuery struct {
	g      *graph.Graph
	digest [32]byte
	// ref is the registered graph the query resolved; nil for inline and
	// generator graphs, which have no traces to serve from or record into.
	ref     *graphRef
	sources []graph.NodeID
	// parts is the response's cache-key parts string; recorded with the
	// rows so a PATCH can re-address or invalidate the cached body.
	parts string
	// allPairs marks the fan-out over every source (APSP). Its exact head
	// traces are reused rows, not zero-change repairs; it repairs stale
	// traces even when recordPhases is set; and its rows are recorded bare,
	// with the body entry under apspTraceKey when every row was computed.
	allPairs bool
	// recordPhases asks for the engine's per-phase breakdown, which only a
	// simulation yields, so a single-source query then skips repair.
	recordPhases bool
	// engine runs the endpoint's simulation for the sources no trace could
	// serve: one row per missing source, in order (dist, and parent when the
	// engine extracts the tree), plus the run's span ledger.
	engine func(missing []graph.NodeID) ([]row, []simnet.SpanMetrics, error)
}

// rowSet is the provider's yield: one row per query source, in order, the
// count of rows by how they were served, and the engine's phase breakdown
// (nil when no engine ran).
type rowSet struct {
	rows   []row
	count  [3]int // indexed by rowServed
	phases []harness.PhaseStat
}

func (rs rowSet) all(how rowServed) bool { return rs.count[how] == len(rs.rows) }

// serveRows answers a query from its rows through the result cache and the
// worker pool (finishQuery): on a miss it builds the rows and renders the
// body from them. Only an all-computed body is cached — it is the key's
// canonical bytes; a reused or repaired one carries the incr block and
// lacks simulation metrics, so a later recompute or hit re-mints those.
func (s *Server) serveRows(w http.ResponseWriter, r *http.Request, q rowQuery, render func(rowSet) ([]byte, error)) {
	var rs rowSet
	hit, ok := s.finishQuery(w, r, keyFromDigest(q.digest, q.parts), func(sp *trace.Span) ([]byte, bool, error) {
		var err error
		if rs, err = s.rows(w, sp, q); err != nil {
			return nil, false, err
		}
		b, err := render(rs)
		return b, rs.all(rowComputed), err
	})
	if !ok || q.ref == nil {
		return
	}
	// Registered-graph reuse counters: a body-cache hit served every source
	// without recomputation; repaired rows were counted when repaired. A
	// from-scratch all-pairs body carries no incr split and feeds no counter.
	switch {
	case hit:
		s.metrics.incrSourcesReused.Add(int64(len(q.sources)))
	case q.allPairs && rs.all(rowComputed):
	default:
		s.metrics.incrSourcesReused.Add(int64(rs.count[rowReused]))
		s.metrics.incrSourcesRecomputed.Add(int64(rs.count[rowComputed]))
	}
}

// rows builds the query's rows: remembered traces first, one engine call
// for the rest, then records the computed rows and sets X-Dsssp-Incr.
func (s *Server) rows(w http.ResponseWriter, sp *trace.Span, q rowQuery) (rowSet, error) {
	rs := rowSet{rows: make([]row, len(q.sources))}
	var missing []graph.NodeID
	var at []int // rs.rows index of each missing source
	for i, src := range q.sources {
		if rw, ok := s.remembered(sp, q, src); ok {
			rs.rows[i] = rw
			rs.count[rw.served]++
		} else {
			missing = append(missing, src)
			at = append(at, i)
		}
	}
	if len(missing) > 0 {
		if q.ref != nil && !q.allPairs {
			w.Header().Set("X-Dsssp-Incr", "recomputed")
		}
		eng := sp.StartChild("engine")
		eng.SetAttr("sources", len(missing))
		computed, spans, err := q.engine(missing)
		if err != nil {
			eng.SetError(err.Error())
			eng.End()
			return rs, err
		}
		rs.phases = harness.PhasesFromSpans(spans)
		graftEnginePhases(eng, rs.phases)
		eng.End()
		s.metrics.observePhases(rs.phases, sp.TraceIDString())
		for k, i := range at {
			rs.rows[i] = computed[k]
		}
		rs.count[rowComputed] = len(missing)
	}
	if q.ref == nil {
		return rs, nil
	}
	// Computed rows are recorded with their witness trees: the distance row
	// is what a future PATCH classifies the source against, the tree is what
	// a repair restarts from, and the parts string is how the PATCH
	// re-addresses or invalidates the cached body.
	parts := q.parts
	if q.allPairs {
		parts = ""
	}
	for k, src := range missing {
		rw := &rs.rows[at[k]]
		if rw.parent == nil {
			rw.parent = graph.WitnessParents(q.g, src, rw.dist)
		}
		s.registry.Record(q.ref.id, q.digest, src, rw.dist, rw.parent, parts)
	}
	switch {
	case !q.allPairs:
		if rs.rows[0].served == rowRepaired {
			w.Header().Set("X-Dsssp-Incr", "repaired")
		}
	case rs.all(rowComputed):
		s.registry.Record(q.ref.id, q.digest, apspTraceKey, nil, nil, q.parts)
	case rs.count[rowRepaired] > 0:
		w.Header().Set("X-Dsssp-Incr", fmt.Sprintf("reused=%d repaired=%d recomputed=%d",
			rs.count[rowReused], rs.count[rowRepaired], rs.count[rowComputed]))
	default:
		w.Header().Set("X-Dsssp-Incr", fmt.Sprintf("reused=%d recomputed=%d",
			rs.count[rowReused], rs.count[rowComputed]))
	}
	return rs, nil
}

// remembered serves src from the head revision's traces when it can: an
// exact trace as is (a reused row under an all-pairs query, a zero-change
// repair otherwise), a stale one through incr.Repair. ok=false sends the
// source to the engine: no trace, repair disabled or stepped aside, or the
// affected region outgrew the cutoff.
func (s *Server) remembered(sp *trace.Span, q rowQuery, src graph.NodeID) (row, bool) {
	if q.ref == nil {
		return row{}, false
	}
	tr, changes, exact, ok := s.registry.sourceTrace(q.ref.id, q.digest, src)
	switch {
	case !ok:
		return row{}, false
	case exact && q.allPairs:
		return row{dist: tr.Dist, parent: tr.Parent, served: rowReused}, true
	case s.cfg.RepairMaxAffected < 0, q.recordPhases && !q.allPairs, tr.Parent == nil:
		return row{}, false
	}
	return s.repair(sp, q, src, tr, changes, exact)
}

// repair rebuilds one source's row from its remembered trace, bounding the
// affected region by the configured fraction of n. An exact trace needs no
// rebuild and is served from its shared slices; a repaired stale trace is
// promoted to the head revision, so the next PATCH classifies it and the
// next query serves it in O(n).
//
// A sampled request gets a repair span under sp, with the four repair
// phases (carve/seed/settle/witness) grafted as children carrying their
// measured wall times and the affected-region sizes as attributes; the same
// per-phase split feeds dsssp_repair_phase_seconds.
func (s *Server) repair(sp *trace.Span, q rowQuery, src graph.NodeID, tr incr.Trace, changes []incr.NetChange, exact bool) (row, bool) {
	n := q.g.N()
	limit := 0
	if s.cfg.RepairMaxAffected > 0 {
		limit = max(1, int(s.cfg.RepairMaxAffected*float64(n)))
	}
	rsp := sp.StartChild("repair")
	rsp.SetAttr("source", int64(src))
	rsp.SetAttr("changes", len(changes))
	start := time.Now()
	rr, ok := &incr.RepairResult{Dist: tr.Dist, Parent: tr.Parent}, true
	if !exact {
		rr, ok = incr.Repair(q.g, src, tr, changes, limit)
	}
	s.metrics.repairSeconds.Observe(time.Since(start).Seconds())
	if !ok {
		s.metrics.incrRepairFallbacks.Inc()
		rsp.SetAttr("outcome", "fallback")
		rsp.End()
		return row{}, false
	}
	s.metrics.incrSourcesRepaired.Inc()
	s.metrics.repairAffectedFraction.Observe(float64(rr.Affected) / float64(n))
	rsp.SetAttr("outcome", "repaired")
	rsp.SetAttr("affected", rr.Affected)
	rsp.SetAttr("orphaned", rr.Orphaned)
	rsp.SetAttr("affected_fraction", float64(rr.Affected)/float64(n))
	cursor := rsp.StartTime()
	for i, ns := range rr.PhaseNS {
		s.metrics.repairPhaseSeconds.With(incr.RepairPhaseNames[i]).Observe(float64(ns) / 1e9)
		rsp.Graft("repair:"+incr.RepairPhaseNames[i], cursor, time.Duration(ns))
		cursor = cursor.Add(time.Duration(ns))
	}
	rsp.End()
	if !exact {
		s.registry.Record(q.ref.id, q.digest, src, rr.Dist, rr.Parent, "")
	}
	return row{dist: rr.Dist, parent: rr.Parent, served: rowRepaired, affected: rr.Affected}, true
}

// queryIncr is the incr block of a single-source response served from a
// repaired row.
func queryIncr(rw row, n int) *QueryIncrJSON {
	return &QueryIncrJSON{
		Served:           "repaired",
		AffectedVertices: rw.affected,
		AffectedFraction: float64(rw.affected) / float64(n),
	}
}
