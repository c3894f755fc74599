package service

import (
	"container/list"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"dsssp/internal/graph"
	"dsssp/internal/incr"
)

// GraphRegistry holds the registered (dynamic) graphs: content-derived
// handles pointing at a chain of revisions, each revision an immutable
// graph snapshot plus the per-source result traces (exact distance rows
// and witness trees) that internal/incr classifies on every PATCH. Queries
// resolve a handle to the head revision's snapshot and proceed exactly
// like inline queries — the revision digest is the cache key's graph half
// — so a query racing a PATCH sees exactly the pre- or the post-revision
// result, never a mix.
//
// The registry never writes into the result cache. A PATCH carries an
// untouched source's exact trace to the new revision, and the row provider
// serves it from there; the cache holds only bytes computed for their own
// key, so an entry's body depends on the content it is keyed by and never
// on the server's history. Old revisions' entries stay valid for their
// digest and age out of the cache's LRU.
//
// The registry is byte-budgeted: graphs (and their traces) are charged an
// approximate resident footprint and whole graphs are evicted LRU when the
// budget overflows.
type GraphRegistry struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	graphs map[string]*regGraph
	lru    *list.List // of *regGraph; front = most recently used
	now    func() time.Time

	// Telemetry hooks, bound by the server after construction (tests may
	// leave them nil).
	m *serverMetrics

	// Monotonic counters for RegistryStats.
	revisions int64 // revisions ever created (registrations + patches)
	evictions int64

	// dir, when non-empty, is the persistence directory: registered graphs
	// and their traces are spilled to <dir>/<id>.spill on register/PATCH
	// and reloaded on startup (see persist.go). spillBuf is the encode
	// buffer every spill reuses.
	dir      string
	spillBuf []byte
}

type regGraph struct {
	id        string
	el        *list.Element
	createdAt time.Time
	patchedAt time.Time
	head      *revision
	bytes     int64
}

// revision is one immutable point in a graph's history. The graph snapshot
// is never mutated after construction — PATCH builds a fresh one — so any
// query holding a resolved revision can simulate on it lock-free.
type revision struct {
	num    int
	digest [32]byte
	g      *graph.Graph
	// traces maps source → its exact distance row and witness tree.
	traces map[graph.NodeID]*sourceTrace
	// stale maps source → the last exact trace it had before a PATCH
	// dirtied it, plus the base-weight ledger needed to repair it
	// (incr.Repair) instead of recomputing from scratch. A source is in
	// traces or stale, never both.
	stale map[graph.NodeID]*staleTrace
}

type sourceTrace struct {
	dist []int64
	// parent is the deterministic min-ID witness tree for dist, nil when it
	// was never derived (a trace without a parent tree carries forward and
	// serves but cannot be repaired once dirty).
	parent []graph.NodeID
	bytes  int64
}

// staleTrace is a dirty source's remembered structure: the distance row and
// witness tree that were exact at some past revision, plus the base-weight
// ledger — canonical pair key → that pair's weight on the trace's graph
// (-1 for absent) for every pair patched since. incr.NetChanges resolves
// the ledger against the head graph into the repair engine's input; the
// first-touch-wins discipline (see Patch) keeps it composable across
// stacked patches.
type staleTrace struct {
	dist   []int64
	parent []graph.NodeID
	base   map[uint64]int64
	bytes  int64
}

// NewGraphRegistry returns a registry with the given byte budget. The
// cache argument is ignored: the registry never writes into the result
// cache.
//
// Deprecated: the cache parameter stays only because the benchmark harness
// still passes it, and goes once a benchmark change stops doing so.
func NewGraphRegistry(budget int64, _ *Cache, now func() time.Time) *GraphRegistry {
	if now == nil {
		now = time.Now
	}
	return &GraphRegistry{
		budget: budget,
		graphs: make(map[string]*regGraph),
		lru:    list.New(),
		now:    now,
	}
}

func (r *GraphRegistry) bindMetrics(m *serverMetrics) { r.m = m }

// GraphInfo is the wire form of one registered graph.
type GraphInfo struct {
	ID string `json:"id"`
	// Revision counts from 1 at registration; every PATCH increments it.
	Revision int `json:"revision"`
	// Digest is the head revision's canonical content digest (hex); it is
	// the graph half of every cache key minted for this revision.
	Digest string `json:"digest"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	// Bytes is the approximate resident footprint charged against the
	// registry budget (graph + cached traces).
	Bytes int64 `json:"bytes"`
	// TracedSources counts sources holding an exact distance trace.
	TracedSources int `json:"traced_sources"`
	// StaleSources counts dirty sources holding a repairable stale trace.
	StaleSources int   `json:"stale_sources,omitempty"`
	CreatedAtNS  int64 `json:"created_at_ns"`
	PatchedAtNS  int64 `json:"patched_at_ns,omitempty"`
}

// graphBytes approximates a snapshot's resident footprint: two adjacency
// halves plus an index-map entry per edge, a slice header per node.
func graphBytes(g *graph.Graph) int64 {
	return int64(g.N())*24 + int64(g.M())*48
}

func traceBytes(dist []int64, parent []graph.NodeID) int64 {
	return int64(len(dist))*8 + int64(len(parent))*4 + 64
}

func staleTraceBytes(st *staleTrace) int64 {
	return int64(len(st.dist))*8 + int64(len(st.parent))*4 + int64(len(st.base))*16 + 96
}

// Register adds the graph under a content-derived handle and returns its
// info. Registration is idempotent: posting a graph whose content matches
// an existing handle's head revision returns that handle (created=false).
// If the handle's graph has since been patched away from this content, a
// disambiguated handle is minted — handles are stable names for histories,
// not for contents.
func (r *GraphRegistry) Register(g *graph.Graph) (GraphInfo, bool) {
	digest := canonicalGraphDigest(g)
	r.mu.Lock()
	defer r.mu.Unlock()
	base := "g-" + hex.EncodeToString(digest[:8])
	id := base
	for k := 2; ; k++ {
		rg, ok := r.graphs[id]
		if !ok {
			break
		}
		if rg.head.digest == digest {
			r.touchLocked(rg)
			return r.infoLocked(rg), false
		}
		id = fmt.Sprintf("%s-%d", base, k)
	}
	rg := &regGraph{
		id:        id,
		createdAt: r.now(),
		head: &revision{
			num:    1,
			digest: digest,
			g:      g,
			traces: make(map[graph.NodeID]*sourceTrace),
			stale:  make(map[graph.NodeID]*staleTrace),
		},
		bytes: graphBytes(g),
	}
	rg.el = r.lru.PushFront(rg)
	r.graphs[id] = rg
	r.bytes += rg.bytes
	r.revisions++
	r.evictLocked(rg)
	r.spillLocked(rg)
	return r.infoLocked(rg), true
}

// Resolve returns the head revision snapshot for a query: the immutable
// graph, its digest (the cache key's graph half), and the revision number.
func (r *GraphRegistry) Resolve(id string) (*graph.Graph, [32]byte, int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rg, ok := r.graphs[id]
	if !ok {
		return nil, [32]byte{}, 0, notfoundf("no registered graph %q (evicted or never registered)", id)
	}
	r.touchLocked(rg)
	return rg.head.g, rg.head.digest, rg.head.num, nil
}

// Get returns a registered graph's info.
func (r *GraphRegistry) Get(id string) (GraphInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rg, ok := r.graphs[id]
	if !ok {
		return GraphInfo{}, false
	}
	return r.infoLocked(rg), true
}

// List returns every registered graph, most recently used first.
func (r *GraphRegistry) List() []GraphInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GraphInfo, 0, len(r.graphs))
	for el := r.lru.Front(); el != nil; el = el.Next() {
		out = append(out, r.infoLocked(el.Value.(*regGraph)))
	}
	return out
}

// Remove drops a registered graph (its cache entries stay and age out).
func (r *GraphRegistry) Remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	rg, ok := r.graphs[id]
	if !ok {
		return false
	}
	r.dropLocked(rg)
	return true
}

// PatchInfo is the wire form of one applied edge-delta batch — the
// revision transition plus the classification outcome, which is also the
// observability story: DirtyFraction is what the reuse histogram records.
type PatchInfo struct {
	ID             string `json:"id"`
	Revision       int    `json:"revision"`
	ParentRevision int    `json:"parent_revision"`
	Digest         string `json:"digest"`
	N              int    `json:"n"`
	M              int    `json:"m"`
	DeltasApplied  int    `json:"deltas_applied"`
	// Effects counts deltas that actually changed a weight (keep-min
	// no-op inserts and same-weight reweights resolve away).
	Effects int `json:"effects"`
	// SourcesKept / SourcesDropped classify the parent revision's traced
	// sources: kept = untouched (the exact trace carries forward to the new
	// revision), dropped = dirty. SourcesRepairable is the subset of dropped
	// sources demoted to a stale trace + base-weight ledger instead of being
	// forgotten, plus the sources already stale — the next query repairs
	// them (incr.Repair) rather than recomputing from scratch.
	SourcesKept       int     `json:"sources_kept"`
	SourcesDropped    int     `json:"sources_dropped"`
	SourcesRepairable int     `json:"sources_repairable"`
	DirtyFraction     float64 `json:"dirty_fraction"`
}

// Patch applies an edge-delta batch to the graph's head revision: builds
// the patched snapshot, classifies every traced source against the deltas
// (internal/incr), carries untouched sources' exact traces to the new
// revision, demotes dirty ones to stale traces, and swaps the head. The
// whole transition happens under the registry lock, so concurrent queries
// resolve either the old head (and serve its still-consistent snapshot) or
// the new one — never a mix.
func (r *GraphRegistry) Patch(id string, deltas []graph.EdgeDelta) (PatchInfo, error) {
	if len(deltas) == 0 {
		return PatchInfo{}, badf("empty delta batch")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rg, ok := r.graphs[id]
	if !ok {
		return PatchInfo{}, notfoundf("no registered graph %q (evicted or never registered)", id)
	}
	old := rg.head
	changes, err := graph.ResolveDeltas(old.g, deltas)
	if err != nil {
		return PatchInfo{}, badRequest{err}
	}
	ng := graph.ApplyChanges(old.g, changes)
	effects := incr.EffectsOf(changes)
	newDigest := canonicalGraphDigest(ng)
	next := &revision{
		num:    old.num + 1,
		digest: newDigest,
		g:      ng,
		traces: make(map[graph.NodeID]*sourceTrace, len(old.traces)),
		stale:  make(map[graph.NodeID]*staleTrace, len(old.stale)),
	}

	info := PatchInfo{
		ID: id, Revision: next.num, ParentRevision: old.num,
		Digest: hex.EncodeToString(newDigest[:]),
		N:      ng.N(), M: ng.M(),
		DeltasApplied: len(deltas), Effects: len(effects),
	}
	for src, tr := range old.traces {
		if incr.SourceDirty(effects, tr.dist) {
			info.SourcesDropped++
			// Demote rather than forget: the trace was exact on old.g, so a
			// ledger of this batch's pairs at their old.g weights is exactly
			// what incr.Repair needs to catch it up on a later query. A
			// trace without a witness tree can't be repaired — drop it.
			if tr.parent != nil {
				st := &staleTrace{dist: tr.dist, parent: tr.parent, base: make(map[uint64]int64, len(changes))}
				recordBase(st.base, changes)
				st.bytes = staleTraceBytes(st)
				next.stale[src] = st
				info.SourcesRepairable++
			}
			continue
		}
		info.SourcesKept++
		next.traces[src] = tr
	}
	// Sources already stale from earlier patches stay repairable: extend
	// their ledgers with this batch's pairs — first touch wins, at old.g
	// weights, which are the trace-time weights for any pair not already in
	// the ledger (an earlier patch touching it would have recorded it).
	for src, st := range old.stale {
		recordBase(st.base, changes)
		st.bytes = staleTraceBytes(st)
		next.stale[src] = st
		info.SourcesRepairable++
	}
	if classified := info.SourcesKept + info.SourcesDropped; classified > 0 {
		info.DirtyFraction = float64(info.SourcesDropped) / float64(classified)
		if r.m != nil {
			r.m.patchDirtyFraction.Observe(info.DirtyFraction)
		}
	}

	// Swap the head and re-account: dropped traces refund their bytes,
	// demoted and extended stale traces charge theirs.
	var traceB int64
	for _, tr := range next.traces {
		traceB += tr.bytes
	}
	for _, st := range next.stale {
		traceB += st.bytes
	}
	newBytes := graphBytes(ng) + traceB
	r.bytes += newBytes - rg.bytes
	rg.bytes = newBytes
	rg.head = next
	rg.patchedAt = r.now()
	r.revisions++
	r.touchLocked(rg)
	r.evictLocked(rg)
	r.spillLocked(rg)
	return info, nil
}

// recordBase adds every pair the changes touch to a base-weight ledger at
// its weight before the batch (-1 for absent); a pair already in the
// ledger keeps its entry, which is the weight on the trace's graph.
func recordBase(base map[uint64]int64, changes []graph.WeightChange) {
	for _, c := range changes {
		k := graph.PairKey(c.U, c.V)
		if _, ok := base[k]; !ok {
			base[k] = c.OldW
		}
	}
}

// Record attaches a computed source result to the graph's head revision:
// the exact distance row (what incr classifies against) and its min-ID
// witness tree (what incr.Repair restarts from; nil when not derived).
// Admitting an exact trace supersedes any stale trace for the same source.
// Dropped silently when digest no longer names the head — the computation
// raced a PATCH and its revision is gone. The parts argument is ignored.
//
// Deprecated: the parts parameter stays only because the benchmark
// harness still passes it, and goes once a benchmark change stops doing so.
func (r *GraphRegistry) Record(id string, digest [32]byte, src graph.NodeID, dist []int64, parent []graph.NodeID, _ string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rg, ok := r.graphs[id]
	if !ok || rg.head.digest != digest {
		return
	}
	r.recordLocked(rg, src, dist, parent)
	r.evictLocked(rg)
}

func (r *GraphRegistry) recordLocked(rg *regGraph, src graph.NodeID, dist []int64, parent []graph.NodeID) {
	tr, ok := rg.head.traces[src]
	if !ok {
		// Respect the byte budget at admission: traces are an accelerator,
		// not a correctness requirement, so an over-budget graph simply
		// stops accumulating them (queries still work, just without reuse).
		cost := traceBytes(dist, parent)
		if r.budget > 0 && rg.bytes+cost > r.budget {
			return // the stale trace, if any, stays usable
		}
		rg.head.traces[src] = &sourceTrace{dist: dist, parent: parent, bytes: cost}
		rg.bytes += cost
		r.bytes += cost
		// The exact trace supersedes the stale one it was repaired from.
		if st, stale := rg.head.stale[src]; stale {
			delete(rg.head.stale, src)
			rg.bytes -= st.bytes
			r.bytes -= st.bytes
		}
	} else if tr.parent == nil && parent != nil {
		// A row recorded without its tree (APSP yield) gains one later.
		add := int64(len(parent)) * 4
		tr.parent = parent
		tr.bytes += add
		rg.bytes += add
		r.bytes += add
	}
}

// sourceTrace returns what the head revision at digest remembers about
// src: its exact trace (exact=true, no changes; Parent is nil when the row
// was traced without its tree), or its stale trace plus the net changes
// separating the trace's graph from the head. ok=false means no usable
// structure. The returned slices are shared immutable state — callers must
// not write through them (incr.Repair copies before writing).
func (r *GraphRegistry) sourceTrace(id string, digest [32]byte, src graph.NodeID) (tr incr.Trace, changes []incr.NetChange, exact, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rg, found := r.graphs[id]
	if !found || rg.head.digest != digest {
		return incr.Trace{}, nil, false, false
	}
	if t, found := rg.head.traces[src]; found {
		return incr.Trace{Dist: t.dist, Parent: t.parent}, nil, true, true
	}
	if st, found := rg.head.stale[src]; found {
		return incr.Trace{Dist: st.dist, Parent: st.parent}, incr.NetChanges(st.base, rg.head.g), false, true
	}
	return incr.Trace{}, nil, false, false
}

// touchLocked marks a graph most-recently-used.
func (r *GraphRegistry) touchLocked(rg *regGraph) { r.lru.MoveToFront(rg.el) }

// evictLocked drops least-recently-used graphs until the budget holds,
// never evicting the graph that triggered the sweep (keep, at minimum,
// what the caller is actively using).
func (r *GraphRegistry) evictLocked(keep *regGraph) {
	if r.budget <= 0 {
		return
	}
	for r.bytes > r.budget {
		back := r.lru.Back()
		if back == nil {
			break
		}
		rg := back.Value.(*regGraph)
		if rg == keep {
			break
		}
		r.dropLocked(rg)
		r.evictions++
	}
}

func (r *GraphRegistry) dropLocked(rg *regGraph) {
	r.lru.Remove(rg.el)
	delete(r.graphs, rg.id)
	r.bytes -= rg.bytes
	r.unspillLocked(rg.id)
}

func (r *GraphRegistry) infoLocked(rg *regGraph) GraphInfo {
	info := GraphInfo{
		ID:            rg.id,
		Revision:      rg.head.num,
		Digest:        hex.EncodeToString(rg.head.digest[:]),
		N:             rg.head.g.N(),
		M:             rg.head.g.M(),
		Bytes:         rg.bytes,
		TracedSources: len(rg.head.traces),
		StaleSources:  len(rg.head.stale),
		CreatedAtNS:   rg.createdAt.UnixNano(),
	}
	if !rg.patchedAt.IsZero() {
		info.PatchedAtNS = rg.patchedAt.UnixNano()
	}
	return info
}

// RegistryStats is the registry's observable state, read by the
// dsssp_graph* metrics at scrape time.
type RegistryStats struct {
	Graphs int
	// Revisions counts revisions ever created (registrations + patches),
	// monotonically.
	Revisions int64
	Evictions int64
	BytesUsed int64
	// StaleTraces counts dirty sources currently awaiting repair across
	// every registered graph.
	StaleTraces int
}

// Stats snapshots the registry counters.
func (r *GraphRegistry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	stale := 0
	for _, rg := range r.graphs {
		stale += len(rg.head.stale)
	}
	return RegistryStats{
		Graphs:      len(r.graphs),
		Revisions:   r.revisions,
		Evictions:   r.evictions,
		BytesUsed:   r.bytes,
		StaleTraces: stale,
	}
}
