package service

import (
	"container/list"
	"encoding/hex"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"dsssp/internal/graph"
	"dsssp/internal/incr"
)

// GraphRegistry holds the registered (dynamic) graphs: content-derived
// handles naming a head revision — an immutable graph snapshot — plus the
// per-source result traces (distance rows and witness trees) that
// internal/incr classifies on every PATCH, and one change log of the
// PATCHes a stale trace still needs. Queries resolve a handle to the head's
// snapshot and proceed exactly like inline queries — the head digest is the
// cache key's graph half — so a query racing a PATCH sees exactly the pre-
// or the post-revision result, never a mix.
//
// The registry never writes into the result cache. A PATCH moves an
// untouched source's exact trace forward to the new revision, and the row
// provider serves it from there; the cache holds only bytes computed for
// their own key, so an entry's body depends on the content it is keyed by
// and never on the server's history. Old revisions' entries stay valid for
// their digest and age out of the cache's LRU.
//
// An exact trace may also keep its /v1/sssp body, rendered once by the
// first query that served it or derived from the reply of the repair that
// made it exact, so that a repeat query writes those bytes as they are
// (see keepBody). A PATCH that dirties the trace leaves the body with it,
// never to be served again: it is the base the repaired row's reply is
// spliced from (spliceSSSP), and the repaired row that replaces the stale
// trace drops it.
//
// The registry is byte-budgeted: graphs (and their traces, kept bodies and
// logs) are charged an approximate resident footprint and whole graphs are
// evicted LRU when the budget overflows, after every kept body is shed.
type GraphRegistry struct {
	mu     sync.Mutex
	budget int64
	graphs map[string]*regGraph
	lru    *list.List // of *regGraph; front = most recently used
	now    func() time.Time

	// Telemetry hooks, bound by the server after construction (tests may
	// leave them nil).
	m   *serverMetrics
	log *slog.Logger

	// Monotonic counters for RegistryStats.
	revisions   int64 // revisions ever created (registrations + patches)
	evictions   int64
	spillErrors int64

	// dir, when non-empty, is the persistence directory: registered graphs
	// and their traces are spilled to <dir>/<id>.spill — rewritten on
	// register, a journal record appended on PATCH — and reloaded on
	// startup (see persist.go). spillBuf is the encode buffer every spill
	// reuses.
	dir      string
	spillBuf []byte
}

type regGraph struct {
	id        string
	el        *list.Element
	createdAt time.Time
	patchedAt time.Time
	// num is the head revision, counted from 1 at registration; digest and
	// g are its content digest and snapshot, and leaves the digest's leaf
	// hashes, which a PATCH rehashes where it changes g. g is never
	// mutated — PATCH derives a fresh one (graph.ApplyChanges) — so a
	// query holding it simulates lock-free.
	num    int
	digest [32]byte
	leaves [][32]byte
	g      *graph.Graph
	// traces maps source → its trace. A trace at the head revision is
	// exact; an older one is stale, and log holds every batch since.
	traces map[graph.NodeID]*sourceTrace
	// log is the change log: one batch per PATCH after the oldest trace's
	// revision, in revision order, ending at the head, so a trace at
	// revision rev needs its last num-rev batches. Empty when every trace
	// is exact. logBytes is what the log is charged, at most graphBytes(g)
	// after every PATCH (see capLog).
	log      []logBatch
	logBytes int64
	// bodyBytes is the length of every kept body in all.
	bodyBytes int64
	// journal counts the bytes of the journal records in the graph's
	// spill, the change log a rewrite wrote and every record appended
	// since; rewrite makes the next spill rewrite the file whole (see
	// journalLocked).
	journal int64
	rewrite bool
}

// sourceTrace is one source's remembered structure: the distance row and
// min-ID witness tree that were exact at revision rev. body, when not nil,
// is a /v1/sssp body of dist: n, an m, dist and the zero-change incr block.
// An exact trace's states the head's m and is its reply; a PATCH that
// changes m and leaves the trace exact drops it. A stale trace's is the
// body it kept while exact, kept on as the base of its repaired row's
// reply and never served. Bodies are never spilled.
type sourceTrace struct {
	rev    int
	dist   []int64
	parent []graph.NodeID
	body   []byte
}

// logBatch is one PATCH's resolved weight changes, in batch order; rev is
// the revision the PATCH made, and at the time it made it.
type logBatch struct {
	rev     int
	at      time.Time
	changes []graph.WeightChange
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

// bind attaches the server's metrics and logger.
func (r *GraphRegistry) bind(m *serverMetrics, log *slog.Logger) { r.m, r.log = m, log }

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
	// registry budget (graph, traces, kept bodies and change log).
	Bytes int64 `json:"bytes"`
	// TracedSources counts sources holding an exact distance trace.
	TracedSources int `json:"traced_sources"`
	// StaleSources counts dirty sources holding a repairable stale trace.
	StaleSources int   `json:"stale_sources,omitempty"`
	CreatedAtNS  int64 `json:"created_at_ns"`
	PatchedAtNS  int64 `json:"patched_at_ns,omitempty"`
}

// graphBytes approximates a snapshot's resident footprint: 48 bytes an
// edge (its two 24-byte adjacency halves), a slice header per node and
// the digest's 32-byte leaf per block of digestBlock nodes.
func graphBytes(g *graph.Graph) int64 { return snapshotBytes(g.N(), g.M()) }

// snapshotBytes is graphBytes of a snapshot with n nodes and m edges; a
// journal replay charges revisions it never builds.
func snapshotBytes(n, m int) int64 {
	return int64(n)*24 + int64(m)*48 + int64((n+digestBlock-1)/digestBlock)*32
}

// traceBytes is what one trace of an n-node graph is charged: its distance
// row, its witness tree and a header.
func traceBytes(n int) int64 { return int64(n)*12 + 64 }

func logBatchBytes(b logBatch) int64 {
	return int64(len(b.changes))*24 + 32
}

// charge is what rg holds against the registry's budget: the head
// snapshot, its traces, their kept bodies and its change log.
func (rg *regGraph) charge() int64 {
	return graphBytes(rg.g) + int64(len(rg.traces))*traceBytes(rg.g.N()) + rg.bodyBytes + rg.logBytes
}

// dropBody uncharges and forgets tr's kept body, if any.
func (rg *regGraph) dropBody(tr *sourceTrace) {
	rg.bodyBytes -= int64(len(tr.body))
	tr.body = nil
}

// staleCount counts rg's traces older than the head.
func (rg *regGraph) staleCount() int {
	stale := 0
	for _, tr := range rg.traces {
		if tr.rev != rg.num {
			stale++
		}
	}
	return stale
}

// at is the index in the log of the first batch a trace at revision rev
// needs, rev lying between the oldest trace's revision and the head.
func (rg *regGraph) at(rev int) int { return rev - rg.num + len(rg.log) }

// Register adds the graph under a content-derived handle and returns its
// info. Registration is idempotent: posting a graph whose content matches
// an existing handle's head revision returns that handle (created=false).
// If the handle's graph has since been patched away from this content, a
// disambiguated handle is minted — handles are stable names for histories,
// not for contents.
func (r *GraphRegistry) Register(g *graph.Graph) (GraphInfo, bool) {
	leaves := digestLeaves(g)
	digest := digestRoot(g.N(), g.M(), leaves)
	r.mu.Lock()
	defer r.mu.Unlock()
	base := "g-" + hex.EncodeToString(digest[:8])
	id := base
	for k := 2; ; k++ {
		rg, ok := r.graphs[id]
		if !ok {
			break
		}
		if rg.digest == digest {
			r.touchLocked(rg)
			return r.infoLocked(rg), false
		}
		id = fmt.Sprintf("%s-%d", base, k)
	}
	rg := &regGraph{
		id:        id,
		createdAt: r.now(),
		num:       1,
		digest:    digest,
		leaves:    leaves,
		g:         g,
		traces:    make(map[graph.NodeID]*sourceTrace),
	}
	rg.el = r.lru.PushFront(rg)
	r.graphs[id] = rg
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
	return rg.g, rg.digest, rg.num, nil
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
	// SourcesKept / SourcesDropped classify the parent revision's exact
	// traces: kept = untouched (the trace moves forward to the new
	// revision), dropped = dirty (the trace stays at its revision and is now
	// stale). SourcesRepairable counts the stale traces the PATCH leaves:
	// the dropped sources plus those already stale, less any the log cap
	// forgot — the next query repairs them (incr.Repair) rather than
	// recomputing from scratch.
	SourcesKept       int     `json:"sources_kept"`
	SourcesDropped    int     `json:"sources_dropped"`
	SourcesRepairable int     `json:"sources_repairable"`
	DirtyFraction     float64 `json:"dirty_fraction"`
}

// Patch applies an edge-delta batch to the graph's head revision: builds
// the patched snapshot, advances the traces and the change log over the
// batch's weight changes (see advance), swaps the head and journals the
// batch to the graph's spill. The whole transition happens under the
// registry lock, so concurrent queries resolve either the old head (and
// serve its still-consistent snapshot) or the new one — never a mix.
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
	changes, err := graph.ResolveDeltas(rg.g, deltas)
	if err != nil {
		return PatchInfo{}, badRequest{err}
	}
	ng, head := graph.ApplyChanges(rg.g, changes), rg.num
	batch := logBatch{rev: head + 1, at: r.now(), changes: changes}
	kept, dropped := rg.advance(batch, graphBytes(ng))
	patchLeaves(ng, rg.leaves, changes)
	rg.digest, rg.g = digestRoot(ng.N(), ng.M(), rg.leaves), ng

	info := PatchInfo{
		ID: id, Revision: rg.num, ParentRevision: head,
		Digest: hex.EncodeToString(rg.digest[:]),
		N:      ng.N(), M: ng.M(),
		DeltasApplied: len(deltas), Effects: len(changes),
		SourcesKept: kept, SourcesDropped: dropped,
		SourcesRepairable: rg.staleCount(),
	}
	if classified := kept + dropped; classified > 0 {
		info.DirtyFraction = float64(dropped) / float64(classified)
		if r.m != nil {
			r.m.patchDirtyFraction.Observe(info.DirtyFraction)
		}
	}
	r.revisions++
	r.touchLocked(rg)
	r.evictLocked(rg)
	r.journalLocked(rg, batch)
	return info, nil
}

// advance moves rg's traces and change log one revision forward, over
// batch, the resolved changes of the PATCH that made revision rg.num+1;
// snap is what that revision's snapshot is charged. It appends the batch
// to the log, classifies every exact trace against it (internal/incr) —
// an untouched one moves forward to the new revision, a dirty one stays
// behind as a stale trace, its kept body with it as a splice base — trims
// the log to what stale traces need and caps it at snap. A live PATCH and a spill's journal replay both take
// this step; the snapshot and its digest are the caller's.
func (rg *regGraph) advance(batch logBatch, snap int64) (kept, dropped int) {
	head := rg.num
	rg.num, rg.patchedAt = batch.rev, batch.at
	rg.log = append(rg.log, batch)
	rg.logBytes += logBatchBytes(batch)
	// An exact trace's body states m, which an insert or a delete changes;
	// a splice base's m is rewritten.
	resized := slices.ContainsFunc(batch.changes, func(c graph.WeightChange) bool { return c.OldW < 0 || c.NewW < 0 })
	for _, tr := range rg.traces {
		switch {
		case tr.rev != head: // stale since an earlier PATCH, or a replay has yet to reach its revision
		case incr.SourceDirty(batch.changes, tr.dist):
			dropped++
		default:
			kept++
			tr.rev = rg.num
			if resized {
				rg.dropBody(tr)
			}
		}
	}
	rg.trim()
	rg.capLog(snap)
	return kept, dropped
}

// trim drops the log batches no trace needs — those at or below the
// oldest trace's revision — and uncharges them.
func (rg *regGraph) trim() {
	oldest := rg.num
	for _, tr := range rg.traces {
		oldest = min(oldest, tr.rev)
	}
	k := 0
	for ; k < len(rg.log) && rg.log[k].rev <= oldest; k++ {
		rg.logBytes -= logBatchBytes(rg.log[k])
	}
	clear(rg.log[:k])
	rg.log = rg.log[k:]
}

// capLog bounds the change log by the snapshot it leads to, charged snap:
// while the log is charged more, the stale traces at the oldest revision
// are forgotten and the log trimmed; those sources recompute on their next
// query. Without the cap a source queried once and never again would pin
// every later batch, and the graph's charge would grow with its PATCH
// count.
func (rg *regGraph) capLog(snap int64) {
	for len(rg.log) > 0 && rg.logBytes > snap {
		oldest := rg.num - len(rg.log)
		for src, tr := range rg.traces {
			if tr.rev == oldest {
				rg.dropBody(tr)
				delete(rg.traces, src)
			}
		}
		rg.trim()
	}
}

// Record attaches a computed source result to the graph's head revision:
// the exact distance row (what incr classifies against) and its min-ID
// witness tree (what incr.Repair restarts from). Admitting an exact trace
// supersedes the source's stale trace, if any. Dropped silently when
// digest no longer names the head — the computation raced a PATCH and its
// revision is gone — or when dist or parent lacks an entry per node: a row
// without its tree could serve but never be repaired. The parts argument
// is ignored.
//
// Deprecated: the parts parameter stays only because the benchmark
// harness still passes it, and goes once a benchmark change stops doing so.
func (r *GraphRegistry) Record(id string, digest [32]byte, src graph.NodeID, dist []int64, parent []graph.NodeID, _ string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rg, ok := r.graphs[id]
	if !ok || rg.digest != digest || len(dist) != rg.g.N() || len(parent) != len(dist) {
		return
	}
	tr, ok := rg.traces[src]
	switch {
	case ok && tr.rev == rg.num:
		return
	case ok:
		// The exact row replaces the stale one it was repaired from, with
		// the stale row's body, and the log may no longer need its oldest
		// batches. The spill keeps the stale trace: after a crash the
		// source is repaired again.
		rg.dropBody(tr)
		*tr = sourceTrace{rev: rg.num, dist: dist, parent: parent}
		rg.trim()
	default:
		// Respect the byte budget at admission: traces are an accelerator,
		// not a correctness requirement, so an over-budget graph simply
		// stops accumulating them (queries still work, just without reuse).
		// Kept bodies do not count: the eviction below sheds them first.
		cost := traceBytes(len(dist))
		if r.budget > 0 && rg.charge()-rg.bodyBytes+cost > r.budget {
			return
		}
		rg.traces[src] = &sourceTrace{rev: rg.num, dist: dist, parent: parent}
		// A new row could cost minutes to recompute: the next PATCH
		// rewrites the spill whole rather than journaling past it.
		rg.rewrite = true
		r.evictLocked(rg)
	}
}

// keepBody offers body, the /v1/sssp body rendered from src's exact trace
// whose row is dist on a revision with m edges, to be kept with the trace.
// It is kept only if the trace is still exact and still holds that very
// dist slice, m is still the head's, no body is kept yet and the bytes fit
// the budget as it stands: a render never causes an eviction.
func (r *GraphRegistry) keepBody(id string, src graph.NodeID, dist []int64, m int, body []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rg, ok := r.graphs[id]
	if !ok || rg.g.M() != m {
		return
	}
	tr, ok := rg.traces[src]
	switch {
	case !ok || tr.rev != rg.num || tr.body != nil,
		len(tr.dist) != len(dist) || len(dist) == 0 || &tr.dist[0] != &dist[0],
		r.budget > 0 && r.usedLocked()+int64(len(body)) > r.budget:
		return
	}
	tr.body = body
	rg.bodyBytes += int64(len(body))
}

// sourceTrace returns what the head revision at digest remembers about
// src: its exact trace (exact=true, no changes), or its stale trace plus
// the net changes separating the trace's revision from the head, and the
// body the trace keeps, if any: the reply of an exact trace, the splice
// base of a stale one. ok=false means no trace. The returned slices are
// shared immutable state — callers must not write through them
// (incr.Repair copies before writing).
func (r *GraphRegistry) sourceTrace(id string, digest [32]byte, src graph.NodeID) (tr incr.Trace, changes []graph.WeightChange, body []byte, exact, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rg, found := r.graphs[id]
	if !found || rg.digest != digest {
		return incr.Trace{}, nil, nil, false, false
	}
	t, found := rg.traces[src]
	if !found {
		return incr.Trace{}, nil, nil, false, false
	}
	tr = incr.Trace{Dist: t.dist, Parent: t.parent}
	if t.rev == rg.num {
		return tr, nil, t.body, true, true
	}
	// The log runs one batch per revision from just after the oldest
	// trace to the head, so the batches after t.rev chain the trace's
	// graph into the head.
	var since []graph.WeightChange
	for _, b := range rg.log[rg.at(t.rev):] {
		since = append(since, b.changes...)
	}
	return tr, graph.NetChanges(since), t.body, false, true
}

// touchLocked marks a graph most-recently-used.
func (r *GraphRegistry) touchLocked(rg *regGraph) { r.lru.MoveToFront(rg.el) }

// evictLocked drops least-recently-used graphs until the budget holds,
// never evicting the graph that triggered the sweep (keep, at minimum,
// what the caller is actively using). Kept bodies go first, all of them:
// a query renders one again in microseconds.
func (r *GraphRegistry) evictLocked(keep *regGraph) {
	if r.budget <= 0 {
		return
	}
	used := r.usedLocked()
	if used > r.budget {
		for _, rg := range r.graphs {
			used -= rg.bodyBytes
			for _, tr := range rg.traces {
				rg.dropBody(tr)
			}
		}
	}
	for used > r.budget {
		rg := r.lru.Back().Value.(*regGraph)
		if rg == keep {
			break
		}
		used -= rg.charge()
		r.dropLocked(rg)
		r.evictions++
	}
}

// usedLocked is what the registered graphs are charged in all.
func (r *GraphRegistry) usedLocked() int64 {
	var used int64
	for _, rg := range r.graphs {
		used += rg.charge()
	}
	return used
}

func (r *GraphRegistry) dropLocked(rg *regGraph) {
	r.lru.Remove(rg.el)
	delete(r.graphs, rg.id)
	r.unspillLocked(rg.id)
}

func (r *GraphRegistry) infoLocked(rg *regGraph) GraphInfo {
	stale := rg.staleCount()
	info := GraphInfo{
		ID:            rg.id,
		Revision:      rg.num,
		Digest:        hex.EncodeToString(rg.digest[:]),
		N:             rg.g.N(),
		M:             rg.g.M(),
		Bytes:         rg.charge(),
		TracedSources: len(rg.traces) - stale,
		StaleSources:  stale,
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
	// SpillErrors counts failed spills (rewrites and journal appends),
	// monotonically.
	SpillErrors int64
}

// Stats snapshots the registry counters.
func (r *GraphRegistry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	stale := 0
	for _, rg := range r.graphs {
		stale += rg.staleCount()
	}
	return RegistryStats{
		Graphs:      len(r.graphs),
		Revisions:   r.revisions,
		Evictions:   r.evictions,
		BytesUsed:   r.usedLocked(),
		StaleTraces: stale,
		SpillErrors: r.spillErrors,
	}
}
