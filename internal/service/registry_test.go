package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/incr"
)

// ciGraph is the square-plus-slack-chord graph the CI smoke test also
// uses: 0-1-2-3-0 at unit weight plus {0,2} at weight 10. From source 0
// the chord is slack; from source 1 it is slack too — but *reweighting*
// the chord down to 1 dirties source 0 (0→2 improves to 1) while source 1
// provably cannot improve (its distance to both endpoints is already ≤ 1).
func ciGraph() *graph.Graph {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 3, 1)
	g.AddEdge(0, 2, 10)
	g.SortAdj()
	return g
}

func TestRegistryRegisterIdempotent(t *testing.T) {
	r := NewGraphRegistry(1<<20, NewCache(1<<20), nil)
	info1, created := r.Register(ciGraph())
	if !created || info1.Revision != 1 {
		t.Fatalf("first register: created=%v info=%+v", created, info1)
	}
	if !strings.HasPrefix(info1.ID, "g-") {
		t.Fatalf("handle %q not content-derived", info1.ID)
	}
	info2, created := r.Register(ciGraph())
	if created || info2.ID != info1.ID {
		t.Fatalf("re-register: created=%v id=%q want %q", created, info2.ID, info1.ID)
	}
	if st := r.Stats(); st.Graphs != 1 || st.Revisions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRegistryHandleDisambiguationAfterPatch(t *testing.T) {
	r := NewGraphRegistry(1<<20, NewCache(1<<20), nil)
	info1, _ := r.Register(ciGraph())
	if _, err := r.Patch(info1.ID, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 0, V: 2, W: 1}}); err != nil {
		t.Fatal(err)
	}
	// The handle now points at different content; registering the original
	// content again must mint a fresh handle, not hijack the history.
	info2, created := r.Register(ciGraph())
	if !created || info2.ID == info1.ID {
		t.Fatalf("re-register after patch: created=%v id=%q (original %q)", created, info2.ID, info1.ID)
	}
}

// TestRegistryPatchClassifiesTraces pins what a PATCH does with each
// traced source: an untouched source's exact trace moves forward to the
// new revision as is; a dirty source's trace stays at its revision, stale,
// and the change log keeps the batch it needs. SourcesRepairable counts
// the dirty sources plus those already stale, and the graph's bytes are
// re-charged for its snapshot, its traces and the log, charged once.
func TestRegistryPatchClassifiesTraces(t *testing.T) {
	r := NewGraphRegistry(1<<20, nil, nil)
	info, _ := r.Register(ciGraph())
	g, digest, _, err := r.Resolve(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	// A row without its witness tree could never be repaired: not recorded.
	r.Record(info.ID, digest, 2, graph.Dijkstra(g, 2), nil, "")
	if gi, _ := r.Get(info.ID); gi.TracedSources != 0 {
		t.Fatalf("a row without its tree was recorded: %+v", gi)
	}
	// Nor is a row and tree of another length than the node count.
	long := append(graph.Dijkstra(g, 2), 0)
	r.Record(info.ID, digest, 2, long, make([]graph.NodeID, len(long)), "")
	if gi, _ := r.Get(info.ID); gi.TracedSources != 0 || gi.Bytes != graphBytes(g) {
		t.Fatalf("a row of %d entries was recorded for %d nodes: %+v", len(long), g.N(), gi)
	}
	dist := make(map[graph.NodeID][]int64)
	for _, src := range []graph.NodeID{0, 1, 2} {
		dist[src] = graph.Dijkstra(g, src)
		r.Record(info.ID, digest, src, dist[src], graph.WitnessParents(g, src, dist[src]), "")
	}

	// Reweight the chord down to 1: dirties sources 0 and 2, not source 1.
	pi, err := r.Patch(info.ID, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 0, V: 2, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if pi.Revision != 2 || pi.SourcesKept != 1 || pi.SourcesDropped != 2 || pi.SourcesRepairable != 2 {
		t.Fatalf("patch info = %+v", pi)
	}
	if pi.DirtyFraction != 2.0/3 {
		t.Fatalf("dirty fraction = %v, want 2/3", pi.DirtyFraction)
	}
	ng, d2, _, _ := r.Resolve(info.ID)
	tr, changes, _, exact, ok := r.sourceTrace(info.ID, d2, 1)
	if !ok || !exact || len(changes) != 0 || &tr.Dist[0] != &dist[1][0] {
		t.Fatalf("untouched source 1: ok=%v exact=%v changes=%v, or its row was not carried as is", ok, exact, changes)
	}
	if !reflect.DeepEqual(tr.Dist, graph.Dijkstra(ng, 1)) {
		t.Fatal("the carried trace is not exact on the new revision")
	}
	for _, src := range []graph.NodeID{0, 2} {
		if _, changes, _, exact, ok := r.sourceTrace(info.ID, d2, src); !ok || exact || len(changes) != 1 {
			t.Fatalf("dirty source %d: ok=%v exact=%v changes=%v, want a stale trace with one change", src, ok, exact, changes)
		}
	}
	gi, _ := r.Get(info.ID)
	want := graphBytes(ng) + 3*traceBytes(ng.N()) + logBatchBytes(r.graphs[info.ID].log[0])
	if gi.TracedSources != 1 || gi.StaleSources != 2 || gi.Bytes != want || len(r.graphs[info.ID].log) != 1 {
		t.Fatalf("info = %+v, want 1 traced, 2 stale, %d bytes and one log batch", gi, want)
	}

	// A second, slack patch keeps source 1 and leaves sources 0 and 2
	// repairable.
	pi, err = r.Patch(info.ID, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 0, V: 2, W: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if pi.SourcesKept != 1 || pi.SourcesDropped != 0 || pi.SourcesRepairable != 2 || pi.DirtyFraction != 0 {
		t.Fatalf("second patch info = %+v", pi)
	}
}

// TestRegistryLogCapped pins the change log's cap: a stale trace nobody
// queries again keeps every later batch only until the log outweighs the
// head snapshot; then the stale traces at the oldest revision are
// forgotten, the log is trimmed to what the rest need, and a stream of
// PATCHes on one edge leaves the graph's bytes bounded however long it
// runs.
func TestRegistryLogCapped(t *testing.T) {
	r := NewGraphRegistry(1<<20, nil, nil)
	info, _ := r.Register(ciGraph())
	rg := r.graphs[info.ID]
	g, digest, _, _ := r.Resolve(info.ID)
	for _, src := range []graph.NodeID{0, 1} {
		d := graph.Dijkstra(g, src)
		r.Record(info.ID, digest, src, d, graph.WitnessParents(g, src, d), "")
	}
	patch := func(u, v graph.NodeID, w int64) PatchInfo {
		t.Helper()
		pi, err := r.Patch(info.ID, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: u, V: v, W: w}})
		if err != nil {
			t.Fatal(err)
		}
		checkLogInvariants(t, rg)
		return pi
	}
	// A one-change batch is charged 56 bytes and ciGraph 336, so the log
	// holds at most six batches.
	patch(0, 2, 1) // revision 2: source 0 stale at revision 1
	patch(0, 2, 2)
	patch(1, 2, 3) // revision 4: source 1 stale at revision 3
	for rev, w := 5, int64(1); rev <= 7; rev, w = rev+1, 3-w {
		if pi := patch(0, 2, w); pi.SourcesRepairable != 2 || len(rg.log) != rev-1 {
			t.Fatalf("revision %d: %+v with %d log batches, want 2 repairable and %d batches", rev, pi, len(rg.log), rev-1)
		}
	}
	// Revision 8 would make seven batches: source 0 goes, and the log keeps
	// the five batches after source 1's revision.
	if pi := patch(0, 2, 2); pi.SourcesRepairable != 1 || len(rg.log) != 5 || rg.log[0].rev != 4 {
		t.Fatalf("revision 8: %+v with %d log batches", pi, len(rg.log))
	}
	ng, d8, _, _ := r.Resolve(info.ID)
	if _, _, _, _, ok := r.sourceTrace(info.ID, d8, 0); ok {
		t.Fatal("source 0 survived the log cap")
	}
	tr, changes, _, exact, ok := r.sourceTrace(info.ID, d8, 1)
	if !ok || exact {
		t.Fatalf("source 1: ok=%v exact=%v, want its stale trace", ok, exact)
	}
	if rr, ok := incr.Repair(ng, 1, tr, changes, 0); !ok || !reflect.DeepEqual(rr.Dist, graph.Dijkstra(ng, 1)) {
		t.Fatalf("source 1's repair over the trimmed log diverges (ok=%v)", ok)
	}
	patch(0, 2, 1)
	if pi := patch(0, 2, 2); pi.SourcesRepairable != 0 || len(rg.log) != 0 {
		t.Fatalf("revision 10: %+v with %d log batches, want source 1 forgotten too", pi, len(rg.log))
	}
	for k, w := 0, int64(1); k < 50; k, w = k+1, 3-w {
		patch(0, 2, w)
	}
	if gi, _ := r.Get(info.ID); gi.Bytes != graphBytes(ng) || gi.TracedSources != 0 || gi.StaleSources != 0 {
		t.Fatalf("after 60 PATCHes: %+v, want the bare graph's %d bytes", gi, graphBytes(ng))
	}
}

// checkLogInvariants recounts rg's traces per revision, its kept bodies,
// its log and its charges, and requires them to match bodyBytes, logBytes
// and charge(): one batch per revision after the oldest trace up to the
// head, none the oldest trace does not need, a row and a tree of n entries
// per trace, every kept body a fresh render of its trace's own row at the
// m it states — an exact trace's at the head's m, a stale trace's splice
// base at any — and a log no heavier than the snapshot.
func checkLogInvariants(t *testing.T, rg *regGraph) {
	t.Helper()
	held := make([]int, len(rg.log)+1)
	charged, logBytes, bodyBytes := graphBytes(rg.g), int64(0), int64(0)
	for src, tr := range rg.traces {
		i := rg.at(tr.rev)
		if i < 0 || i >= len(held) {
			t.Fatalf("source %d's trace at revision %d is not covered by a log ending at %d with %d batches", src, tr.rev, rg.num, len(rg.log))
		}
		held[i]++
		if len(tr.dist) != rg.g.N() || len(tr.parent) != rg.g.N() {
			t.Fatalf("source %d's trace holds %d distances and %d parents for %d nodes", src, len(tr.dist), len(tr.parent), rg.g.N())
		}
		if tr.body != nil {
			var stated struct{ M int }
			if err := json.Unmarshal(tr.body, &stated); err != nil {
				t.Fatalf("source %d's kept body: %v", src, err)
			}
			resp := ssspResponse(rg.g, row{dist: tr.dist, served: rowRepaired}, nil)
			resp.M = stated.M
			switch {
			case tr.rev == rg.num && stated.M != rg.g.M():
				t.Fatalf("source %d's exact trace keeps a body for m=%d at m=%d", src, stated.M, rg.g.M())
			case !bytes.Equal(tr.body, mustRender(t, renderSSSP, resp)):
				t.Fatalf("source %d's trace at revision %d (head %d) keeps a body that is not its row's", src, tr.rev, rg.num)
			}
		}
		charged += traceBytes(rg.g.N()) + int64(len(tr.body))
		bodyBytes += int64(len(tr.body))
	}
	for i, b := range rg.log {
		if b.rev != rg.num-len(rg.log)+1+i {
			t.Fatalf("log batch %d at revision %d; the head is %d with %d batches", i, b.rev, rg.num, len(rg.log))
		}
		logBytes += logBatchBytes(b)
	}
	switch {
	case len(rg.log) > 0 && held[0] == 0:
		t.Fatalf("untrimmed log: no trace at revision %d", rg.num-len(rg.log))
	case logBytes != rg.logBytes || bodyBytes != rg.bodyBytes || charged+logBytes != rg.charge():
		t.Fatalf("charged %d bytes, log %d, bodies %d; recounted %d, log %d, bodies %d",
			rg.charge(), rg.logBytes, rg.bodyBytes, charged+logBytes, logBytes, bodyBytes)
	case logBytes > graphBytes(rg.g):
		t.Fatalf("log of %d bytes outweighs the %d-byte snapshot", logBytes, graphBytes(rg.g))
	}
}

func TestRegistryEvictionLRU(t *testing.T) {
	// Budget sized for exactly two ciGraph-scale graphs.
	one := graphBytes(ciGraph())
	r := NewGraphRegistry(2*one+one/2, NewCache(1<<20), nil)

	mk := func(extraW int64) *graph.Graph {
		g := graph.New(4)
		g.AddEdge(0, 1, 1)
		g.AddEdge(1, 2, 1)
		g.AddEdge(2, 3, 1)
		g.AddEdge(0, 3, 1)
		g.AddEdge(0, 2, 10+extraW) // distinct content per graph
		g.SortAdj()
		return g
	}
	a, _ := r.Register(mk(0))
	b, _ := r.Register(mk(1))
	c, _ := r.Register(mk(2))
	if st := r.Stats(); st.Graphs != 2 || st.Evictions != 1 {
		t.Fatalf("stats after third register = %+v", st)
	}
	if _, ok := r.Get(a.ID); ok {
		t.Fatal("LRU graph survived the eviction sweep")
	}
	for _, id := range []string{b.ID, c.ID} {
		if _, ok := r.Get(id); !ok {
			t.Fatalf("recently-used graph %s evicted", id)
		}
	}
	// Touch b (making c the LRU), register a fourth: c must go, b stays.
	if _, _, _, err := r.Resolve(b.ID); err != nil {
		t.Fatal(err)
	}
	d, _ := r.Register(mk(3))
	if _, ok := r.Get(c.ID); ok {
		t.Fatal("LRU graph c survived")
	}
	if _, ok := r.Get(b.ID); !ok {
		t.Fatal("recently-touched b evicted instead of LRU")
	}
	if _, ok := r.Get(d.ID); !ok {
		t.Fatal("the graph that triggered the sweep was evicted")
	}
}

func TestRegistryTraceAdmissionBudget(t *testing.T) {
	// Budget barely above the bare graph: trace admission must stop rather
	// than evict the graph out from under itself.
	g := ciGraph()
	budget := graphBytes(g) + traceBytes(4) + 8
	r := NewGraphRegistry(budget, NewCache(1<<20), nil)
	info, _ := r.Register(g)
	_, digest, _, _ := r.Resolve(info.ID)
	for s := graph.NodeID(0); s < 4; s++ {
		d := graph.Dijkstra(g, s)
		r.Record(info.ID, digest, s, d, graph.WitnessParents(g, s, d), "")
	}
	got, _ := r.Get(info.ID)
	if got.TracedSources != 1 {
		t.Fatalf("traced %d sources under a one-trace budget", got.TracedSources)
	}
	if st := r.Stats(); st.BytesUsed > budget {
		t.Fatalf("budget overrun: %+v", st)
	}
	// The graph itself must still be resident and resolvable.
	if _, _, _, err := r.Resolve(info.ID); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryRecordStaleDigestDropped(t *testing.T) {
	r := NewGraphRegistry(1<<20, NewCache(1<<20), nil)
	info, _ := r.Register(ciGraph())
	g, oldDigest, _, _ := r.Resolve(info.ID)
	if _, err := r.Patch(info.ID, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 0, V: 2, W: 1}}); err != nil {
		t.Fatal(err)
	}
	// A computation that raced the patch reports against the old digest:
	// silently dropped, never attached to the new head.
	d := graph.Dijkstra(g, 0)
	r.Record(info.ID, oldDigest, 0, d, graph.WitnessParents(g, 0, d), "sssp|src=0")
	got, _ := r.Get(info.ID)
	if got.TracedSources != 0 {
		t.Fatalf("stale-digest record attached to the new head: %+v", got)
	}
}

// BenchmarkRegistryPatchStacked times one PATCH of 16 stacked ±1
// reweights on a random n=10⁴ graph whose 32 traces are all stale. Each
// PATCH appends its batch to the graph's change log once, so its cost does
// not grow with the stale traces or with the batches they span. Nothing
// repairs the traces, so the log grows by a batch per PATCH; left alone it
// would outweigh the snapshot after about 3 000 PATCHes and the cap would
// forget every trace. So the registry is rebuilt, untimed, every 256
// PATCHes, and every b.N times the same states; the log-batches and stale
// metrics report where the run ended.
func BenchmarkRegistryPatchStacked(b *testing.B) { benchPatchStacked(b, 10_000, "") }

// BenchmarkRegistryPatchStacked100k is BenchmarkRegistryPatchStacked on a
// random n=10⁵ graph: what a reweight still pays per node — the copy of
// the snapshot's outer adjacency slice and the digest's root over n/64
// leaves — shows as the gap to n=10⁴.
func BenchmarkRegistryPatchStacked100k(b *testing.B) { benchPatchStacked(b, 100_000, "") }

// BenchmarkRegistryPatchStackedSpill is BenchmarkRegistryPatchStacked with
// the registry spilling to a directory, as dsssp-serve -registry-dir does:
// each PATCH appends a journal record of its batch to the graph's spill
// and fsyncs it; the spill is rewritten whole only when the journal
// outweighs the snapshot.
func BenchmarkRegistryPatchStackedSpill(b *testing.B) { benchPatchStacked(b, 10_000, b.TempDir()) }

func benchPatchStacked(b *testing.B, n int, dir string) {
	const traced, batch, rebuild = 32, 16, 256
	g := graph.Make(graph.FamilyRandom, n, graph.UniformWeights(int64(n), 1), 1)
	sources := make([]graph.NodeID, traced)
	dists := make([][]int64, traced)
	parents := make([][]graph.NodeID, traced)
	var dirty []graph.EdgeDelta
	for i := range sources {
		src := graph.NodeID(i * (n / traced))
		sources[i], dists[i] = src, graph.Dijkstra(g, src)
		parents[i] = graph.WitnessParents(g, src, dists[i])
		// A zero-weight edge out of the source shortens a distance.
		dirty = append(dirty, graph.EdgeDelta{Op: graph.DeltaInsert, U: src, V: (src + graph.NodeID(n/2)) % graph.NodeID(n), W: 0})
	}
	var r *GraphRegistry
	var id string
	bumped := make(map[int]bool)
	// setup registers g afresh with every trace stale, dropping the last
	// registry and its spill.
	setup := func() {
		if r != nil {
			r.Remove(id)
		}
		r = NewGraphRegistry(1<<40, nil, nil)
		if dir != "" {
			if _, err := r.EnablePersistence(dir); err != nil {
				b.Fatal(err)
			}
		}
		info, _ := r.Register(g)
		_, digest, _, _ := r.Resolve(info.ID)
		for i, src := range sources {
			r.Record(info.ID, digest, src, dists[i], parents[i], "")
		}
		if pi, err := r.Patch(info.ID, dirty); err != nil || pi.SourcesDropped != traced {
			b.Fatalf("setup patch: %+v, %v; want all %d sources stale", pi, err, traced)
		}
		id = info.ID
		clear(bumped)
	}
	setup()
	edges := g.Edges()
	rng := rand.New(rand.NewSource(1))
	deltas := make([]graph.EdgeDelta, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%rebuild == 0 {
			b.StopTimer()
			setup()
			b.StartTimer()
		}
		for j := range deltas {
			k := rng.Intn(len(edges))
			e := edges[k]
			if bumped[k] = !bumped[k]; bumped[k] {
				e.W++
			}
			deltas[j] = graph.EdgeDelta{Op: graph.DeltaReweight, U: e.U, V: e.V, W: e.W}
		}
		if _, err := r.Patch(id, deltas); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	gi, _ := r.Get(id)
	b.ReportMetric(float64(len(r.graphs[id].log)), "log-batches")
	b.ReportMetric(float64(gi.StaleSources), "stale")
	if st := r.Stats(); st.SpillErrors != 0 {
		b.Fatalf("%d spills failed", st.SpillErrors)
	}
}
