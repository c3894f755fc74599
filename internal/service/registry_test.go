package service

import (
	"strings"
	"testing"

	"dsssp/internal/graph"
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

func TestRegistryPatchMigratesAndInvalidates(t *testing.T) {
	cache := NewCache(1 << 20)
	r := NewGraphRegistry(1<<20, cache, nil)
	info, _ := r.Register(ciGraph())
	g, digest, _, err := r.Resolve(info.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Trace sources 0 and 1 with their exact rows and one cache entry each.
	parts := map[graph.NodeID]string{0: "sssp|src=0", 1: "sssp|src=1"}
	for _, src := range []graph.NodeID{0, 1} {
		dist := graph.Dijkstra(g, src)
		key := keyFromDigest(digest, parts[src])
		if _, _, err := cache.GetOrCompute(key, func() ([]byte, error) {
			return []byte("body-" + parts[src]), nil
		}); err != nil {
			t.Fatal(err)
		}
		r.Record(info.ID, digest, src, dist, nil, parts[src])
	}

	// Reweight the chord down to 1: dirties source 0, not source 1.
	pi, err := r.Patch(info.ID, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 0, V: 2, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if pi.Revision != 2 || pi.SourcesKept != 1 || pi.SourcesDropped != 1 {
		t.Fatalf("patch info = %+v", pi)
	}
	if pi.EntriesMigrated != 1 || pi.EntriesInvalidated != 1 {
		t.Fatalf("entry ledger = %+v", pi)
	}
	if pi.DirtyFraction != 0.5 {
		t.Fatalf("dirty fraction = %v, want 0.5", pi.DirtyFraction)
	}

	_, newDigest, rev, err := r.Resolve(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rev != 2 || newDigest == digest {
		t.Fatalf("head did not advance: rev=%d", rev)
	}
	// Source 1's entry was re-addressed to the new revision; source 0's is
	// gone under both digests.
	if body, hit, _ := cache.GetOrCompute(keyFromDigest(newDigest, parts[1]), nope(t)); !hit || string(body) != "body-sssp|src=1" {
		t.Fatalf("untouched source's entry not migrated: hit=%v body=%q", hit, body)
	}
	if _, hit, _ := cache.GetOrCompute(keyFromDigest(newDigest, parts[0]), miss()); hit {
		t.Fatal("dirty source's entry reachable under the new revision")
	}
	if _, hit, _ := cache.GetOrCompute(keyFromDigest(digest, parts[0]), miss()); hit {
		t.Fatal("dirty source's entry still resident under the old revision")
	}
}

// nope fails the test if the computation runs (the entry must be a hit).
func nope(t *testing.T) func() ([]byte, error) {
	return func() ([]byte, error) {
		t.Helper()
		t.Error("expected a cache hit, computation ran")
		return []byte("computed"), nil
	}
}

// miss is a sentinel computation for presence probes.
func miss() func() ([]byte, error) {
	return func() ([]byte, error) { return []byte("probe"), nil }
}

func TestRegistryWholeAPSPBodySurvival(t *testing.T) {
	cache := NewCache(1 << 20)
	r := NewGraphRegistry(1<<20, cache, nil)
	info, _ := r.Register(ciGraph())
	g, digest, _, _ := r.Resolve(info.ID)

	// Trace all four sources plus the whole-APSP body.
	for s := 0; s < g.N(); s++ {
		r.Record(info.ID, digest, graph.NodeID(s), graph.Dijkstra(g, graph.NodeID(s)), nil, "")
	}
	const apspParts = "apsp|seed=0"
	cache.GetOrCompute(keyFromDigest(digest, apspParts), miss())
	r.Record(info.ID, digest, apspTraceKey, nil, nil, apspParts)

	// An increase of the slack chord touches no source at all: every trace
	// and the whole-APSP body survive into revision 2.
	pi, err := r.Patch(info.ID, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 0, V: 2, W: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if pi.SourcesDropped != 0 || pi.SourcesKept != 4 {
		t.Fatalf("slack increase dirtied sources: %+v", pi)
	}
	_, d2, _, _ := r.Resolve(info.ID)
	if _, hit, _ := cache.GetOrCompute(keyFromDigest(d2, apspParts), miss()); !hit {
		t.Fatal("whole-APSP body not migrated despite all sources untouched")
	}

	// Deleting a tight edge dirties some source → the APSP body must go.
	if _, err := r.Patch(info.ID, []graph.EdgeDelta{{Op: graph.DeltaDelete, U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	_, d3, _, _ := r.Resolve(info.ID)
	if _, hit, _ := cache.GetOrCompute(keyFromDigest(d3, apspParts), miss()); hit {
		t.Fatal("whole-APSP body survived a dirtying patch")
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
	r := NewGraphRegistry(graphBytes(g)+traceBytes(make([]int64, 4), nil)+8, NewCache(1<<20), nil)
	info, _ := r.Register(g)
	_, digest, _, _ := r.Resolve(info.ID)
	for s := 0; s < 4; s++ {
		r.Record(info.ID, digest, graph.NodeID(s), graph.Dijkstra(g, graph.NodeID(s)), nil, "")
	}
	got, _ := r.Get(info.ID)
	if got.TracedSources != 1 {
		t.Fatalf("traced %d sources under a one-trace budget", got.TracedSources)
	}
	if st := r.Stats(); st.BytesUsed > st.Budget {
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
	r.Record(info.ID, oldDigest, 0, graph.Dijkstra(g, 0), nil, "sssp|src=0")
	got, _ := r.Get(info.ID)
	if got.TracedSources != 0 {
		t.Fatalf("stale-digest record attached to the new head: %+v", got)
	}
}
