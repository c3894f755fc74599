package service

import (
	"reflect"
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

// TestRegistryPatchClassifiesTraces pins what a PATCH does with each
// traced source: an untouched source keeps its exact trace, carried to the
// new revision as is; a dirty source with a witness tree is demoted to a
// stale trace; a dirty source without one is forgotten. SourcesRepairable
// counts the demoted sources plus those already stale, and the graph's
// bytes are re-charged for what the new revision holds.
func TestRegistryPatchClassifiesTraces(t *testing.T) {
	r := NewGraphRegistry(1<<20, nil, nil)
	info, _ := r.Register(ciGraph())
	g, digest, _, err := r.Resolve(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	dist := make(map[graph.NodeID][]int64)
	for _, src := range []graph.NodeID{0, 1, 2} {
		dist[src] = graph.Dijkstra(g, src)
		var parent []graph.NodeID
		if src != 2 { // source 2 is traced without its tree
			parent = graph.WitnessParents(g, src, dist[src])
		}
		r.Record(info.ID, digest, src, dist[src], parent, "")
	}

	// Reweight the chord down to 1: dirties sources 0 and 2, not source 1.
	pi, err := r.Patch(info.ID, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 0, V: 2, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if pi.Revision != 2 || pi.SourcesKept != 1 || pi.SourcesDropped != 2 || pi.SourcesRepairable != 1 {
		t.Fatalf("patch info = %+v", pi)
	}
	if pi.DirtyFraction != 2.0/3 {
		t.Fatalf("dirty fraction = %v, want 2/3", pi.DirtyFraction)
	}
	ng, d2, _, _ := r.Resolve(info.ID)
	tr, changes, exact, ok := r.sourceTrace(info.ID, d2, 1)
	if !ok || !exact || len(changes) != 0 || &tr.Dist[0] != &dist[1][0] {
		t.Fatalf("untouched source 1: ok=%v exact=%v changes=%v, or its row was not carried as is", ok, exact, changes)
	}
	if !reflect.DeepEqual(tr.Dist, graph.Dijkstra(ng, 1)) {
		t.Fatal("the carried trace is not exact on the new revision")
	}
	if _, changes, exact, ok := r.sourceTrace(info.ID, d2, 0); !ok || exact || len(changes) != 1 {
		t.Fatalf("dirty source 0: ok=%v exact=%v changes=%v, want a stale trace with one change", ok, exact, changes)
	}
	if _, _, _, ok := r.sourceTrace(info.ID, d2, 2); ok {
		t.Fatal("dirty source 2 has no tree to repair from, but kept a trace")
	}
	gi, _ := r.Get(info.ID)
	stale := r.graphs[info.ID].head.stale[0]
	want := graphBytes(ng) + traceBytes(dist[1], tr.Parent) + staleTraceBytes(stale)
	if gi.TracedSources != 1 || gi.StaleSources != 1 || gi.Bytes != want {
		t.Fatalf("info = %+v, want 1 traced, 1 stale, %d bytes", gi, want)
	}

	// A second, slack patch keeps source 1 and leaves source 0 repairable.
	pi, err = r.Patch(info.ID, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 0, V: 2, W: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if pi.SourcesKept != 1 || pi.SourcesDropped != 0 || pi.SourcesRepairable != 1 || pi.DirtyFraction != 0 {
		t.Fatalf("second patch info = %+v", pi)
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
	budget := graphBytes(g) + traceBytes(make([]int64, 4), nil) + 8
	r := NewGraphRegistry(budget, NewCache(1<<20), nil)
	info, _ := r.Register(g)
	_, digest, _, _ := r.Resolve(info.ID)
	for s := 0; s < 4; s++ {
		r.Record(info.ID, digest, graph.NodeID(s), graph.Dijkstra(g, graph.NodeID(s)), nil, "")
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
	r.Record(info.ID, oldDigest, 0, graph.Dijkstra(g, 0), nil, "sssp|src=0")
	got, _ := r.Get(info.ID)
	if got.TracedSources != 0 {
		t.Fatalf("stale-digest record attached to the new head: %+v", got)
	}
}
