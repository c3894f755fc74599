package service

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/incr"
)

// TestRegistryRepairableLifecycle walks a source through the full
// exact → stale → repaired promotion cycle at the registry level.
func TestRegistryRepairableLifecycle(t *testing.T) {
	r := NewGraphRegistry(1<<20, NewCache(1<<20), nil)
	info, _ := r.Register(ciGraph())
	g, digest, _, _ := r.Resolve(info.ID)

	dist := graph.Dijkstra(g, 0)
	parent := graph.WitnessParents(g, 0, dist)
	r.Record(info.ID, digest, 0, dist, parent, "sssp|src=0")

	// Exact head trace: repairable with zero changes.
	tr, changes, _, ok := r.sourceTrace(info.ID, digest, 0)
	if !ok || len(changes) != 0 {
		t.Fatalf("exact trace: ok=%v changes=%v", ok, changes)
	}
	if !reflect.DeepEqual(tr.Dist, dist) || !reflect.DeepEqual(tr.Parent, parent) {
		t.Fatal("exact trace does not round-trip")
	}

	// Tighten the chord: source 0 goes dirty but keeps a stale trace.
	pi, err := r.Patch(info.ID, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 0, V: 2, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if pi.SourcesDropped != 1 || pi.SourcesRepairable != 1 {
		t.Fatalf("patch info = %+v", pi)
	}
	ng, d2, _, _ := r.Resolve(info.ID)
	tr2, changes2, _, ok := r.sourceTrace(info.ID, d2, 0)
	if !ok || len(changes2) != 1 {
		t.Fatalf("stale trace: ok=%v changes=%v", ok, changes2)
	}
	if changes2[0].OldW != 10 || changes2[0].NewW != 1 {
		t.Fatalf("ledger resolved to %+v, want 10→1 on {0,2}", changes2[0])
	}
	// The old digest must not resolve anything.
	if _, _, _, ok := r.sourceTrace(info.ID, digest, 0); ok {
		t.Fatal("stale digest accepted")
	}

	// Repair and verify byte-identity, then promote.
	rr, ok := incr.Repair(ng, 0, tr2, changes2, 0)
	if !ok {
		t.Fatal("repair declined")
	}
	want := graph.Dijkstra(ng, 0)
	if !reflect.DeepEqual(rr.Dist, want) || !reflect.DeepEqual(rr.Parent, graph.WitnessParents(ng, 0, want)) {
		t.Fatal("repair diverges from oracle")
	}
	r.Record(info.ID, d2, 0, rr.Dist, rr.Parent, "")
	gi, _ := r.Get(info.ID)
	if gi.TracedSources != 1 || gi.StaleSources != 0 {
		t.Fatalf("promotion did not supersede the stale trace: %+v", gi)
	}
	if st := r.Stats(); st.StaleTraces != 0 {
		t.Fatalf("stats still count stale traces: %+v", st)
	}
}

// TestRegistryStaleLedgerStacks pins ledger composition across multiple
// patches between queries: repairing once after two patches must see the
// FIRST old weight diffed against the LAST new weight.
func TestRegistryStaleLedgerStacks(t *testing.T) {
	r := NewGraphRegistry(1<<20, NewCache(1<<20), nil)
	info, _ := r.Register(ciGraph())
	g, digest, _, _ := r.Resolve(info.ID)
	dist := graph.Dijkstra(g, 0)
	r.Record(info.ID, digest, 0, dist, graph.WitnessParents(g, 0, dist), "")

	for _, w := range []int64{2, 1} { // chord 10 → 2 → 1
		if _, err := r.Patch(info.ID, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 0, V: 2, W: w}}); err != nil {
			t.Fatal(err)
		}
	}
	ng, d3, _, _ := r.Resolve(info.ID)
	tr, changes, _, ok := r.sourceTrace(info.ID, d3, 0)
	if !ok || len(changes) != 1 || changes[0].OldW != 10 || changes[0].NewW != 1 {
		t.Fatalf("stacked ledger: ok=%v changes=%+v, want one {0,2} 10→1", ok, changes)
	}
	rr, ok := incr.Repair(ng, 0, tr, changes, 0)
	if !ok || !reflect.DeepEqual(rr.Dist, graph.Dijkstra(ng, 0)) {
		t.Fatalf("stacked repair diverges (ok=%v)", ok)
	}
}

// TestRegistryPersistenceRoundTrip spills a graph with exact and stale
// traces, reloads it in a fresh registry, and requires the warm-started
// state to serve and repair exactly like the original.
func TestRegistryPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cache := NewCache(1 << 20)
	r := NewGraphRegistry(1<<20, cache, nil)
	if _, err := r.EnablePersistence(dir); err != nil {
		t.Fatal(err)
	}
	info, _ := r.Register(ciGraph())
	g, digest, _, _ := r.Resolve(info.ID)
	// Exact trace for source 1 (stays clean), and one for source 0 that the
	// patch below will demote to stale.
	for _, src := range []graph.NodeID{0, 1} {
		dist := graph.Dijkstra(g, src)
		r.Record(info.ID, digest, src, dist, graph.WitnessParents(g, src, dist), "")
	}
	if _, err := r.Patch(info.ID, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 0, V: 2, W: 1}}); err != nil {
		t.Fatal(err)
	}
	// Queries since the last patch accumulate trace state only in memory —
	// Flush (the SIGTERM path) is what spills it.
	ng, d2, _, _ := r.Resolve(info.ID)
	dist3 := graph.Dijkstra(ng, 3)
	r.Record(info.ID, d2, 3, dist3, graph.WitnessParents(ng, 3, dist3), "")
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}

	// A fresh registry (fresh process) reloads everything.
	r2 := NewGraphRegistry(1<<20, NewCache(1<<20), nil)
	restored, err := r2.EnablePersistence(dir)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored %d graphs, want 1", restored)
	}
	g2, d2b, rev, err := r2.Resolve(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rev != 2 || d2b != d2 {
		t.Fatalf("restored head rev=%d digest match=%v", rev, d2b == d2)
	}
	if !reflect.DeepEqual(g2.Edges(), ng.Edges()) {
		t.Fatal("restored graph content diverges")
	}
	gi, _ := r2.Get(info.ID)
	if gi.TracedSources != 2 || gi.StaleSources != 1 {
		t.Fatalf("restored trace census = %+v", gi)
	}
	// The restored stale trace repairs to the oracle.
	tr, changes, _, ok := r2.sourceTrace(info.ID, d2b, 0)
	if !ok || len(changes) != 1 {
		t.Fatalf("restored stale: ok=%v changes=%v", ok, changes)
	}
	rr, ok := incr.Repair(g2, 0, tr, changes, 0)
	if !ok || !reflect.DeepEqual(rr.Dist, graph.Dijkstra(g2, 0)) {
		t.Fatalf("restored repair diverges (ok=%v)", ok)
	}
	// The restored exact trace serves with zero changes.
	if _, changes, _, ok := r2.sourceTrace(info.ID, d2b, 1); !ok || len(changes) != 0 {
		t.Fatalf("restored exact trace: ok=%v changes=%v", ok, changes)
	}
}

// TestRegistryPersistenceRemoveDeletesFile pins that dropping a graph
// (DELETE or eviction) also forgets it on disk.
func TestRegistryPersistenceRemoveDeletesFile(t *testing.T) {
	dir := t.TempDir()
	r := NewGraphRegistry(1<<20, NewCache(1<<20), nil)
	if _, err := r.EnablePersistence(dir); err != nil {
		t.Fatal(err)
	}
	info, _ := r.Register(ciGraph())
	path := filepath.Join(dir, info.ID+".json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("register did not spill: %v", err)
	}
	r.Remove(info.ID)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("remove left the spill file behind: %v", err)
	}
	r2 := NewGraphRegistry(1<<20, NewCache(1<<20), nil)
	if restored, _ := r2.EnablePersistence(dir); restored != 0 {
		t.Fatalf("removed graph resurrected: %d restored", restored)
	}
}

// TestRegistryPersistenceIgnoresForeignFiles pins that a reload rejects a
// corrupt spill loudly instead of silently serving garbage.
func TestRegistryPersistenceCorruptFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "g-bogus.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewGraphRegistry(1<<20, NewCache(1<<20), nil)
	if _, err := r.EnablePersistence(dir); err == nil {
		t.Fatal("corrupt spill file accepted")
	}
}
