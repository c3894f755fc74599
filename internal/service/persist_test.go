package service

import (
	"bytes"
	"encoding/hex"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// TestRegistryStaleLedgerStacks pins how the change log composes across
// patches between queries. A stale trace's net changes fold every batch
// after its own revision, the FIRST old weight against the LAST new one,
// and a pair patched away and back cancels out; traces stale at different
// revisions read different suffixes of the one log. The log keeps exactly
// the batches after the oldest stale trace and shrinks as repairs promote
// them.
func TestRegistryStaleLedgerStacks(t *testing.T) {
	r := NewGraphRegistry(1<<20, NewCache(1<<20), nil)
	info, _ := r.Register(ciGraph())
	record := func(src graph.NodeID) {
		g, digest, _, _ := r.Resolve(info.ID)
		dist := graph.Dijkstra(g, src)
		r.Record(info.ID, digest, src, dist, graph.WitnessParents(g, src, dist), "")
	}
	patch := func(deltas ...graph.EdgeDelta) {
		if _, err := r.Patch(info.ID, deltas); err != nil {
			t.Fatal(err)
		}
	}
	rw := func(u, v graph.NodeID, w int64) graph.EdgeDelta {
		return graph.EdgeDelta{Op: graph.DeltaReweight, U: u, V: v, W: w}
	}
	rg := r.graphs[info.ID]
	revs := func() (out []int) {
		for _, b := range rg.log {
			out = append(out, b.rev)
		}
		return out
	}

	record(0)
	patch(rw(0, 2, 2))              // revision 2: chord 10 → 2
	patch(rw(0, 2, 1), rw(2, 1, 4)) // revision 3: chord 2 → 1, {1,2} 1 → 4
	record(1)                       // source 1 traced mid-history, at revision 3
	patch(rw(1, 2, 1))              // revision 4: {1,2} 4 → 1 cancels revision 3's
	if got := revs(); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Fatalf("log batches at revisions %v, want [2 3 4]", got)
	}
	ng, d4, _, _ := r.Resolve(info.ID)
	repair := func(src graph.NodeID, want []graph.WeightChange) {
		t.Helper()
		tr, changes, exact, ok := r.sourceTrace(info.ID, d4, src)
		if !ok || exact || !reflect.DeepEqual(changes, want) {
			t.Fatalf("source %d: ok=%v exact=%v changes=%+v, want %+v", src, ok, exact, changes, want)
		}
		rr, ok := incr.Repair(ng, src, tr, changes, 0)
		if !ok || !reflect.DeepEqual(rr.Dist, graph.Dijkstra(ng, src)) {
			t.Fatalf("source %d: stacked repair diverges (ok=%v)", src, ok)
		}
		r.Record(info.ID, d4, src, rr.Dist, rr.Parent, "")
	}
	repair(0, []graph.WeightChange{{U: 0, V: 2, OldW: 10, NewW: 1}})
	if got := revs(); !reflect.DeepEqual(got, []int{4}) {
		t.Fatalf("after source 0's repair the log holds revisions %v, want [4]", got)
	}
	repair(1, []graph.WeightChange{{U: 1, V: 2, OldW: 4, NewW: 1}})
	gi, _ := r.Get(info.ID)
	if len(rg.log) != 0 || gi.StaleSources != 0 || gi.TracedSources != 2 || gi.Bytes != graphBytes(ng)+2*traceBytes(make([]int64, 4), make([]graph.NodeID, 4)) {
		t.Fatalf("every trace is exact, but the log holds %d batches and info = %+v", len(rg.log), gi)
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
	// The warm-started head is the spilled graph, EdgeIDs and adjacency
	// order included.
	if !reflect.DeepEqual(g2.Edges(), ng.Edges()) {
		t.Fatal("restored graph content diverges")
	}
	for u := 0; u < ng.N(); u++ {
		if !reflect.DeepEqual(g2.Adj(graph.NodeID(u)), ng.Adj(graph.NodeID(u))) {
			t.Fatalf("restored adjacency of %d = %v, want %v", u, g2.Adj(graph.NodeID(u)), ng.Adj(graph.NodeID(u)))
		}
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
	path := filepath.Join(dir, info.ID+".spill")
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

// TestRegistryPersistenceCorruptFile pins that a reload rejects a corrupt
// spill loudly instead of silently serving garbage.
func TestRegistryPersistenceCorruptFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "g-bogus.spill"), []byte("{not a spill"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewGraphRegistry(1<<20, NewCache(1<<20), nil)
	if _, err := r.EnablePersistence(dir); err == nil {
		t.Fatal("corrupt spill file accepted")
	}
}

// TestSpillErrorsCounted removes the registry directory under a live
// persistent server: the next PATCH's journal append fails, and the
// failure is counted in dsssp_graph_spill_errors_total and logged once
// while the PATCH itself succeeds. Once the directory is back, the next
// PATCH rewrites the spill whole (compacts) rather than appending after a
// record that may be missing, and a fresh boot restores the head revision
// and digest.
func TestSpillErrorsCounted(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "registry")
	var logs bytes.Buffer
	s, err := New(Config{Workers: 1, RegistryDir: dir, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	info, _ := s.registry.Register(ciGraph())
	rg := s.registry.graphs[info.ID]
	patch := func(w int64) PatchInfo {
		t.Helper()
		pi, err := s.registry.Patch(info.ID, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 0, V: 2, W: w}})
		if err != nil {
			t.Fatal(err)
		}
		return pi
	}
	errs := func() float64 { return scrapeMetrics(t, s)["dsssp_graph_spill_errors_total"] }

	patch(5)
	if rg.journal == 0 || errs() != 0 {
		t.Fatalf("first PATCH: journal %d bytes, %v spill errors", rg.journal, errs())
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	patch(4)
	if got := errs(); got != 1 || !rg.rewrite {
		t.Fatalf("PATCH without a directory: %v spill errors, rewrite %v", got, rg.rewrite)
	}
	if n := strings.Count(logs.String(), `"msg":"registry spill failed"`); n != 1 {
		t.Fatalf("logged %d spill failures, want 1:\n%s", n, logs.String())
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	pi := patch(3)
	raw, err := os.ReadFile(filepath.Join(dir, info.ID+spillExt))
	if err != nil {
		t.Fatal(err)
	}
	if got, size, err := decodeSpill(raw); err != nil || got.journal != 0 || size != len(raw) || got.num != pi.Revision {
		t.Fatalf("PATCH after the failure did not compact: %v", err)
	}
	if got := errs(); got != 1 || rg.rewrite || rg.journal != 0 {
		t.Fatalf("after the compaction: %v spill errors, rewrite %v, journal %d", got, rg.rewrite, rg.journal)
	}
	r2 := NewGraphRegistry(1<<20, nil, nil)
	if _, err := r2.EnablePersistence(dir); err != nil {
		t.Fatal(err)
	}
	_, digest, rev, err := r2.Resolve(info.ID)
	if err != nil || rev != pi.Revision || hex.EncodeToString(digest[:]) != pi.Digest {
		t.Fatalf("fresh boot: revision %d (want %d), digest %x (want %s), err %v", rev, pi.Revision, digest, pi.Digest, err)
	}
}

// TestSpillJournalTriggers walks a persistent graph through every way a
// PATCH reaches its spill. Register writes a base. A PATCH after a query
// admitted a trace for a source that held none rewrites the file whole,
// so the new row is on disk; later PATCHes append journal records, also
// after a repaired row replaced a stale trace (on disk the stale trace
// stays). A PATCH whose journal would outweigh the head snapshot rewrites
// the file whole again. Each state decodes to the live head.
func TestSpillJournalTriggers(t *testing.T) {
	dir := t.TempDir()
	r := NewGraphRegistry(1<<20, nil, nil)
	if _, err := r.EnablePersistence(dir); err != nil {
		t.Fatal(err)
	}
	info, _ := r.Register(ciGraph())
	rg := r.graphs[info.ID]
	path := filepath.Join(dir, info.ID+spillExt)
	onDisk := func(what string, journal bool) *regGraph {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := decodeSpill(raw)
		if err != nil || got.num != rg.num || got.digest != rg.digest || got.journal != rg.journal || (got.journal > 0) != journal {
			t.Fatalf("%s: spill at revision %d with a %d-byte journal (live %d, %d bytes), want journaled=%v: %v", what, got.num, got.journal, rg.num, rg.journal, journal, err)
		}
		return got
	}
	record := func(src graph.NodeID) {
		g, digest, _, _ := r.Resolve(info.ID)
		tr, changes, exact, ok := r.sourceTrace(info.ID, digest, src)
		if ok && exact {
			return
		}
		if ok {
			rr, _ := incr.Repair(g, src, tr, changes, 0)
			r.Record(info.ID, digest, src, rr.Dist, rr.Parent, "")
			return
		}
		d := graph.Dijkstra(g, src)
		r.Record(info.ID, digest, src, d, graph.WitnessParents(g, src, d), "")
	}
	w := int64(10)
	patch := func() {
		t.Helper()
		w = 11 - w // the chord {0,2} alternates between 10 and 1
		if _, err := r.Patch(info.ID, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 0, V: 2, W: w}}); err != nil {
			t.Fatal(err)
		}
	}

	onDisk("register", false)
	record(0)
	patch() // revision 2: source 0 goes stale
	if got := onDisk("PATCH after a new trace", false); len(got.traces) != 1 || got.staleCount() != 1 {
		t.Fatalf("the rewrite holds %d traces, %d stale; want source 0's stale trace", len(got.traces), got.staleCount())
	}
	record(0) // repaired: replaces the stale trace in memory only
	patch()   // revision 3
	if got := onDisk("PATCH after a repair", true); got.traces[0].rev != 1 {
		t.Fatalf("on disk source 0's trace is at revision %d, want the stale one at 1", got.traces[0].rev)
	}
	for i := 0; rg.journal > 0; i++ {
		if i == 20 {
			t.Fatalf("the journal grew to %d bytes against a %d-byte snapshot without a rewrite", rg.journal, graphBytes(rg.g))
		}
		record(0)
		patch()
	}
	if got := onDisk("PATCH past the snapshot's size", false); !reflect.DeepEqual(got.traces, rg.traces) {
		t.Fatal("the rewrite's traces differ from the live ones")
	}
	patch()
	onDisk("PATCH after the compaction", true)
	if st := r.Stats(); st.SpillErrors != 0 {
		t.Fatalf("%d spills failed", st.SpillErrors)
	}
}
