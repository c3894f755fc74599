package incr_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/incr"
)

// traceFor builds the exact Trace (Dijkstra distances + min-ID witness
// tree) the registry would remember for a source.
func traceFor(g *graph.Graph, s graph.NodeID) incr.Trace {
	dist := graph.Dijkstra(g, s)
	return incr.Trace{Dist: dist, Parent: graph.WitnessParents(g, s, dist)}
}

// patchLog mirrors what the registry keeps for one trace, two ways: base
// is the base-weight ledger — each PATCH adds the pairs it touches at their
// *pre-patch* weight, first touch wins, so it always holds the weight on
// the graph the trace was exact for — and run is the same batches' resolved
// changes in order, as the registry's change log holds them.
type patchLog struct {
	base map[uint64]int64
	run  []graph.WeightChange
}

func (l *patchLog) record(pre *graph.Graph, deltas []graph.EdgeDelta) {
	if l.base == nil {
		l.base = map[uint64]int64{}
	}
	for _, d := range deltas {
		k := graph.PairKey(d.U, d.V)
		if _, ok := l.base[k]; !ok {
			l.base[k] = -1
			if w, ok := pre.Weight(d.U, d.V); ok {
				l.base[k] = w
			}
		}
	}
	if changes, err := graph.ResolveDeltas(pre, deltas); err == nil {
		l.run = append(l.run, changes...)
	}
}

// net is the ledger-and-head oracle for the repair input: every ledger
// pair whose base weight differs from its weight on head, in pair order
// (found by scanning every pair u < v). It also requires graph.NetChanges
// over the run to agree.
func (l *patchLog) net(t *testing.T, head *graph.Graph) []graph.WeightChange {
	t.Helper()
	var out []graph.WeightChange
	for u := graph.NodeID(0); int(u) < head.N(); u++ {
		for v := u + 1; int(v) < head.N(); v++ {
			oldw, ok := l.base[graph.PairKey(u, v)]
			if !ok {
				continue
			}
			neww := int64(-1)
			if w, ok := head.Weight(u, v); ok {
				neww = w
			}
			if oldw != neww {
				out = append(out, graph.WeightChange{U: u, V: v, OldW: oldw, NewW: neww})
			}
		}
	}
	if got := graph.NetChanges(l.run); !slices.Equal(got, out) {
		t.Fatalf("graph.NetChanges over the batches = %v, ledger oracle %v", got, out)
	}
	return out
}

// checkRepair runs Repair and demands byte-identical distances and
// witness trees vs a from-scratch oracle on the patched graph.
func checkRepair(t *testing.T, label string, g *graph.Graph, s graph.NodeID, tr incr.Trace, l *patchLog) *incr.RepairResult {
	t.Helper()
	changes := l.net(t, g)
	rr, ok := incr.Repair(g, s, tr, changes, 0)
	if !ok {
		t.Fatalf("%s: repair declined", label)
	}
	wantDist := graph.Dijkstra(g, s)
	if !reflect.DeepEqual(rr.Dist, wantDist) {
		t.Fatalf("%s: repaired distances diverge from Dijkstra\nchanges=%v\ntrace=%v\ngot =%v\nwant=%v",
			label, changes, tr.Dist, rr.Dist, wantDist)
	}
	wantParent := graph.WitnessParents(g, s, wantDist)
	if !reflect.DeepEqual(rr.Parent, wantParent) {
		t.Fatalf("%s: repaired witness tree diverges\nchanges=%v\ngot =%v\nwant=%v",
			label, changes, rr.Parent, wantParent)
	}
	return rr
}

// TestRepairDifferential is the acceptance anchor for the repair engine:
// across the four classification-test graph families × randomized mixed
// insert/delete/reweight delta sequences, a repaired trace must be
// byte-identical — distances AND min-ID witness tree — to a from-scratch
// rerun. Two cadences are exercised: "eager" repairs after every batch
// (single-batch ledgers), "stacked" lets several batches accumulate in
// one ledger before repairing (the registry's behavior when a dirty
// source is patched repeatedly between queries). Low-spread weights force
// plenty of equality-witness ties, so tree flips are genuinely covered.
func TestRepairDifferential(t *testing.T) {
	families := []graph.Family{graph.FamilyRandom, graph.FamilyGrid, graph.FamilyCluster, graph.FamilyExpander}
	rng := rand.New(rand.NewSource(7))
	totalAffected, totalRepairs := 0, 0

	for _, fam := range families {
		for trial := 0; trial < 5; trial++ {
			n := 16 + rng.Intn(24)
			g := graph.Make(fam, n, graph.UniformWeights(5, rng.Int63()), rng.Int63())
			stacked := trial%2 == 1

			sources := []graph.NodeID{0, graph.NodeID(rng.Intn(g.N()))}
			traces := make(map[graph.NodeID]incr.Trace, len(sources))
			ledgers := make(map[graph.NodeID]*patchLog, len(sources))
			for _, s := range sources {
				traces[s] = traceFor(g, s)
				ledgers[s] = &patchLog{}
			}

			for round := 0; round < 4; round++ {
				deltas := randomBatch(rng, g, 1+rng.Intn(4))
				if len(deltas) == 0 {
					continue
				}
				ng, err := graph.ApplyDeltas(g, deltas)
				if err != nil {
					t.Fatalf("%s trial %d: %v", fam, trial, err)
				}
				for _, s := range sources {
					ledgers[s].record(g, deltas)
				}
				g = ng
				if stacked && round < 3 {
					continue // let the ledger accumulate across batches
				}
				for _, s := range sources {
					rr := checkRepair(t, string(fam), g, s, traces[s], ledgers[s])
					totalAffected += rr.Affected
					totalRepairs++
					// Promote, exactly like the registry after a repair.
					traces[s] = incr.Trace{Dist: rr.Dist, Parent: rr.Parent}
					ledgers[s] = &patchLog{}
				}
			}
		}
	}
	if totalAffected == 0 {
		t.Fatalf("vacuous run: %d repairs never touched a vertex", totalRepairs)
	}
	t.Logf("%d repairs, %d vertices rebuilt", totalRepairs, totalAffected)
}

// TestRepairDisconnection pins the Inf↔finite transitions: deleting a cut
// edge sends a whole region to +Inf (orphans with no boundary offer), and
// re-inserting it brings the region back — byte-identical both ways.
func TestRepairDisconnection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		n := 12 + rng.Intn(16)
		// A path graph makes every edge a cut edge.
		g := graph.Make(graph.FamilyPath, n, graph.UniformWeights(4, rng.Int63()), rng.Int63())
		s := graph.NodeID(rng.Intn(n))
		tr := traceFor(g, s)

		e := g.Edges()[rng.Intn(g.M())]
		cut := []graph.EdgeDelta{{Op: graph.DeltaDelete, U: e.U, V: e.V}}
		ledger := &patchLog{}
		ledger.record(g, cut)
		ng, err := graph.ApplyDeltas(g, cut)
		if err != nil {
			t.Fatal(err)
		}
		rr := checkRepair(t, "cut", ng, s, tr, ledger)
		if countInf(rr.Dist) == 0 && int(s) != 0 && int(s) != n-1 {
			// Cutting an interior path edge must strand one side unless the
			// source sits at an end and the cut is behind it — in which case
			// the other side is stranded instead; either way some node is
			// unreachable on a path after any cut.
			t.Fatalf("cut {%d,%d} from source %d stranded nobody: %v", e.U, e.V, s, rr.Dist)
		}

		// Reconnect at a different weight and repair the repaired trace.
		tr2 := incr.Trace{Dist: rr.Dist, Parent: rr.Parent}
		heal := []graph.EdgeDelta{{Op: graph.DeltaInsert, U: e.U, V: e.V, W: e.W + int64(rng.Intn(3))}}
		ledger2 := &patchLog{}
		ledger2.record(ng, heal)
		hg, err := graph.ApplyDeltas(ng, heal)
		if err != nil {
			t.Fatal(err)
		}
		rr2 := checkRepair(t, "heal", hg, s, tr2, ledger2)
		if countInf(rr2.Dist) != 0 {
			t.Fatalf("healed path still has unreachable nodes: %v", rr2.Dist)
		}
	}
}

func countInf(dist []int64) int {
	c := 0
	for _, d := range dist {
		if d == graph.Inf {
			c++
		}
	}
	return c
}

// TestRepairTargeted pins the hand-picked corner cases the fuzz could
// only hit by luck.
func TestRepairTargeted(t *testing.T) {
	// Square 0-1-2-3 with a heavy chord {0,2}: the serve-smoke graph.
	square := func() *graph.Graph {
		g := graph.New(4)
		g.AddEdge(0, 1, 1)
		g.AddEdge(1, 2, 1)
		g.AddEdge(2, 3, 1)
		g.AddEdge(0, 3, 1)
		g.AddEdge(0, 2, 10)
		g.SortAdj()
		return g
	}

	t.Run("equality-witness-flip", func(t *testing.T) {
		// dist(0→2)=2 via 1 (min-ID witness) — tightening the chord to 2
		// leaves every distance intact but mints witness 0 < 1 for node 2.
		g := square()
		tr := traceFor(g, 0)
		deltas := []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 0, V: 2, W: 2}}
		ledger := &patchLog{}
		ledger.record(g, deltas)
		ng, err := graph.ApplyDeltas(g, deltas)
		if err != nil {
			t.Fatal(err)
		}
		rr := checkRepair(t, "flip", ng, 0, tr, ledger)
		if !reflect.DeepEqual(rr.Dist, tr.Dist) {
			t.Fatalf("distances should be untouched by the equality tie: %v vs %v", rr.Dist, tr.Dist)
		}
		if rr.Parent[2] != 0 || tr.Parent[2] != 1 {
			t.Fatalf("witness flip not captured: old parent[2]=%d, new parent[2]=%d", tr.Parent[2], rr.Parent[2])
		}
	})

	t.Run("repeated-patches-net-zero", func(t *testing.T) {
		// Bump the same edge +1 twice, then restore it: the stacked ledger
		// must cancel to an empty change set and serve the trace verbatim.
		g := square()
		tr := traceFor(g, 0)
		ledger := &patchLog{}
		cur := g
		for _, w := range []int64{2, 3, 1} {
			d := []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 1, V: 2, W: w}}
			ledger.record(cur, d)
			next, err := graph.ApplyDeltas(cur, d)
			if err != nil {
				t.Fatal(err)
			}
			cur = next
		}
		if ch := ledger.net(t, cur); len(ch) != 0 {
			t.Fatalf("net-zero patch stack left changes: %v", ch)
		}
		rr := checkRepair(t, "net-zero", cur, 0, tr, ledger)
		if rr.Affected != 0 {
			t.Fatalf("net-zero repair touched %d vertices", rr.Affected)
		}
	})

	t.Run("repeated-patches-same-edge", func(t *testing.T) {
		// Same edge patched thrice to a genuinely new weight: the ledger
		// must diff the FIRST old weight against the LAST new one.
		g := square()
		tr := traceFor(g, 3)
		ledger := &patchLog{}
		cur := g
		for _, w := range []int64{5, 2, 7} {
			d := []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 0, V: 3, W: w}}
			ledger.record(cur, d)
			next, err := graph.ApplyDeltas(cur, d)
			if err != nil {
				t.Fatal(err)
			}
			cur = next
		}
		ch := ledger.net(t, cur)
		if len(ch) != 1 || ch[0].OldW != 1 || ch[0].NewW != 7 {
			t.Fatalf("stacked same-edge ledger resolved to %v, want one {0,3} 1→7", ch)
		}
		checkRepair(t, "same-edge", cur, 3, tr, ledger)
	})

	t.Run("zero-weight-ties", func(t *testing.T) {
		// Zero-weight edges create dist-0 non-sources; repair must keep the
		// min-ID discipline through them.
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 6; trial++ {
			n := 12 + rng.Intn(12)
			g := graph.Make(graph.FamilyRandom, n, graph.ZeroHeavyWeights(4, rng.Int63()), rng.Int63())
			s := graph.NodeID(rng.Intn(g.N()))
			tr := traceFor(g, s)
			deltas := randomBatch(rng, g, 1+rng.Intn(3))
			if len(deltas) == 0 {
				continue
			}
			ledger := &patchLog{}
			ledger.record(g, deltas)
			ng, err := graph.ApplyDeltas(g, deltas)
			if err != nil {
				t.Fatal(err)
			}
			checkRepair(t, "zero-heavy", ng, s, tr, ledger)
		}
	})
}

// TestRepairBudget pins that the affected region is never bounded: a
// repair that orphans 31 of 32 vertices answers and counts them, and the
// ignored maxAffected argument changes nothing, however small.
func TestRepairBudget(t *testing.T) {
	g := graph.Make(graph.FamilyPath, 32, graph.UnitWeights, 1)
	tr := traceFor(g, 0)
	// Deleting the first edge orphans the other 31 vertices.
	deltas := []graph.EdgeDelta{{Op: graph.DeltaDelete, U: 0, V: 1}}
	ledger := &patchLog{}
	ledger.record(g, deltas)
	ng, err := graph.ApplyDeltas(g, deltas)
	if err != nil {
		t.Fatal(err)
	}
	changes := ledger.net(t, ng)
	rr, ok := incr.Repair(ng, 0, tr, changes, 0)
	if !ok {
		t.Fatal("repair of 31 orphans declined")
	}
	if rr.Orphaned != 31 || rr.Affected != 31 {
		t.Fatalf("expected 31 orphaned/affected, got %d/%d", rr.Orphaned, rr.Affected)
	}
	small, ok := incr.Repair(ng, 0, tr, changes, 5)
	if !ok || !reflect.DeepEqual(small.Dist, rr.Dist) || !reflect.DeepEqual(small.Parent, rr.Parent) ||
		small.Orphaned != rr.Orphaned || small.Affected != rr.Affected {
		t.Fatalf("maxAffected 5 changed the repair: %+v", small)
	}
}

// TestRepairFreshSlices pins that Repair never aliases the trace: the
// result slices are caller-owned even for the zero-change fast path.
func TestRepairFreshSlices(t *testing.T) {
	g := graph.Make(graph.FamilyRandom, 16, graph.UnitWeights, 3)
	tr := traceFor(g, 0)
	rr, ok := incr.Repair(g, 0, tr, nil, 0)
	if !ok {
		t.Fatal("zero-change repair declined")
	}
	if !reflect.DeepEqual(rr.Dist, tr.Dist) || !reflect.DeepEqual(rr.Parent, tr.Parent) {
		t.Fatal("zero-change repair must reproduce the trace verbatim")
	}
	rr.Dist[1]++
	rr.Parent[1] = -2
	if rr.Dist[1] == tr.Dist[1] || rr.Parent[1] == tr.Parent[1] {
		t.Fatal("repair result aliases the trace slices")
	}
}

// TestRepairMalformedTrace pins the defensive contract: wrong-length
// traces decline instead of panicking or answering.
func TestRepairMalformedTrace(t *testing.T) {
	g := graph.Make(graph.FamilyRandom, 16, graph.UnitWeights, 3)
	tr := traceFor(g, 0)
	if _, ok := incr.Repair(g, 0, incr.Trace{Dist: tr.Dist[:10], Parent: tr.Parent}, nil, 0); ok {
		t.Fatal("short distance vector accepted")
	}
	if _, ok := incr.Repair(g, 0, incr.Trace{Dist: tr.Dist, Parent: tr.Parent[:10]}, nil, 0); ok {
		t.Fatal("short parent vector accepted")
	}
	if _, ok := incr.Repair(g, -1, tr, nil, 0); ok {
		t.Fatal("out-of-range source accepted")
	}
}

// BenchmarkRepairSmallDelta is the CI-tracked microbenchmark: one ±1
// reweight of a witness-tree edge on an n=10⁴ random graph — the exact
// shape of the serving layer's dynamic-load patches — repaired from a
// remembered trace. Compare against the ~minutes-scale full simulation
// the dirty-source path used to pay (EXPERIMENTS.md).
func BenchmarkRepairSmallDelta(b *testing.B) {
	const n = 10_000
	g := graph.Make(graph.FamilyRandom, n, graph.UniformWeights(int64(n), 1), 1)
	tr := traceFor(g, 0)
	// A tree edge is tight by construction, so raising it genuinely
	// orphans a subtree (the interesting direction).
	var ch graph.WeightChange
	for v := 1; v < n; v++ {
		if p := tr.Parent[v]; p >= 0 {
			w, _ := g.Weight(p, graph.NodeID(v))
			ch = graph.WeightChange{U: p, V: graph.NodeID(v), OldW: w, NewW: w + 1}
			break
		}
	}
	changes := []graph.WeightChange{ch}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := incr.Repair(g, 0, tr, changes, 0); !ok {
			b.Fatal("repair declined")
		}
	}
}
