package dsssp

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/incr"
)

// TestIncrementalServingDifferential is the end-to-end soundness test for
// delta-aware incremental recomputation at the engine level, in both
// models: serve every source the classifier calls untouched from the
// pre-patch engine results, recompute only the dirty ones via the partial
// APSP fan-out (per-source SSSP in the sleeping model, which APSP does not
// support), and the assembled answer must be byte-identical to a
// from-scratch engine run on the patched graph — distances and
// shortest-path trees alike.
func TestIncrementalServingDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("engine-level incremental differential")
	}
	families := []graph.Family{graph.FamilyRandom, graph.FamilyGrid, graph.FamilyExpander}
	models := []Model{ModelCongest, ModelSleeping}
	rng := rand.New(rand.NewSource(1234))

	for _, fam := range families {
		for _, model := range models {
			for trial := 0; trial < 2; trial++ {
				n := 16
				seed := rng.Int63()
				g0 := graph.Make(fam, n, graph.UniformWeights(8, seed), seed)
				opts := &Options{Model: model}
				// rows computes the sources' distance rows (nil = all n):
				// the partial APSP fan-out in CONGEST, and per-source SSSP
				// in the sleeping model, which APSP rejects.
				rows := func(g *Graph, sources []NodeID) ([][]int64, error) {
					if model == ModelCongest {
						res, err := APSPFrom(g, sources, opts, 7)
						if err != nil {
							return nil, err
						}
						return res.Dist, nil
					}
					if sources == nil {
						sources = make([]NodeID, g.N())
						for s := range sources {
							sources[s] = NodeID(s)
						}
					}
					dist := make([][]int64, g.N())
					for _, s := range sources {
						res, err := SSSP(g, s, opts)
						if err != nil {
							return nil, err
						}
						dist[s] = res.Dist
					}
					return dist, nil
				}

				full0, err := rows(g0, nil)
				if err != nil {
					t.Fatalf("%s/%s: %v", fam, model, err)
				}

				deltas := randomEngineBatch(rng, g0, 1+rng.Intn(3))
				if len(deltas) == 0 {
					continue
				}
				g1, err := ApplyDeltas(g0, deltas)
				if err != nil {
					t.Fatalf("%s/%s: %v", fam, model, err)
				}
				changes, err := graph.ResolveDeltas(g0, deltas)
				if err != nil {
					t.Fatalf("%s/%s: %v", fam, model, err)
				}
				traces := make(map[graph.NodeID][]int64, n)
				for s := 0; s < n; s++ {
					traces[graph.NodeID(s)] = full0[s]
				}
				dirty, untouched := incr.DirtySources(changes, traces)

				// The incremental fan-out: recompute dirty sources only.
				// (nil means "all" to APSPFrom, so an all-untouched batch
				// skips the partial run — there is nothing to recompute.)
				var partial [][]int64
				if len(dirty) > 0 {
					partial, err = rows(g1, dirty)
					if err != nil {
						t.Fatalf("%s/%s: %v", fam, model, err)
					}
				}
				// The oracle: everything from scratch on the patched graph.
				full1, err := rows(g1, nil)
				if err != nil {
					t.Fatalf("%s/%s: %v", fam, model, err)
				}

				for _, s := range untouched {
					if !reflect.DeepEqual(full0[s], full1[s]) {
						t.Fatalf("%s/%s trial %d: source %d untouched but engine distances changed\ndeltas=%v\nold=%v\nnew=%v",
							fam, model, trial, s, deltas, full0[s], full1[s])
					}
				}
				for _, s := range dirty {
					if !reflect.DeepEqual(partial[s], full1[s]) {
						t.Fatalf("%s/%s trial %d: partial fan-out row %d differs from full run\ndeltas=%v\npartial=%v\nfull=%v",
							fam, model, trial, s, deltas, partial[s], full1[s])
					}
				}

				// Trees survive too: one engine tree extraction per combo on
				// an untouched source (witness parents are a pure function of
				// dist + graph, but this pins the actual engine output).
				if len(untouched) > 0 {
					s := untouched[0]
					tr0, err := SSSPTree(g0, s, opts)
					if err != nil {
						t.Fatal(err)
					}
					tr1, err := SSSPTree(g1, s, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(tr0.Parent, tr1.Parent) {
						t.Fatalf("%s/%s trial %d: source %d untouched but engine tree changed\ndeltas=%v\nold=%v\nnew=%v",
							fam, model, trial, s, deltas, tr0.Parent, tr1.Parent)
					}
				}
			}
		}
	}
}

// TestRepairMatchesEngineTree closes the loop between affected-region
// repair and the engine itself, in both models: remember an engine run's
// distance vector and witness tree, patch the graph, repair — and the
// repaired labels must be byte-identical to a from-scratch engine tree
// extraction on the patched graph. This is the property that makes a
// repaired serving response indistinguishable from a recomputed one.
func TestRepairMatchesEngineTree(t *testing.T) {
	families := []graph.Family{graph.FamilyRandom, graph.FamilyGrid, graph.FamilyExpander}
	models := []Model{ModelCongest, ModelSleeping}
	rng := rand.New(rand.NewSource(99))

	for _, fam := range families {
		for _, model := range models {
			seed := rng.Int63()
			g0 := graph.Make(fam, 18, graph.UniformWeights(8, seed), seed)
			opts := &Options{Model: model}
			s := NodeID(rng.Intn(g0.N()))

			tr0, err := SSSPTree(g0, s, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", fam, model, err)
			}
			if !reflect.DeepEqual(tr0.Parent, WitnessParents(g0, s, tr0.Dist)) {
				t.Fatalf("%s/%s: engine tree is not the min-ID witness tree", fam, model)
			}

			deltas := randomEngineBatch(rng, g0, 1+rng.Intn(3))
			if len(deltas) == 0 {
				continue
			}
			g1, err := ApplyDeltas(g0, deltas)
			if err != nil {
				t.Fatalf("%s/%s: %v", fam, model, err)
			}
			changes := ledgerNetChanges(g0, g1, deltas)
			resolved, err := graph.ResolveDeltas(g0, deltas)
			if err != nil {
				t.Fatalf("%s/%s: %v", fam, model, err)
			}
			if got := graph.NetChanges(resolved); !slices.Equal(got, changes) {
				t.Fatalf("%s/%s: graph.NetChanges = %v, ledger oracle %v", fam, model, got, changes)
			}

			rr, ok := incr.Repair(g1, s, incr.Trace{Dist: tr0.Dist, Parent: tr0.Parent}, changes, 0)
			if !ok {
				t.Fatalf("%s/%s: repair declined with no budget", fam, model)
			}
			tr1, err := SSSPTree(g1, s, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", fam, model, err)
			}
			if !reflect.DeepEqual(rr.Dist, tr1.Dist) || !reflect.DeepEqual(rr.Parent, tr1.Parent) {
				t.Fatalf("%s/%s: repaired labels diverge from engine rerun\ndeltas=%v\nrepair dist=%v parent=%v\nengine dist=%v parent=%v",
					fam, model, deltas, rr.Dist, rr.Parent, tr1.Dist, tr1.Parent)
			}
		}
	}
}

// ledgerNetChanges derives the repair input the way the registry's former
// base ledger did: every pair the batch touches, at its weight on pre (-1
// when absent), diffed against head, in pair order.
func ledgerNetChanges(pre, head *graph.Graph, deltas []graph.EdgeDelta) []graph.WeightChange {
	base := map[uint64]int64{}
	for _, d := range deltas {
		k := graph.PairKey(d.U, d.V)
		if _, ok := base[k]; !ok {
			base[k] = -1
			if w, ok := pre.Weight(d.U, d.V); ok {
				base[k] = w
			}
		}
	}
	var out []graph.WeightChange
	for u := graph.NodeID(0); int(u) < head.N(); u++ {
		for v := u + 1; int(v) < head.N(); v++ {
			oldw, ok := base[graph.PairKey(u, v)]
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
	return out
}

// TestAPSPFromMatchesFullRun pins that a partial fan-out's rows are
// byte-identical to the same rows of a full APSP — the property that lets
// the serving layer mix cached and recomputed rows in one response.
func TestAPSPFromMatchesFullRun(t *testing.T) {
	g := graph.Make(graph.FamilyCluster, 20, graph.UniformWeights(6, 3), 3)
	opts := &Options{}
	full, err := APSP(g, opts, 11)
	if err != nil {
		t.Fatal(err)
	}
	subset := []graph.NodeID{2, 7, 13}
	part, err := APSPFrom(g, subset, opts, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subset {
		if !reflect.DeepEqual(part.Dist[s], full.Dist[s]) {
			t.Fatalf("row %d: partial %v != full %v", s, part.Dist[s], full.Dist[s])
		}
	}
	// Rows outside the subset are absent (nil), not silently zeroed.
	for s := 0; s < g.N(); s++ {
		in := false
		for _, x := range subset {
			in = in || x == graph.NodeID(s)
		}
		if !in && part.Dist[s] != nil {
			t.Fatalf("row %d computed despite not being requested", s)
		}
	}
}

// randomEngineBatch mirrors the incr test's batch generator: a random
// valid batch never referencing a pair it already deleted.
func randomEngineBatch(rng *rand.Rand, g *graph.Graph, size int) []EdgeDelta {
	var deltas []EdgeDelta
	deleted := map[[2]graph.NodeID]bool{}
	key := func(u, v graph.NodeID) [2]graph.NodeID {
		if u > v {
			u, v = v, u
		}
		return [2]graph.NodeID{u, v}
	}
	es := g.Edges()
	n := g.N()
	for i := 0; i < size; i++ {
		switch rng.Intn(4) {
		case 0:
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u == v || deleted[key(u, v)] {
				continue
			}
			deltas = append(deltas, EdgeDelta{Op: DeltaInsert, U: u, V: v, W: int64(rng.Intn(8))})
		case 1, 2:
			if len(es) == 0 {
				continue
			}
			e := es[rng.Intn(len(es))]
			if deleted[key(e.U, e.V)] {
				continue
			}
			deltas = append(deltas, EdgeDelta{Op: DeltaReweight, U: e.U, V: e.V, W: int64(rng.Intn(8))})
		case 3:
			if len(es) == 0 {
				continue
			}
			e := es[rng.Intn(len(es))]
			if deleted[key(e.U, e.V)] {
				continue
			}
			deleted[key(e.U, e.V)] = true
			deltas = append(deltas, EdgeDelta{Op: DeltaDelete, U: e.U, V: e.V})
		}
	}
	return deltas
}
