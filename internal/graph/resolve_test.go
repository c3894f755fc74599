package graph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dsssp/internal/graph"
)

// effect is the form effectsOracle resolves a delta to: a decrease at its
// new weight or an increase from its old one.
type effect struct {
	U, V     graph.NodeID
	decrease bool
	W        int64
}

// effectOf projects a resolved change onto the oracle's form.
func effectOf(c graph.WeightChange) effect {
	if c.Lowered() {
		return effect{U: c.U, V: c.V, decrease: true, W: c.NewW}
	}
	return effect{U: c.U, V: c.V, W: c.OldW}
}

// effectsOracle is the delta resolver incremental classification used
// before it shared graph's, with its own error text: a working-weight
// overlay over an adjacency scan, kept to pin that graph.ResolveDeltas,
// read through Lowered, changes no effect.
func effectsOracle(g *graph.Graph, deltas []graph.EdgeDelta) ([]effect, error) {
	weights := make(map[uint64]int64, len(deltas))
	lookup := func(u, v graph.NodeID) (int64, bool) {
		if w, ok := weights[graph.PairKey(u, v)]; ok {
			return w, w >= 0
		}
		for _, h := range g.Adj(u) {
			if h.To == v {
				return h.W, true
			}
		}
		return 0, false
	}
	set := func(u, v graph.NodeID, w int64) { weights[graph.PairKey(u, v)] = w }
	var out []effect
	for i, d := range deltas {
		if d.U == d.V || d.U < 0 || int(d.U) >= g.N() || d.V < 0 || int(d.V) >= g.N() {
			return nil, fmt.Errorf("incr: delta %d (%s): invalid endpoints", i, d)
		}
		old, exists := lookup(d.U, d.V)
		switch d.Op {
		case graph.DeltaInsert:
			if d.W < 0 {
				return nil, fmt.Errorf("incr: delta %d (%s): negative weight", i, d)
			}
			if exists && d.W >= old {
				continue
			}
			out = append(out, effect{U: d.U, V: d.V, decrease: true, W: d.W})
			set(d.U, d.V, d.W)
		case graph.DeltaDelete:
			if !exists {
				return nil, fmt.Errorf("incr: delta %d (%s): edge does not exist", i, d)
			}
			out = append(out, effect{U: d.U, V: d.V, W: old})
			set(d.U, d.V, -1)
		case graph.DeltaReweight:
			if d.W < 0 {
				return nil, fmt.Errorf("incr: delta %d (%s): negative weight", i, d)
			}
			if !exists {
				return nil, fmt.Errorf("incr: delta %d (%s): edge does not exist", i, d)
			}
			switch {
			case d.W == old:
				continue
			case d.W < old:
				out = append(out, effect{U: d.U, V: d.V, decrease: true, W: d.W})
			default:
				out = append(out, effect{U: d.U, V: d.V, W: old})
			}
			set(d.U, d.V, d.W)
		default:
			return nil, fmt.Errorf("incr: delta %d: unknown op %d", i, uint8(d.Op))
		}
	}
	return out, nil
}

// TestEffectsAgreeWithApplyDeltas runs the batches of
// TestApplyDeltasMatchesOracle through graph.ResolveDeltas, graph.ApplyDeltas
// and effectsOracle: all must accept the same batches, the first two must
// reject the rest with the same error, and the resolved changes must
// project onto exactly the oracle's effects.
func TestEffectsAgreeWithApplyDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var ok, failed int
	check := func(name string, g *graph.Graph) *graph.Graph {
		ds := graph.RandomBatch(rng, g)
		ng, applyErr := graph.ApplyDeltas(g, ds)
		changes, effErr := graph.ResolveDeltas(g, ds)
		want, oracleErr := effectsOracle(g, ds)
		if (applyErr == nil) != (effErr == nil) || (applyErr != nil && applyErr.Error() != effErr.Error()) {
			t.Fatalf("%s %v: ApplyDeltas err = %v, ResolveDeltas err = %v", name, ds, applyErr, effErr)
		}
		if (effErr == nil) != (oracleErr == nil) {
			t.Fatalf("%s %v: ResolveDeltas err = %v, old resolver err = %v", name, ds, effErr, oracleErr)
		}
		if applyErr != nil {
			failed++
			return g
		}
		ok++
		var effs []effect
		for _, c := range changes {
			effs = append(effs, effectOf(c))
		}
		if len(effs) != len(want) || (len(want) > 0 && !reflect.DeepEqual(effs, want)) {
			t.Fatalf("%s %v: effects %v, old resolver %v", name, ds, effs, want)
		}
		return ng
	}
	for _, f := range graph.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			g := graph.Make(f, 6+rng.Intn(30), graph.UniformWeights(20, seed), seed)
			for step := 0; step < 60; step++ {
				g = check(string(f), g)
			}
		}
	}
	for seed := 0; seed < 10; seed++ {
		g := graph.UnsortedGraph(rng, 5+rng.Intn(20))
		for step := 0; step < 40; step++ {
			check("unsorted", g)
		}
	}
	if ok < 500 || failed < 500 {
		t.Fatalf("batches: %d applied, %d rejected; want at least 500 of each", ok, failed)
	}
}
