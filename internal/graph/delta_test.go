package graph

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func edgesOf(g *Graph) []EdgeTriple {
	return g.Edges() // already canonical u<v; order is construction order
}

func TestApplyDeltasBasic(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 3)
	g.SortAdj()

	ng, err := ApplyDeltas(g, []EdgeDelta{
		{Op: DeltaInsert, U: 2, V: 3, W: 7},
		{Op: DeltaReweight, U: 0, V: 1, W: 9},
		{Op: DeltaDelete, U: 1, V: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]NodeID]int64{{0, 1}: 9, {2, 3}: 7}
	got := map[[2]NodeID]int64{}
	for _, e := range edgesOf(ng) {
		got[[2]NodeID{e.U, e.V}] = e.W
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("patched edge set = %v, want %v", got, want)
	}
	// The original is untouched.
	if g.M() != 2 || len(g.Adj(0)) != 1 || g.Adj(0)[0].W != 5 {
		t.Fatalf("ApplyDeltas mutated its input: M=%d adj0=%v", g.M(), g.Adj(0))
	}
}

func TestApplyDeltasInsertKeepMin(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 4)
	g.SortAdj()
	// Higher-weight insert is a no-op; lower-weight insert wins.
	ng, err := ApplyDeltas(g, []EdgeDelta{
		{Op: DeltaInsert, U: 1, V: 0, W: 9},
		{Op: DeltaInsert, U: 0, V: 1, W: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := ng.M(); m != 1 {
		t.Fatalf("M = %d, want 1", m)
	}
	if w := ng.Adj(0)[0].W; w != 2 {
		t.Fatalf("weight = %d, want keep-min 2", w)
	}
}

func TestApplyDeltasInsertThenDeleteWithinBatch(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.SortAdj()
	ng, err := ApplyDeltas(g, []EdgeDelta{
		{Op: DeltaInsert, U: 1, V: 2, W: 5},
		{Op: DeltaDelete, U: 1, V: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ng.M() != 1 {
		t.Fatalf("M = %d, want 1 (insert-then-delete cancels)", ng.M())
	}
}

func TestApplyDeltasErrors(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.SortAdj()
	for _, tc := range []struct {
		name string
		d    EdgeDelta
		want string
	}{
		{"self-loop", EdgeDelta{Op: DeltaInsert, U: 1, V: 1, W: 1}, "self-loop"},
		{"out-of-range", EdgeDelta{Op: DeltaInsert, U: 0, V: 3, W: 1}, "out of range"},
		{"negative-weight", EdgeDelta{Op: DeltaInsert, U: 0, V: 2, W: -1}, "negative weight"},
		{"delete-missing", EdgeDelta{Op: DeltaDelete, U: 0, V: 2}, "does not exist"},
		{"reweight-missing", EdgeDelta{Op: DeltaReweight, U: 0, V: 2, W: 1}, "does not exist"},
		{"unknown-op", EdgeDelta{Op: DeltaOp(9), U: 0, V: 2, W: 1}, "unknown op"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ApplyDeltas(g, []EdgeDelta{tc.d}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestApplyDeltasCanonical pins the content-purity property the serving
// layer's revision digests rely on: a patched graph is a pure function of
// its final edge set — identical to building that edge set from scratch,
// and identical across delta orders that land on the same set.
func TestApplyDeltasCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(8)
		g := Make(FamilyRandom, n, UniformWeights(16, rng.Int63()), rng.Int63())

		// Build a random valid batch against g: deleted pairs are never
		// referenced again within the batch (reweighting or re-deleting a
		// pair a prior delta removed is, correctly, an error).
		var deltas []EdgeDelta
		deleted := map[uint64]bool{}
		es := g.Edges()
		for i := 0; i < 6; i++ {
			switch rng.Intn(3) {
			case 0:
				u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
				if u == v || deleted[PairKey(u, v)] {
					continue
				}
				deltas = append(deltas, EdgeDelta{Op: DeltaInsert, U: u, V: v, W: int64(rng.Intn(16))})
			case 1:
				if len(es) > 0 {
					e := es[rng.Intn(len(es))]
					if deleted[PairKey(e.U, e.V)] {
						continue
					}
					deltas = append(deltas, EdgeDelta{Op: DeltaReweight, U: e.U, V: e.V, W: int64(rng.Intn(16))})
				}
			case 2:
				if len(es) > 1 {
					e := es[rng.Intn(len(es))]
					if deleted[PairKey(e.U, e.V)] {
						continue
					}
					deleted[PairKey(e.U, e.V)] = true
					deltas = append(deltas, EdgeDelta{Op: DeltaDelete, U: e.U, V: e.V})
				}
			}
		}
		if len(deltas) == 0 {
			continue
		}
		ng, err := ApplyDeltas(g, deltas)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Rebuild from scratch from ng's edge set; must be identical —
		// same canonical edge order, same adjacency, same EdgeIDs.
		fresh := New(n)
		for _, e := range ng.Edges() {
			fresh.AddEdge(e.U, e.V, e.W)
		}
		fresh.SortAdj()
		if !reflect.DeepEqual(ng.Edges(), fresh.Edges()) {
			t.Fatalf("trial %d: patched graph is not canonical:\n got %v\nwant %v", trial, ng.Edges(), fresh.Edges())
		}
		for v := 0; v < n; v++ {
			if !reflect.DeepEqual(ng.Adj(NodeID(v)), fresh.Adj(NodeID(v))) {
				t.Fatalf("trial %d: adjacency of %d differs", trial, v)
			}
		}
	}
}

func TestNetChanges(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []WeightChange
		want []WeightChange
	}{
		{"nil", nil, nil},
		{"stacked", []WeightChange{{0, 1, 5, 7}, {1, 0, 7, 2}, {0, 1, 2, 9}},
			[]WeightChange{{0, 1, 5, 9}}},
		{"cancelled", []WeightChange{{2, 3, 4, 6}, {2, 3, 6, 4}},
			[]WeightChange{}},
		{"u-greater-than-v", []WeightChange{{3, 1, -1, 4}},
			[]WeightChange{{1, 3, -1, 4}}},
		{"pair-order", []WeightChange{{2, 4, 1, 2}, {0, 3, 1, 2}, {1, 0, 5, -1}, {0, 2, -1, 1}},
			[]WeightChange{{0, 1, 5, -1}, {0, 2, -1, 1}, {0, 3, 1, 2}, {2, 4, 1, 2}}},
		{"insert-then-delete", []WeightChange{{1, 2, -1, 3}, {0, 1, 4, 5}, {2, 1, 3, -1}},
			[]WeightChange{{0, 1, 4, 5}}},
	} {
		in := slices.Clone(tc.in)
		got := NetChanges(in)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: NetChanges(%v) = %#v, want %#v", tc.name, tc.in, got, tc.want)
		}
		if !slices.Equal(in, tc.in) { // callers still hold the batch
			t.Errorf("%s: NetChanges reordered its input to %v", tc.name, in)
		}
	}
}

// FuzzNetChanges checks NetChanges against a map that keeps each pair's
// first old weight and last new weight. Every 4 input bytes are one
// change on 6 nodes with weights in [-1, 3], so pairs repeat, flip
// orientation and cancel often. The checked-in corpus
// (testdata/fuzz/FuzzNetChanges) holds the table test's shapes.
func FuzzNetChanges(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var in []WeightChange
		for ; len(data) >= 4; data = data[4:] {
			in = append(in, WeightChange{
				U: NodeID(data[0] % 6), V: NodeID(data[1] % 6),
				OldW: int64(data[2]%5) - 1, NewW: int64(data[3]%5) - 1,
			})
		}
		type net struct{ first, last int64 }
		seen := map[[2]NodeID]net{}
		for _, c := range in {
			k := [2]NodeID{min(c.U, c.V), max(c.U, c.V)}
			n, ok := seen[k]
			if !ok {
				n.first = c.OldW
			}
			n.last = c.NewW
			seen[k] = n
		}
		var want []WeightChange
		for k, n := range seen {
			if n.first != n.last {
				want = append(want, WeightChange{U: k[0], V: k[1], OldW: n.first, NewW: n.last})
			}
		}
		slices.SortFunc(want, func(a, b WeightChange) int {
			return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
		})
		got := NetChanges(in)
		if !slices.Equal(got, want) || (got == nil) != (len(in) == 0) {
			t.Fatalf("NetChanges(%v) = %#v, want %v", in, got, want)
		}
	})
}
