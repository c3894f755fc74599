package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// DeltaOp names one edge-delta operation.
type DeltaOp uint8

// Edge-delta operations.
const (
	// DeltaInsert adds edge {U,V} with weight W. Inserting a pair that
	// already exists merges under the same keep-min policy as AddEdge, so a
	// patched graph stays a pure function of its edge set.
	DeltaInsert DeltaOp = iota + 1
	// DeltaDelete removes edge {U,V} (W is ignored). Deleting a missing
	// edge is an error: the caller's picture of the graph is stale, and a
	// silent no-op would hide that.
	DeltaDelete
	// DeltaReweight sets edge {U,V}'s weight to W exactly — up or down,
	// unlike the insert merge. Reweighting a missing edge is an error.
	DeltaReweight
)

func (op DeltaOp) String() string {
	switch op {
	case DeltaInsert:
		return "insert"
	case DeltaDelete:
		return "delete"
	case DeltaReweight:
		return "reweight"
	default:
		return fmt.Sprintf("delta-op(%d)", uint8(op))
	}
}

// EdgeDelta is one edge mutation in a batch.
type EdgeDelta struct {
	Op   DeltaOp
	U, V NodeID
	W    int64
}

func (d EdgeDelta) String() string {
	if d.Op == DeltaDelete {
		return fmt.Sprintf("%s{%d,%d}", d.Op, d.U, d.V)
	}
	return fmt.Sprintf("%s{%d,%d}w=%d", d.Op, d.U, d.V, d.W)
}

// WeightChange is one delta resolved against the edge set as the batch
// has patched it so far: the pair's weight before and after the delta, -1
// where the pair is absent.
type WeightChange struct {
	U, V       NodeID
	OldW, NewW int64
}

// ResolveDeltas is the one place a delta batch is validated and its edge
// rules applied. It walks the batch in order against g and returns one
// WeightChange per delta that changes the edge set; a keep-min no-op (an
// insert at or above the pair's current weight, a reweight to it) yields
// none, so a pair's first change carries its weight on g as OldW.
//
// Validation is strict: self-loops, out-of-range endpoints, and negative
// weights are rejected, as are deletes/reweights of edges that do not exist
// at that point in the batch (insert-then-delete within one batch is fine).
// The error names the first invalid delta in batch order.
func ResolveDeltas(g *Graph, deltas []EdgeDelta) ([]WeightChange, error) {
	cur := make(map[uint64]int64, len(deltas)) // pairs the batch changed
	out := make([]WeightChange, 0, len(deltas))
	for i, d := range deltas {
		if d.U == d.V {
			return nil, fmt.Errorf("graph: delta %d (%s): self-loop at node %d", i, d, d.U)
		}
		if d.U < 0 || int(d.U) >= g.n || d.V < 0 || int(d.V) >= g.n {
			return nil, fmt.Errorf("graph: delta %d (%s): endpoints out of range [0,%d)", i, d, g.n)
		}
		key := PairKey(d.U, d.V)
		old, seen := cur[key]
		if !seen {
			old = -1
			if w, ok := g.Weight(d.U, d.V); ok {
				old = w
			}
		}
		neww := old
		switch d.Op {
		case DeltaInsert:
			if d.W < 0 {
				return nil, fmt.Errorf("graph: delta %d (%s): negative weight", i, d)
			}
			if old < 0 || d.W < old {
				neww = d.W
			}
		case DeltaDelete:
			if old < 0 {
				return nil, fmt.Errorf("graph: delta %d (%s): edge does not exist", i, d)
			}
			neww = -1
		case DeltaReweight:
			if d.W < 0 {
				return nil, fmt.Errorf("graph: delta %d (%s): negative weight", i, d)
			}
			if old < 0 {
				return nil, fmt.Errorf("graph: delta %d (%s): edge does not exist", i, d)
			}
			neww = d.W
		default:
			return nil, fmt.Errorf("graph: delta %d: unknown op %d", i, uint8(d.Op))
		}
		if neww != old {
			cur[key] = neww
			out = append(out, WeightChange{U: d.U, V: d.V, OldW: old, NewW: neww})
		}
	}
	return out, nil
}

// ApplyDeltas returns a new graph equal to g with the deltas applied in
// order, leaving g untouched: ResolveDeltas, then ApplyChanges. The node
// count is fixed; only edges change.
func ApplyDeltas(g *Graph, deltas []EdgeDelta) (*Graph, error) {
	changes, err := ResolveDeltas(g, deltas)
	if err != nil {
		return nil, err
	}
	return ApplyChanges(g, changes), nil
}

// ApplyChanges returns a new graph equal to g with changes — the output of
// ResolveDeltas on g — applied, leaving g untouched. The result is rebuilt
// from the patched edge set in canonical order (sorted by endpoints), so —
// like every generator- or inline-built graph — it is a pure function of
// its edge set: EdgeIDs are reassigned densely and two delta paths reaching
// the same edge set produce identical graphs, which is what lets the
// serving layer content-address patched revisions.
//
// Cost is O(n + m + k log k) for k changes: the changes are sorted by pair
// (the last change to a pair wins), merged with g's edges in pair order,
// and the merged list is handed to the builder in pair order.
func ApplyChanges(g *Graph, changes []WeightChange) *Graph {
	cs := slices.Clone(changes) // the caller's batch keeps its order
	slices.SortStableFunc(cs, func(a, b WeightChange) int { return cmp.Compare(PairKey(a.U, a.V), PairKey(b.U, b.V)) })
	base := g.PairEdges()
	out := make([]EdgeTriple, 0, len(base)+len(cs))
	i := 0
	for j, c := range cs {
		key := PairKey(c.U, c.V)
		if j+1 < len(cs) && PairKey(cs[j+1].U, cs[j+1].V) == key {
			continue
		}
		for i < len(base) && PairKey(base[i].U, base[i].V) < key {
			out = append(out, base[i])
			i++
		}
		if i < len(base) && PairKey(base[i].U, base[i].V) == key {
			i++
		}
		if c.NewW >= 0 {
			out = append(out, EdgeTriple{U: NodeID(key >> 32), V: NodeID(uint32(key)), W: c.NewW})
		}
	}
	return build(g.n, append(out, base[i:]...))
}

// PairEdges lists g's edges sorted by (U, V), reading each edge off its
// smaller endpoint's adjacency list. Sorted adjacency — every generator's
// and builder's output — yields pair order directly; anything else is
// sorted once. The slice is freshly allocated.
func (g *Graph) PairEdges() []EdgeTriple {
	out := make([]EdgeTriple, 0, g.m)
	sorted := true
	for u, hs := range g.adj {
		prev := NodeID(u)
		for _, h := range hs {
			if h.To <= NodeID(u) {
				continue
			}
			if h.To < prev {
				sorted = false
			}
			prev = h.To
			out = append(out, EdgeTriple{U: NodeID(u), V: h.To, W: h.W, ID: h.ID})
		}
	}
	if !sorted {
		slices.SortFunc(out, func(a, b EdgeTriple) int { return cmp.Compare(PairKey(a.U, a.V), PairKey(b.U, b.V)) })
	}
	return out
}
