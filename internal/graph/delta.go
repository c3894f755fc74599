package graph

import (
	"fmt"
	"sort"
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

// touched is the state of one pair the batch touches: where it sits in
// the base edge list (-1 if absent there) and its weight and existence so
// far in the batch.
type touched struct {
	key    uint64
	pos    int
	w      int64
	exists bool
}

// ApplyDeltas returns a new graph equal to g with the deltas applied in
// order, leaving g untouched. The node count is fixed; only edges change.
// The result is rebuilt from the patched edge set in canonical order
// (sorted by endpoints), so — like every generator- or inline-built graph —
// it is a pure function of its edge set: EdgeIDs are reassigned densely and
// two delta paths reaching the same edge set produce identical graphs,
// which is what lets the serving layer content-address patched revisions.
//
// Validation is strict: self-loops, out-of-range endpoints, and negative
// weights are rejected, as are deletes/reweights of edges that do not exist
// at that point in the batch (insert-then-delete within one batch is fine).
//
// Cost is O(n + m + k log m) for k deltas: g's edges are read in pair order
// off its adjacency lists (sorted by one sort only when they are not), each
// delta finds its pair by binary search plus a k-entry overlay, and the
// patched list is handed to the builder in pair order.
func ApplyDeltas(g *Graph, deltas []EdgeDelta) (*Graph, error) {
	base := pairOrderEdges(g)
	over := make(map[uint64]touched, len(deltas))
	for i, d := range deltas {
		if d.U == d.V {
			return nil, fmt.Errorf("graph: delta %d (%s): self-loop at node %d", i, d, d.U)
		}
		if d.U < 0 || int(d.U) >= g.n || d.V < 0 || int(d.V) >= g.n {
			return nil, fmt.Errorf("graph: delta %d (%s): endpoints out of range [0,%d)", i, d, g.n)
		}
		key := pairKey(d.U, d.V)
		t, seen := over[key]
		if !seen {
			t = touched{key: key, pos: -1}
			if p := searchPair(base, key); p < len(base) && pairKey(base[p].U, base[p].V) == key {
				t.pos, t.w, t.exists = p, base[p].W, true
			}
		}
		switch d.Op {
		case DeltaInsert:
			if d.W < 0 {
				return nil, fmt.Errorf("graph: delta %d (%s): negative weight", i, d)
			}
			if !t.exists || d.W < t.w {
				t.w, t.exists = d.W, true
			}
		case DeltaDelete:
			if !t.exists {
				return nil, fmt.Errorf("graph: delta %d (%s): edge does not exist", i, d)
			}
			t.exists = false
		case DeltaReweight:
			if d.W < 0 {
				return nil, fmt.Errorf("graph: delta %d (%s): negative weight", i, d)
			}
			if !t.exists {
				return nil, fmt.Errorf("graph: delta %d (%s): edge does not exist", i, d)
			}
			t.w = d.W
		default:
			return nil, fmt.Errorf("graph: delta %d: unknown op %d", i, uint8(d.Op))
		}
		over[key] = t
	}

	// Reweights land in place; deletes and inserts need a merge.
	var ins []touched
	deleted := make(map[int]bool)
	for _, t := range over {
		switch {
		case t.pos >= 0 && t.exists:
			base[t.pos].W = t.w
		case t.pos >= 0:
			deleted[t.pos] = true
		case t.exists:
			ins = append(ins, t)
		}
	}
	if len(ins) == 0 && len(deleted) == 0 {
		return build(g.n, base), nil
	}
	sort.Slice(ins, func(a, b int) bool { return ins[a].key < ins[b].key })
	merged := make([]EdgeTriple, 0, len(base)-len(deleted)+len(ins))
	for p, e := range base {
		if deleted[p] {
			continue
		}
		for len(ins) > 0 && ins[0].key < pairKey(e.U, e.V) {
			merged = append(merged, tripleOf(ins[0]))
			ins = ins[1:]
		}
		merged = append(merged, e)
	}
	for _, t := range ins {
		merged = append(merged, tripleOf(t))
	}
	return build(g.n, merged), nil
}

// pairOrderEdges lists g's edges sorted by (U, V), reading each edge off
// its smaller endpoint's adjacency list. Sorted adjacency — every
// generator's and builder's output — yields pair order directly; anything
// else is sorted once.
func pairOrderEdges(g *Graph) []EdgeTriple {
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
			out = append(out, EdgeTriple{U: NodeID(u), V: h.To, W: h.W})
		}
	}
	if !sorted {
		sort.Slice(out, func(a, b int) bool { return pairKey(out[a].U, out[a].V) < pairKey(out[b].U, out[b].V) })
	}
	return out
}

// searchPair returns the first position in the pair-ordered es whose pair
// key is at least key.
func searchPair(es []EdgeTriple, key uint64) int {
	return sort.Search(len(es), func(i int) bool { return pairKey(es[i].U, es[i].V) >= key })
}

func tripleOf(t touched) EdgeTriple {
	return EdgeTriple{U: NodeID(t.key >> 32), V: NodeID(uint32(t.key)), W: t.w}
}
