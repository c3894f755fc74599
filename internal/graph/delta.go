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

// Lowered reports whether c is an insert or a downward reweight: the pair
// is present after it, and was absent or heavier before.
func (c WeightChange) Lowered() bool { return c.NewW >= 0 && (c.OldW < 0 || c.NewW < c.OldW) }

// Raised reports whether c is a delete or an upward reweight: the pair was
// present before it, and is absent or heavier after.
func (c WeightChange) Raised() bool { return c.OldW >= 0 && (c.NewW < 0 || c.NewW > c.OldW) }

// NetChanges nets a run of chained weight changes — one or more batches of
// ResolveDeltas output, in order — into one change per pair: the pair's
// first OldW and last NewW, with U < V. Pairs whose weight ends where it
// started drop out. The result is sorted by pair and freshly allocated; it
// is nil only for an empty run.
func NetChanges(changes []WeightChange) []WeightChange {
	if len(changes) == 0 {
		return nil
	}
	cs := make([]WeightChange, len(changes))
	for i, c := range changes {
		if c.U > c.V {
			c.U, c.V = c.V, c.U
		}
		cs[i] = c
	}
	slices.SortStableFunc(cs, func(a, b WeightChange) int { return cmp.Compare(PairKey(a.U, a.V), PairKey(b.U, b.V)) })
	out := cs[:0]
	for i := 0; i < len(cs); {
		j := i + 1
		for j < len(cs) && cs[j].U == cs[i].U && cs[j].V == cs[i].V {
			j++
		}
		if c := (WeightChange{U: cs[i].U, V: cs[i].V, OldW: cs[i].OldW, NewW: cs[j-1].NewW}); c.OldW != c.NewW {
			out = append(out, c)
		}
		i = j
	}
	return out
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
// ResolveDeltas on g — applied, leaving g untouched. Like every built graph
// the result is a pure function of its edge set: EdgeIDs are the pair
// ranks and two delta paths reaching the same edge set produce identical
// graphs, which is what lets the serving layer content-address patched
// revisions.
//
// A batch that only reweights pairs of a canonical g moves no pair rank
// and no Rev port, so the result is built copy-on-write: it shares g's
// adjacency lists except the changed pairs' endpoint lists, which it
// copies. That costs O(n + Σ deg + k log k) for k changes on those
// endpoints — the n is the outer slice. Any other batch, or a g that
// is not canonical, rebuilds the graph from its patched edge list in
// O(n + m + k log k).
func ApplyChanges(g *Graph, changes []WeightChange) *Graph {
	net := NetChanges(changes)
	if ng := reweighted(g, net); ng != nil {
		return ng
	}
	return build(g.n, mergeNet(g.Edges(), net))
}

// reweighted is ApplyChanges' copy-on-write path: g with net, netted
// changes, applied, or nil when g is not canonical or a change is not a
// reweight of a pair g has.
func reweighted(g *Graph, net []WeightChange) *Graph {
	if !g.canonical || slices.ContainsFunc(net, func(c WeightChange) bool { return c.OldW < 0 || c.NewW < 0 }) {
		return nil
	}
	ng := &Graph{n: g.n, m: g.m, adj: slices.Clone(g.adj), canonical: true}
	for _, c := range net {
		i, found := slices.BinarySearchFunc(g.adj[c.U], c.V, func(h Half, v NodeID) int { return cmp.Compare(h.To, v) })
		if !found {
			return nil
		}
		for _, u := range [2]NodeID{c.U, c.V} {
			if &ng.adj[u][0] == &g.adj[u][0] { // still g's list
				ng.adj[u] = ownList(g.adj[u])
			}
		}
		ng.adj[c.U][i].W = c.NewW
		ng.adj[c.V][ng.adj[c.U][i].Rev].W = c.NewW
	}
	return ng
}

// MergeChanges returns edges, an edge list in pair order, with changes —
// chained weight changes on it, in order — applied, still in pair order.
// NetChanges sorts the changes by pair and the net ones are merged with
// the edges in O(m + k log k) for k changes. When no pair's weight moves
// it returns edges itself; otherwise a fresh slice, leaving edges
// untouched.
func MergeChanges(edges []EdgeTriple, changes []WeightChange) []EdgeTriple {
	return mergeNet(edges, NetChanges(changes))
}

// mergeNet is MergeChanges on changes NetChanges has netted.
func mergeNet(edges []EdgeTriple, net []WeightChange) []EdgeTriple {
	if len(net) == 0 {
		return edges
	}
	out := make([]EdgeTriple, 0, len(edges)+len(net))
	i := 0
	for _, c := range net {
		key := PairKey(c.U, c.V)
		for i < len(edges) && PairKey(edges[i].U, edges[i].V) < key {
			out = append(out, edges[i])
			i++
		}
		if i < len(edges) && PairKey(edges[i].U, edges[i].V) == key {
			i++
		}
		if c.NewW >= 0 {
			out = append(out, EdgeTriple{U: c.U, V: c.V, W: c.NewW})
		}
	}
	return append(out, edges[i:]...)
}
