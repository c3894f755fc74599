// Package incr implements delta-aware incremental recomputation for the
// serving layer's registered graphs: given a batch of resolved edge weight
// changes (graph.WeightChange) and the cached per-source result traces of
// the pre-patch revision, it classifies each cached source as *untouched* —
// the changes provably cannot alter any distance or any shortest-path
// witness from that source, so the cached result is byte-identical to a
// from-scratch recompute on the patched graph — or *dirty*, in which case
// the source must be recomputed.
//
// The classification is the per-source structure-survival argument from
// Agarwal–Ramachandran–King–Pontecorvi's deterministic APSP: an edge update
// can only affect the sources whose shortest-path structure the edge
// participates in, and for everything else the per-source tree (and hence
// the distance vector) survives verbatim. Concretely, with dist the exact
// distance vector from a source:
//
//   - a *lowered* pair {u,v} at new weight w (including an insert, a
//     decrease from +Inf) is relevant iff dist[u]+w <= dist[v] or
//     dist[v]+w <= dist[u]: strict < can shorten a path; equality cannot
//     change distances but mints a new witness, which can change the
//     deterministic (min-ID witness) shortest-path tree — so both count
//     as dirty, keeping trees exact, not just distances;
//   - a *raised* pair {u,v} at old weight w (including a delete, an
//     increase to +Inf) is relevant iff the edge is tight at its old
//     weight: dist[u]+w == dist[v] or dist[v]+w == dist[u]. A slack edge
//     lies on no shortest path and witnesses nothing, so raising its weight
//     is invisible from this source. (Tightness cannot appear at the *new*
//     weight: dist already satisfies dist[v] <= dist[u]+w_old < dist[u]+w_new.)
//
// Within a batch the changes are tested in order against the same dist
// vector: if every prefix of changes is untouched, dist is still the exact
// distance vector of each intermediate graph, so the next test remains
// sound; the first dirty change ends the argument (the source is dirty
// regardless of what follows).
package incr

import (
	"slices"

	"dsssp/internal/graph"
)

// Effects resolves a delta batch against the pre-patch graph g.
//
// Deprecated: Effects stays only because the benchmark harness still
// calls it, and goes once a benchmark change calls graph.ResolveDeltas.
func Effects(g *graph.Graph, deltas []graph.EdgeDelta) ([]graph.WeightChange, error) {
	return graph.ResolveDeltas(g, deltas)
}

// SourceDirty reports whether the change batch can change any distance or
// any shortest-path witness seen from the source whose exact distance
// vector is dist — the "tree-overlap test". False means the cached result
// (distances *and* the min-ID-witness tree) is byte-identical on the
// patched graph and may be served straight from cache.
func SourceDirty(changes []graph.WeightChange, dist []int64) bool {
	for _, c := range changes {
		if ChangeDirty(c, dist) {
			return true
		}
	}
	return false
}

// ChangeDirty is SourceDirty for a single change: a lowered pair is tested
// at its new weight, any other at its old one.
func ChangeDirty(c graph.WeightChange, dist []int64) bool {
	du, dv := dist[c.U], dist[c.V]
	if c.Lowered() {
		// Both endpoints unreachable: the new edge lives entirely outside
		// the source's reachable region and cannot shorten anything (and
		// the Inf+w sums below would be meaningless).
		if du == graph.Inf && dv == graph.Inf {
			return false
		}
		// One finite endpoint always dirties against an Inf endpoint
		// (du+w <= Inf), which the comparisons below get right as long
		// as the finite sums cannot overflow past Inf; weights are
		// validated non-negative and graph.Inf is 1<<62, so finite
		// distances (< Inf) plus a legal weight stay well below overflow
		// for every graph this repository can build.
		return minSum(du, c.NewW) <= dv || minSum(dv, c.NewW) <= du
	}
	if du == graph.Inf || dv == graph.Inf {
		// An edge with an unreachable endpoint cannot be tight; and if
		// exactly one endpoint were unreachable the cached dist would
		// contradict the edge's existence — conservatively untouched
		// either way, since nothing reachable runs through it.
		return false
	}
	return du+c.OldW == dv || dv+c.OldW == du
}

// minSum is du+w saturating at graph.Inf so an unreachable endpoint never
// wraps past the sentinel.
func minSum(d, w int64) int64 {
	if d >= graph.Inf {
		return graph.Inf
	}
	return d + w
}

// DirtySources splits the traced sources into dirty and untouched under
// the change batch. traces maps source → its exact distance vector on the
// pre-patch graph; both returned slices are sorted for deterministic
// iteration downstream (metrics, logs).
func DirtySources(changes []graph.WeightChange, traces map[graph.NodeID][]int64) (dirty, untouched []graph.NodeID) {
	for s, dist := range traces {
		if SourceDirty(changes, dist) {
			dirty = append(dirty, s)
		} else {
			untouched = append(untouched, s)
		}
	}
	slices.Sort(dirty)
	slices.Sort(untouched)
	return dirty, untouched
}
