// Package incr implements delta-aware incremental recomputation for the
// serving layer's registered graphs: given a batch of edge deltas and the
// cached per-source result traces of the pre-patch revision, it classifies
// each cached source as *untouched* — the deltas provably cannot change any
// distance or any shortest-path witness from that source, so the cached
// result is byte-identical to a from-scratch recompute on the patched
// graph — or *dirty*, in which case the source must be recomputed.
//
// The classification is the per-source structure-survival argument from
// Agarwal–Ramachandran–King–Pontecorvi's deterministic APSP: an edge update
// can only affect the sources whose shortest-path structure the edge
// participates in, and for everything else the per-source tree (and hence
// the distance vector) survives verbatim. Concretely, with dist the exact
// distance vector from a source:
//
//   - a weight *decrease* of {u,v} to w (including an insert, a decrease
//     from +Inf) is relevant iff dist[u]+w <= dist[v] or dist[v]+w <=
//     dist[u]: strict < can shorten a path; equality cannot change
//     distances but mints a new witness, which can change the
//     deterministic (min-ID witness) shortest-path tree — so both count
//     as dirty, keeping trees exact, not just distances;
//   - a weight *increase* of {u,v} from w (including a delete, an increase
//     to +Inf) is relevant iff the edge is tight at its old weight:
//     dist[u]+w == dist[v] or dist[v]+w == dist[u]. A slack edge lies on
//     no shortest path and witnesses nothing, so raising its weight is
//     invisible from this source. (Tightness cannot appear at the *new*
//     weight: dist already satisfies dist[v] <= dist[u]+w_old < dist[u]+w_new.)
//
// Within a batch the effects are tested in order against the same dist
// vector: if every prefix of effects is untouched, dist is still the exact
// distance vector of each intermediate graph, so the next test remains
// sound; the first dirty effect ends the argument (the source is dirty
// regardless of what follows).
package incr

import (
	"fmt"
	"slices"

	"dsssp/internal/graph"
)

// EffectKind classifies a delta's resolved direction.
type EffectKind uint8

// Effect kinds.
const (
	// EffectDecrease is an insert or a downward reweight; W is the new
	// effective weight.
	EffectDecrease EffectKind = iota + 1
	// EffectIncrease is a delete or an upward reweight; W is the old
	// weight (the one tightness is tested at).
	EffectIncrease
)

// Effect is one delta resolved against the pre-patch graph into the form
// the per-source test consumes. Resolution happens once per batch; the
// O(1)-per-effect test then runs once per cached source.
type Effect struct {
	U, V graph.NodeID
	Kind EffectKind
	// W is the new weight for a decrease, the old weight for an increase.
	W int64
}

// Effects resolves a delta batch against the pre-patch graph g into the
// per-source test form, dropping no-ops (inserting an edge that already
// exists at a lower-or-equal weight, reweighting to the current weight).
// It rejects exactly the batches graph.ApplyDeltas rejects, with the same
// error.
func Effects(g *graph.Graph, deltas []graph.EdgeDelta) ([]Effect, error) {
	changes, err := graph.ResolveDeltas(g, deltas)
	if err != nil {
		return nil, err
	}
	return EffectsOf(changes), nil
}

// EffectsOf maps resolved weight changes (graph.ResolveDeltas) to effects:
// an insert or a lowered weight is a decrease to the new weight; a delete
// or a raised weight is an increase from the old one.
func EffectsOf(changes []graph.WeightChange) []Effect {
	out := make([]Effect, len(changes))
	for i, c := range changes {
		out[i] = Effect{U: c.U, V: c.V, Kind: EffectIncrease, W: c.OldW}
		if c.NewW >= 0 && (c.OldW < 0 || c.NewW < c.OldW) {
			out[i] = Effect{U: c.U, V: c.V, Kind: EffectDecrease, W: c.NewW}
		}
	}
	return out
}

// SourceDirty reports whether the effect batch can change any distance or
// any shortest-path witness seen from the source whose exact distance
// vector is dist — the "tree-overlap test". False means the cached result
// (distances *and* the min-ID-witness tree) is byte-identical on the
// patched graph and may be served straight from cache.
func SourceDirty(effects []Effect, dist []int64) bool {
	for _, e := range effects {
		if EffectDirty(e, dist) {
			return true
		}
	}
	return false
}

// EffectDirty is SourceDirty for a single effect.
func EffectDirty(e Effect, dist []int64) bool {
	du, dv := dist[e.U], dist[e.V]
	switch e.Kind {
	case EffectDecrease:
		// Both endpoints unreachable: the new edge lives entirely outside
		// the source's reachable region and cannot shorten anything (and
		// the Inf+w sums below would be meaningless).
		if du == graph.Inf && dv == graph.Inf {
			return false
		}
		// One finite endpoint always dirties against an Inf endpoint
		// (du+e.W <= Inf), which the comparisons below get right as long
		// as the finite sums cannot overflow past Inf; weights are
		// validated non-negative and graph.Inf is 1<<62, so finite
		// distances (< Inf) plus a legal weight stay well below overflow
		// for every graph this repository can build.
		return minSum(du, e.W) <= dv || minSum(dv, e.W) <= du
	case EffectIncrease:
		if du == graph.Inf || dv == graph.Inf {
			// An edge with an unreachable endpoint cannot be tight; and if
			// exactly one endpoint were unreachable the cached dist would
			// contradict the edge's existence — conservatively untouched
			// either way, since nothing reachable runs through it.
			return false
		}
		return du+e.W == dv || dv+e.W == du
	default:
		panic(fmt.Sprintf("incr: unknown effect kind %d", uint8(e.Kind)))
	}
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
// the effect batch. traces maps source → its exact distance vector on the
// pre-patch graph; both returned slices are sorted for deterministic
// iteration downstream (cache migration, metrics, logs).
func DirtySources(effects []Effect, traces map[graph.NodeID][]int64) (dirty, untouched []graph.NodeID) {
	for s, dist := range traces {
		if SourceDirty(effects, dist) {
			dirty = append(dirty, s)
		} else {
			untouched = append(untouched, s)
		}
	}
	slices.Sort(dirty)
	slices.Sort(untouched)
	return dirty, untouched
}
