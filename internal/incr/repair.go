package incr

import (
	"time"

	"dsssp/internal/graph"
)

// This file is the affected-region repair engine: given a source's
// remembered exact distance vector and min-ID witness parent tree (a
// Trace) plus the net per-edge weight transitions since the trace was
// exact (graph.NetChanges), it recomputes exactly the region the
// transitions can reach — lowered pairs seed a priority-queue relaxation
// from their improved endpoints; raised pairs first carve out the subtree
// of vertices whose witness path ran through a tightened-away edge, then
// re-relax the cut from its boundary — and re-derives witness parents only where the
// witness predicate could have flipped. The arithmetic is the same
// Inf-saturating arithmetic and the tie-break the same min-ID rule as the
// full algorithm, so the repaired distance vector and parent tree are
// byte-identical to a from-scratch rerun (the differential fuzz suite is
// the acceptance anchor). This is the batch form of the
// Ramalingam–Reps-style dynamic SSSP update, applied to the per-source
// structure Agarwal–Ramachandran–King–Pontecorvi's deterministic APSP
// identifies as soundly reusable.

// Trace is one source's remembered per-source structure: the exact
// distance vector and the deterministic min-ID witness parent tree on the
// graph the trace was computed for. Both slices are treated as immutable
// by Repair (it copies before writing).
type Trace struct {
	Dist   []int64
	Parent []graph.NodeID
}

// NetChange is a net weight transition.
//
// Deprecated: NetChange stays only because the benchmark harness still
// names it, and goes once a benchmark change names graph.WeightChange.
type NetChange = graph.WeightChange

// RepairResult is a successful repair: fresh (caller-owned) exact
// distance and parent slices for the patched graph, plus the size of the
// affected region for observability.
type RepairResult struct {
	Dist   []int64
	Parent []graph.NodeID
	// Affected counts vertices whose label was rebuilt: orphaned by a
	// tightened-away witness edge, or relabeled by the re-relaxation.
	// The repair's work is proportional to this region (plus the degree
	// sum over it), not to n.
	Affected int
	// Orphaned counts the subset carved out of the old witness tree.
	Orphaned int
	// PhaseNS is the wall time spent in each repair phase, indexed by
	// RepairPhaseNames — the per-query breakdown the serving layer turns
	// into repair-phase spans and the dsssp_repair_phase_seconds
	// histogram. All zero for the empty-changes fast path, which runs no
	// phase at all.
	PhaseNS [4]int64
}

// RepairPhaseNames names the indices of RepairResult.PhaseNS: the four
// phases of the repair pipeline, in execution order.
var RepairPhaseNames = [4]string{"carve", "seed", "settle", "witness"}

// Repair rebuilds the exact distance vector and min-ID witness tree of
// source on g — the patched graph — from a trace that was exact before
// the changes, touching only the affected region. changes are the net
// per-pair transitions (graph.NetChanges) between the trace's graph and g;
// one that nets to no change is tolerated as a no-op. The region is never
// bounded: a repair that rebuilds every label still costs a fraction of a
// simulation. ok=false is returned only for a malformed trace (wrong
// lengths) or an out-of-range source — never a wrong answer.
//
// maxAffected is ignored. It stays only because the benchmark harness
// still passes it, and goes once a benchmark change stops passing it.
//
// With an empty change set this degenerates to serving the trace itself
// (Affected == 0), which is how warm-started and just-promoted traces
// answer in O(n) without a simulation.
func Repair(g *graph.Graph, source graph.NodeID, tr Trace, changes []graph.WeightChange, maxAffected int) (*RepairResult, bool) {
	n := g.N()
	if len(tr.Dist) != n || len(tr.Parent) != n || source < 0 || int(source) >= n {
		return nil, false
	}
	dist := append([]int64(nil), tr.Dist...)
	parent := append([]graph.NodeID(nil), tr.Parent...)
	if len(changes) == 0 {
		return &RepairResult{Dist: dist, Parent: parent}, true
	}

	// Per-phase wall clocks for the repair breakdown (RepairResult.PhaseNS).
	var phaseNS [4]int64
	phaseStart := time.Now()
	markPhase := func(i int) {
		now := time.Now()
		phaseNS[i] = now.Sub(phaseStart).Nanoseconds()
		phaseStart = now
	}

	// Phase 1 — carve: a witness-tree edge whose weight rose (or which was
	// deleted) no longer witnesses its child, so the child and its whole
	// old-tree subtree lose their labels. Everything outside the carved set
	// keeps its old label as a valid upper bound: its old tree path avoids
	// every increased edge (an increased tree edge would have orphaned the
	// downstream part), and decreased edges only make paths shorter.
	touched := make([]bool, n) // vertex is in the affected region
	var region []graph.NodeID  // the touched vertices, in the order touched
	touch := func(v graph.NodeID) {
		if !touched[v] {
			touched[v] = true
			region = append(region, v)
		}
	}

	for _, ch := range changes {
		if !ch.Raised() {
			continue
		}
		if tr.Parent[ch.V] == ch.U {
			touch(ch.V)
		}
		if tr.Parent[ch.U] == ch.V {
			touch(ch.U)
		}
	}
	// The carve: so far the region holds only orphans. An orphan's old-tree
	// children are its neighbours in g whose old parent it is; a child
	// whose tree edge g lacks had it deleted, and is a seed already.
	for k := 0; k < len(region); k++ {
		v := region[k]
		dist[v] = graph.Inf
		for _, h := range g.Adj(v) {
			if tr.Parent[h.To] == v {
				touch(h.To)
			}
		}
	}
	orphaned := len(region)

	markPhase(0)

	// Phase 2 — seed the heap. Orphans take their best non-orphan boundary
	// offer; net decreases relax both directions at the current labels.
	// Every later improvement of a seed's donor re-relaxes the edge when
	// the donor pops, so stale offers are harmless upper bounds.
	var pq graph.DistHeap
	relax := func(from, to graph.NodeID, w int64) {
		df := dist[from]
		if df == graph.Inf {
			return
		}
		if nd := satSum(df, w); nd < dist[to] {
			dist[to] = nd
			touch(to)
			pq.Push(to, nd)
		}
	}
	for _, v := range region[:orphaned] {
		best := graph.Inf
		for _, h := range g.Adj(v) {
			// Fellow orphans sit at Inf right now and are excluded by the
			// finiteness check; their eventual labels reach v through the
			// heap when they pop.
			if d := dist[h.To]; d < graph.Inf {
				if c := satSum(d, h.W); c < best {
					best = c
				}
			}
		}
		if best < graph.Inf {
			dist[v] = best
			pq.Push(v, best)
		}
	}
	for _, ch := range changes {
		if !ch.Lowered() {
			continue
		}
		relax(ch.U, ch.V, ch.NewW)
		relax(ch.V, ch.U, ch.NewW)
	}
	markPhase(1)

	// Phase 3 — Dijkstra over the affected frontier, lazy deletion,
	// saturating sums: identical discipline to the reference algorithm, so
	// the settled labels are the exact distances on g.
	for len(pq) > 0 {
		top := pq.Pop()
		if top.D > dist[top.V] {
			continue
		}
		for _, h := range g.Adj(top.V) {
			relax(top.V, h.To, h.W)
		}
	}

	markPhase(2)

	// Phase 4 — parents. The witness predicate at v (∃ neighbor u:
	// dist[u]+w(u,v) == dist[v], min ID wins) can flip only where an input
	// changed: v's own label, a neighbor's label, or an incident edge.
	// Everything else keeps its old parent verbatim, so only the batch's
	// endpoints, the region and the neighbours of every vertex whose label
	// moved are visited.
	rederived := make([]bool, n)
	rederive := func(v graph.NodeID) {
		switch {
		case rederived[v]:
		case v == source:
			parent[v] = -1
		default:
			parent[v] = graph.WitnessParent(g, v, dist)
		}
		rederived[v] = true
	}
	for _, ch := range changes {
		rederive(ch.U)
		rederive(ch.V)
	}
	for _, v := range region {
		rederive(v)
		if dist[v] == tr.Dist[v] {
			continue
		}
		for _, h := range g.Adj(v) {
			rederive(h.To)
		}
	}
	markPhase(3)
	return &RepairResult{Dist: dist, Parent: parent, Affected: len(region), Orphaned: orphaned, PhaseNS: phaseNS}, true
}

// satSum is d+w saturating at graph.Inf (shared semantics with minSum,
// spelled for a known-finite d in the hot loop).
func satSum(d, w int64) int64 {
	s := d + w
	if s >= graph.Inf || s < 0 {
		return graph.Inf
	}
	return s
}
