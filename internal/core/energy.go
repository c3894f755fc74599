// The sleeping-model parts of the CSSP phase pipeline — Theorem 3.15 and
// the headline Theorem 1.1: exact SSSP with Õ(n) time and polylogarithmic
// energy per node. The pipeline (pipeline.go) is shared with the CONGEST
// model; its cut and barrier stages branch to the sleeping-model forms:
//
//   - the approximate cutter runs as a thresholded sleeping-model BFS
//     (package energybfs) over bfs.Cut's rounded-weight metric, on a
//     layered sparse cover built for this subproblem's participant
//     component (the paper rebuilds covers inside each recursion call via
//     Theorem 3.14; here the covers come from the decomp builder as an
//     installed oracle — the documented substitution in DESIGN.md — while
//     every message of the cover *usage* stays in-model);
//   - the component barriers use count-based periodic tree sweeps
//     (Section 3.1.1) so waiting costs O(1) awake rounds per window;
//   - the spanning forest (package forest) is already model-agnostic
//     (Theorem 3.1).
package core

import (
	"fmt"
	"sync"

	"dsssp/internal/decomp"
	"dsssp/internal/forest"
	"dsssp/internal/graph"
	"dsssp/internal/proto"
	"dsssp/internal/simnet"
)

// coverProvider hands each recursion call the layered sparse cover for its
// component, built lazily over the registered participant set. It stands in
// for the in-model construction of Theorem 3.12/3.14 (see DESIGN.md).
type coverProvider struct {
	g *graph.Graph

	mu         sync.Mutex
	registered map[uint64]map[graph.NodeID]bool
	covers     map[coverKey]*decomp.Cover
}

type coverKey struct {
	path uint64
	comp graph.NodeID
}

func newCoverProvider(g *graph.Graph) *coverProvider {
	return &coverProvider{
		g:          g,
		registered: make(map[uint64]map[graph.NodeID]bool),
		covers:     make(map[coverKey]*decomp.Cover),
	}
}

// register declares that v participates in the call at the given path.
func (cp *coverProvider) register(path uint64, v graph.NodeID) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.registered[path] == nil {
		cp.registered[path] = make(map[graph.NodeID]bool)
	}
	cp.registered[path][v] = true
}

// get returns the cover of the component (identified by its forest leader)
// containing member, under the given metric, covering maxDist. All members
// of one component receive the identical cover.
func (cp *coverProvider) get(path uint64, comp, member graph.NodeID, weight decomp.WeightFn, maxDist int64) *decomp.Cover {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	key := coverKey{path, comp}
	if cv, ok := cp.covers[key]; ok {
		return cv
	}
	reg := cp.registered[path]
	// Component of member within the registered participant subgraph.
	participants := make([]bool, cp.g.N())
	stack := []graph.NodeID{member}
	participants[member] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range cp.g.Adj(u) {
			if reg[h.To] && !participants[h.To] {
				participants[h.To] = true
				stack = append(stack, h.To)
			}
		}
	}
	cv, err := decomp.Build(cp.g, participants, weight, maxDist)
	if err != nil {
		panic(fmt.Sprintf("core: cover build failed for path %d: %v", path, err))
	}
	cp.covers[key] = cv
	return cv
}

// cutterTag gives each call's energy cutter a disjoint high tag range
// (cluster sweep tags fan out below it).
func cutterTag(path uint64) uint64 { return (1 << 62) + path*(1<<21) }

// energyBarrier is the sleeping-model component barrier: windows of
// count-based tree sweeps anchored at a common round, on the rounds of
// proto.UpSlot and proto.DownSlot; the root announces a common start once
// the whole component (size known) has checked in. Returns that start
// round, with the node advanced to it. Its folds are its own, not
// proto.UpAct/DownAct: they drop stale windows' messages and tolerate
// missing ones, where DownAct panics.
func energyBarrier(mb *proto.Mailbox, t proto.Tree, tag uint64, size, anchor int64) int64 {
	// Window period: long enough that waiting for a sibling's recursion
	// costs few wakeups (the dominant per-call cost is the forest budget),
	// yet one sweep cycle (2*size+6 rounds) always fits.
	p := 2*size + 6
	if alt := forest.Duration(size) / 4; alt > p {
		p = alt
	}
	// Messages are stamped with the window index: a node inside its child
	// recursion can coincidentally be awake when a barrier message passes
	// by, buffering it; un-stamped stale messages would corrupt later
	// windows (counts double, broadcasts report old "keep waiting"s).
	type stamped struct {
		K int64
		V int64
	}
	for k := (mb.Round() - anchor) / p; ; k++ {
		w := anchor + k*p
		if w <= mb.Round() {
			continue
		}
		// Count sweep up (tolerant: absent subtrees contribute 0).
		mb.Reach(proto.UpSlot(mb, t, w, size))
		count := int64(1)
		for _, m := range mb.Take(tag) {
			if sm := m.Body.(stamped); sm.K == k {
				count += sm.V
			}
		}
		if t.Parent >= 0 {
			mb.Send(t.Parent, tag, stamped{k, count})
		}
		// Tolerant broadcast sweep down.
		mb.Reach(proto.DownSlot(t, w+size+2))
		start := int64(-1)
		if t.Parent < 0 {
			if count == size {
				start = w + 2*p
			}
		} else {
			for _, m := range mb.Take(tag + 1) {
				if sm := m.Body.(stamped); sm.K == k {
					start = sm.V
				}
			}
		}
		for _, ch := range t.Children {
			mb.Send(ch, tag+1, stamped{k, start})
		}
		if start >= 0 {
			mb.AdvanceTo(start)
			return start
		}
	}
}

// RunEnergyCSSP computes exact closest-source distances in the sleeping
// model (Theorem 3.15): Õ(n) rounds and polylogarithmic awake rounds per
// node (energy). Zero weights are handled by the same scaling as RunCSSP.
func RunEnergyCSSP(g *graph.Graph, sources map[graph.NodeID]int64, opts Options) ([]int64, Stats, simnet.Metrics, error) {
	d, st, met, _, err := run(g, sources, opts, simnet.Sleeping, false)
	return d, st, met, err
}

// RunEnergySSSP is the single-source specialization of Theorem 1.1.
func RunEnergySSSP(g *graph.Graph, source graph.NodeID, opts Options) ([]int64, Stats, simnet.Metrics, error) {
	return RunEnergyCSSP(g, map[graph.NodeID]int64{source: 0}, opts)
}
