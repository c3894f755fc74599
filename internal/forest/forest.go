// Package forest implements the deterministic distributed maximal spanning
// forest used throughout the paper: Theorem 2.2 (Boruvka in CONGEST:
// O(n log n) time, polylog congestion) and Theorem 3.1 (the low-energy
// adaptation: Õ(n) time, polylog energy). One code path serves both models
// because every step is statically scheduled.
//
// Structure of a phase (component count with outgoing edges shrinks by a
// constant factor per phase):
//
//  1. Every participant exchanges its component ID with its eligible
//     neighbors (1 round, 2 messages per edge).
//  2. Each component finds its minimum-EdgeID outgoing edge with a
//     depth-indexed sweep up its component tree and distributes it with a
//     sweep down (2 awake rounds per node per sweep — Section 3.1.1).
//  3. The endpoint owning the chosen edge (the "chooser") notifies the
//     other endpoint, which registers an incoming bridge.
//  4. The chooser pseudo-forest (component -> chosen target) is properly
//     colored with <= 6 colors via 4 Cole–Vishkin iterations; each
//     iteration is one bridge exchange plus two tree sweeps.
//  5. Six merge sub-steps, one per color: a component of color c asks its
//     target through the bridge; the target replies OK (join: the target is
//     stationary this sub-step), BUSY (the target itself is attempting to
//     move right now), or SELF (the bridge closed a mutual pair that
//     already merged). On OK the satellite adopts the target's identity:
//     a marker sweep up the old tree records the path from the bridgehead
//     to the old root (these parent pointers flip), and a broadcast sweep
//     down rebases every member's depth, component ID, color, and
//     outgoing-flag. Because targets never move while absorbing, depths are
//     consistent; because colors are proper along chooser pointers, a
//     component whose color is smaller than its target's always succeeds,
//     which yields the 1/6-progress bound behind the phase budget.
//
// Energy per node is O(1) per phase section (every wake is one of: the
// exchange, two rounds of a sweep, or a bridge round), giving O(log n)
// total — within Theorem 3.1's O(log^2 n) budget.
package forest

import (
	"fmt"
	"math/bits"
	"slices"

	"dsssp/internal/graph"
	"dsssp/internal/proto"
)

// Params configures one forest construction. All participants must pass
// identical Tag, StartRound, and SizeBound.
type Params struct {
	// Tag is the base message tag; the construction uses Tag..Tag+12.
	Tag uint64
	// StartRound is the common round at which the construction begins; all
	// participants must be at or before it.
	StartRound int64
	// SizeBound is an upper bound on the size of any connected component of
	// the participant subgraph (>= 1). Budgets derive from it.
	SizeBound int64
	// Eligible restricts the construction to a subgraph (nil = all edges).
	// Both endpoints of an edge must agree on its eligibility.
	Eligible func(i int) bool
}

// Result is one node's view of its component after the construction.
type Result struct {
	// Tree is the rooted spanning tree of this node's component.
	Tree proto.Tree
	// CompID identifies the component (the leader's node ID = Tree.Root).
	CompID graph.NodeID
	// Size is the number of nodes in the component.
	Size int64
}

// Message tag offsets.
const (
	tagExch = iota
	tagMinUp
	tagMinDown
	tagChosen
	tagColor
	tagCVUp
	tagCVDown
	tagReq
	tagAck
	tagAdoptUp
	tagAdoptDown
	tagSizeUp
	tagSizeDown
)

// ack verdicts.
const (
	ackOK = iota + 1
	ackBusy
	ackSelf
)

const numColors = 6 // Cole–Vishkin final palette after cvIters iterations
const cvIters = 4

type minVal struct {
	Valid bool
	Edge  graph.EdgeID
}

type ackBody struct {
	Verdict int
	Comp    graph.NodeID
	Color   int64
	HasOut  bool
	Depth   int64
}

type markerBody struct {
	Hops   int64
	Adopt  ackBody
	UDepth int64
}

type adoptDownBody struct {
	Noop        bool
	Adopt       ackBody
	UDepth      int64
	ParentDepth int64
}

// Phases returns the phase budget for a given component size bound:
// at least a 1/6 fraction of active components merges per phase, so
// 4*log2(S)+2 phases suffice (log base 6/5 of S, rounded up generously).
func Phases(sizeBound int64) int64 {
	if sizeBound < 2 {
		return 1
	}
	lg := int64(bits.Len64(uint64(sizeBound - 1))) // ceil(log2 S)
	return 4*lg + 2
}

func phaseLen(s int64) int64 { return 22*s + 68 }

// Duration returns the total number of rounds a construction with the given
// SizeBound occupies; every participant returns from Build exactly
// Duration(SizeBound) rounds after StartRound.
func Duration(sizeBound int64) int64 {
	return Phases(sizeBound)*phaseLen(sizeBound) + 2*(sizeBound+2) + 2
}

// node is the per-node construction state.
type node struct {
	mb  *proto.Mailbox
	p   Params
	s   int64 // SizeBound
	deg int

	eligible []bool

	compID   graph.NodeID
	color    int64
	hasOut   bool
	parent   int   // nbIndex or -1
	children []int // sorted nbIndexes; doubles as the tree's Children
	depth    int64

	nbComp     []graph.NodeID // per edge, neighbor's component this phase
	chosenEdge int            // my adjacency index of my component's chosen edge, or -1
	incoming   []int          // edges on which a chooser registered this phase (reused)

	// adopt bookkeeping (per sub-step)
	pathChild int
	pathHops  int64
	marker    *markerBody
}

func (f *node) tag(off int) uint64 { return f.p.Tag + uint64(off) }

// tree returns the node's current tree view. Children aliases f.children:
// sweeps only read it, and the final Result outlives the construction.
func (f *node) tree() proto.Tree {
	return proto.Tree{InTree: true, Root: f.compID, Parent: f.parent, Children: f.children, Depth: f.depth}
}

// addChild inserts edge i into the sorted child set (a no-op if present).
func (f *node) addChild(i int) {
	if k, found := slices.BinarySearch(f.children, i); !found {
		f.children = slices.Insert(f.children, k, i)
	}
}

// removeChild deletes edge i from the sorted child set (a no-op if absent).
func (f *node) removeChild(i int) {
	if k, found := slices.BinarySearch(f.children, i); found {
		f.children = slices.Delete(f.children, k, k+1)
	}
}

// Build runs the construction. Only participants call it; each returns its
// Result at round StartRound + Duration(SizeBound).
func Build(mb *proto.Mailbox, p Params) Result {
	if p.SizeBound < 1 {
		panic("forest: SizeBound must be >= 1")
	}
	f := &node{
		mb:         mb,
		p:          p,
		s:          p.SizeBound,
		deg:        mb.C.Degree(),
		compID:     mb.C.ID(),
		color:      int64(mb.C.ID()),
		parent:     -1,
		chosenEdge: -1,
	}
	f.eligible = make([]bool, f.deg)
	for i := 0; i < f.deg; i++ {
		f.eligible[i] = p.Eligible == nil || p.Eligible(i)
	}
	f.nbComp = make([]graph.NodeID, f.deg)

	phases := Phases(f.s)
	for ph := int64(0); ph < phases; ph++ {
		f.phase(p.StartRound + ph*phaseLen(f.s))
	}

	// Final size agreement.
	fin := p.StartRound + phases*phaseLen(f.s)
	agg, isRoot := proto.SweepUp(mb, f.tree(), f.tag(tagSizeUp), fin, f.s, int64(1),
		func(a, b any) any { return a.(int64) + b.(int64) })
	var rv any
	if isRoot {
		rv = agg
	}
	size := proto.SweepDown(mb, f.tree(), f.tag(tagSizeDown), fin+f.s+2, rv, nil).(int64)
	mb.AdvanceTo(p.StartRound + Duration(f.s))
	return Result{Tree: f.tree(), CompID: f.compID, Size: size}
}

func (f *node) phase(r0 int64) {
	mb := f.mb
	s := f.s

	// Colors restart from the (component-wide unique) component ID: CV
	// properness needs distinct inputs, and last phase's 6-color palette
	// is not distinct across components.
	f.color = int64(f.compID)

	// (1) Component-ID exchange.
	mb.AdvanceTo(r0)
	for i := 0; i < f.deg; i++ {
		if f.eligible[i] {
			mb.Send(i, f.tag(tagExch), f.compID)
		}
	}
	mb.SleepUntil(r0 + 1)
	for i := range f.nbComp {
		f.nbComp[i] = -1
	}
	for _, m := range mb.Take(f.tag(tagExch)) {
		f.nbComp[m.NbIndex] = m.Body.(graph.NodeID)
	}

	// (2) Minimum outgoing edge via two sweeps.
	mine := minVal{}
	for i := 0; i < f.deg; i++ {
		if f.eligible[i] && f.nbComp[i] >= 0 && f.nbComp[i] != f.compID {
			id := mb.C.EdgeID(i)
			if !mine.Valid || id < mine.Edge {
				mine = minVal{Valid: true, Edge: id}
			}
		}
	}
	combineMin := func(a, b any) any {
		x, y := a.(minVal), b.(minVal)
		if !x.Valid {
			return y
		}
		if !y.Valid {
			return x
		}
		if y.Edge < x.Edge {
			return y
		}
		return x
	}
	agg, isRoot := proto.SweepUp(mb, f.tree(), f.tag(tagMinUp), r0+2, s, mine, combineMin)
	var rv any
	if isRoot {
		rv = agg
	}
	chosen := proto.SweepDown(mb, f.tree(), f.tag(tagMinDown), r0+s+4, rv, nil).(minVal)
	f.hasOut = chosen.Valid
	f.chosenEdge = -1
	if chosen.Valid {
		for i := 0; i < f.deg; i++ {
			if f.eligible[i] && f.nbComp[i] >= 0 && f.nbComp[i] != f.compID && mb.C.EdgeID(i) == chosen.Edge {
				f.chosenEdge = i
			}
		}
	}

	// (3) Choice notification.
	a3 := r0 + 2*s + 6
	f.incoming = f.incoming[:0]
	mb.AdvanceTo(a3)
	if f.chosenEdge >= 0 {
		mb.Send(f.chosenEdge, f.tag(tagChosen), struct{}{})
	}
	mb.SleepUntil(a3 + 1)
	for _, m := range mb.Take(f.tag(tagChosen)) {
		f.incoming = append(f.incoming, m.NbIndex)
	}

	// (4) Cole–Vishkin coloring of the chooser pseudo-forest.
	a4 := r0 + 2*s + 8
	for t := 0; t < cvIters; t++ {
		f.cvIter(a4 + int64(t)*(2*s+6))
	}
	if f.hasOut && f.color >= numColors {
		panic(fmt.Sprintf("forest: node %d: CV color %d out of palette", mb.C.ID(), f.color))
	}

	// (5) Merge sub-steps, one per color.
	a5 := a4 + cvIters*(2*s+6)
	for c := int64(0); c < numColors; c++ {
		f.subStep(c, a5+c*(2*s+6))
	}
}

// cvIter performs one Cole–Vishkin iteration starting at round b: targets
// send their component's current color over incoming bridges; the chooser
// computes the new color; two sweeps distribute it component-wide.
func (f *node) cvIter(b int64) {
	mb := f.mb
	s := f.s
	if len(f.incoming) > 0 || f.chosenEdge >= 0 {
		mb.AdvanceTo(b)
		for _, e := range f.incoming {
			mb.Send(e, f.tag(tagColor), f.color)
		}
		mb.SleepUntil(b + 1)
	}
	if !f.hasOut {
		// Static components keep their color; they never move, so their
		// palette membership is irrelevant (see package comment).
		mb.Take(f.tag(tagColor))
		return
	}
	var myNew any
	if f.chosenEdge >= 0 {
		msgs := mb.Take(f.tag(tagColor))
		var tColor int64 = -1
		for _, m := range msgs {
			if m.NbIndex == f.chosenEdge {
				tColor = m.Body.(int64)
			}
		}
		if tColor < 0 {
			panic(fmt.Sprintf("forest: node %d: missing target color on bridge", mb.C.ID()))
		}
		myNew = cvStep(f.color, tColor)
	}
	up, isRoot := proto.SweepUp(mb, f.tree(), f.tag(tagCVUp), b+2, s, myNew, pickNonNil)
	var rv any
	if isRoot {
		rv = up
	}
	f.color = proto.SweepDown(mb, f.tree(), f.tag(tagCVDown), b+s+4, rv, nil).(int64)
}

// cvStep maps (mine, target) to the next color. When the colors coincide
// (possible only against a static target, which never conflicts), any
// self-derived bit keeps properness along active pointers.
func cvStep(mine, target int64) int64 {
	if mine == target {
		return mine & 1
	}
	i := int64(bits.TrailingZeros64(uint64(mine ^ target)))
	return 2*i + ((mine >> i) & 1)
}

func pickNonNil(a, b any) any {
	if a == nil {
		return b
	}
	return a
}

// subStep executes merge sub-step c starting at round sc.
func (f *node) subStep(c, sc int64) {
	mb := f.mb
	s := f.s
	attempting := f.hasOut && f.color == c
	chooserNow := attempting && f.chosenEdge >= 0

	if chooserNow || len(f.incoming) > 0 {
		mb.AdvanceTo(sc)
		if chooserNow {
			mb.Send(f.chosenEdge, f.tag(tagReq), f.compID)
		}
		mb.SleepUntil(sc + 1)
		for _, m := range mb.Take(f.tag(tagReq)) {
			switch {
			case m.Body.(graph.NodeID) == f.compID:
				mb.Send(m.NbIndex, f.tag(tagAck), ackBody{Verdict: ackSelf})
			case f.hasOut && f.color == c:
				mb.Send(m.NbIndex, f.tag(tagAck), ackBody{Verdict: ackBusy})
			default:
				mb.Send(m.NbIndex, f.tag(tagAck), ackBody{
					Verdict: ackOK, Comp: f.compID, Color: f.color, HasOut: f.hasOut, Depth: f.depth,
				})
				f.addChild(m.NbIndex)
			}
		}
	}
	if !attempting {
		return
	}

	// Adopt sweep A (marker up the old tree, old-depth schedule).
	f.marker = nil
	f.pathChild = -1
	f.pathHops = 0
	upStart := sc + 2
	sendRound := upStart + s - f.depth
	if len(f.children) > 0 {
		mb.AdvanceTo(sendRound - 1)
		mb.SleepUntil(sendRound)
	} else {
		mb.AdvanceTo(sendRound)
	}
	if chooserNow {
		// The chooser is awake at sc+1, so the ACK (sent in round sc+1) is
		// in the mailbox by now.
		for _, m := range mb.Take(f.tag(tagAck)) {
			ack := m.Body.(ackBody)
			if ack.Verdict == ackOK {
				f.marker = &markerBody{Hops: 0, Adopt: ack, UDepth: ack.Depth + 1}
			}
		}
	}
	for _, m := range mb.Take(f.tag(tagAdoptUp)) {
		mk := m.Body.(markerBody)
		f.pathChild = m.NbIndex
		f.pathHops = mk.Hops
		f.marker = &markerBody{Hops: mk.Hops, Adopt: mk.Adopt, UDepth: mk.UDepth}
	}
	if f.marker != nil && f.parent >= 0 {
		mb.Send(f.parent, f.tag(tagAdoptUp), markerBody{
			Hops: f.marker.Hops + 1, Adopt: f.marker.Adopt, UDepth: f.marker.UDepth,
		})
	}

	// Adopt sweep B (broadcast down the old tree, old-depth schedule).
	dwStart := sc + s + 3
	var body adoptDownBody
	if f.parent >= 0 {
		recvRound := dwStart + f.depth - 1
		mb.AdvanceTo(recvRound)
		mb.SleepUntil(recvRound + 1)
		msgs := mb.Take(f.tag(tagAdoptDown))
		if len(msgs) == 0 {
			panic(fmt.Sprintf("forest: node %d: missing adopt broadcast", mb.C.ID()))
		}
		body = msgs[0].Body.(adoptDownBody)
	} else {
		mb.AdvanceTo(dwStart)
		if f.marker == nil {
			body = adoptDownBody{Noop: true}
		} else {
			body = adoptDownBody{Adopt: f.marker.Adopt, UDepth: f.marker.UDepth}
		}
	}
	if body.Noop {
		for _, ch := range f.children {
			mb.Send(ch, f.tag(tagAdoptDown), body)
		}
		return
	}
	onPath := f.pathChild >= 0 || (f.marker != nil && f.pathChild < 0 && chooserNow)
	var newDepth int64
	if onPath {
		newDepth = body.UDepth + f.pathHops
	} else {
		newDepth = body.ParentDepth + 1
	}
	fwd := body
	fwd.ParentDepth = newDepth
	for _, ch := range f.children {
		mb.Send(ch, f.tag(tagAdoptDown), fwd)
	}
	// Apply the move: flip the path, adopt identity.
	oldParent := f.parent
	switch {
	case chooserNow && f.marker != nil:
		f.parent = f.chosenEdge
		if oldParent >= 0 {
			f.addChild(oldParent)
		}
	case f.pathChild >= 0:
		f.parent = f.pathChild
		f.removeChild(f.pathChild)
		if oldParent >= 0 {
			f.addChild(oldParent)
		}
	}
	f.compID = body.Adopt.Comp
	f.color = body.Adopt.Color
	f.hasOut = body.Adopt.HasOut
	f.depth = newDepth
	f.chosenEdge = -1
}
