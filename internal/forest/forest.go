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
//
// Because every wake is statically scheduled, the construction runs as an
// engine-driven step machine (simnet.Ctx.Drive): a per-node cursor over the
// sections above, which the engine calls directly at each wake instead of
// switching to the node's coroutine. The machine keeps every wake, every
// send and its order; only the coroutine switch per wake is gone. The
// sweeps follow proto's schedule (proto.UpSlot, proto.DownSlot), the one
// the coroutine helpers proto.SweepUp/SweepDown use.
package forest

import (
	"fmt"
	"math/bits"
	"slices"

	"dsssp/internal/graph"
	"dsssp/internal/proto"
	"dsssp/internal/simnet"
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
	// CompID identifies the component (the leader's node ID).
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

// node is the per-node construction state: the tree view the phases
// build, and the cursor of the step machine that runs them. Small fields
// are grouped so the struct (one allocation per Build) stays compact.
type node struct {
	mb *proto.Mailbox
	p  Params
	s  int64 // SizeBound

	eligible []bool

	compID graph.NodeID
	hasOut bool
	// merge sub-step bookkeeping
	attempting bool // this component tries to move in the current sub-step
	chooserNow bool // ... and this node owns its chosen edge
	marked     bool // this node holds the adopt marker

	color    int64
	parent   int   // nbIndex or -1
	children []int // sorted nbIndexes; doubles as the tree's Children
	depth    int64

	nbComp     []graph.NodeID // per edge, neighbor's component this phase
	chosenEdge int            // my adjacency index of my component's chosen edge, or -1
	incoming   []int          // edges on which a chooser registered this phase (reused)

	// adopt bookkeeping (per sub-step; marker is valid when marked)
	pathChild int
	pathHops  int64
	marker    markerBody

	// Step machine cursor (see Step): the state to run next, the phase and
	// its start round, the CV iteration or merge color within the phase,
	// and the base round of that iteration's section.
	st   state
	act  state // see the sweep fields below
	ret  state
	ph   int64
	r0   int64
	iter int64
	at   int64

	// The sweep in flight: its tag, this node's slot, the state to run in
	// its act round (act) and, after a plain up/down act, the one to
	// continue at (ret). val carries the sweep's value: the node's own
	// contribution (up) or the root's value (down) in, the root's aggregate
	// (up; nil elsewhere) or the received value (down) out.
	swTag   uint64
	slot    proto.SweepSlot
	val     any
	combine proto.Combine

	size int64
}

func (f *node) tag(off int) uint64 { return f.p.Tag + uint64(off) }

// tree returns the node's current tree view. Children aliases f.children:
// sweeps only read it, and the final Result outlives the construction.
func (f *node) tree() proto.Tree {
	return proto.Tree{Parent: f.parent, Children: f.children, Depth: f.depth}
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
		compID:     mb.C.ID(),
		color:      int64(mb.C.ID()),
		parent:     -1,
		chosenEdge: -1,
		st:         stPhase,
	}
	deg := mb.C.Degree()
	f.eligible = make([]bool, deg)
	for i := range f.eligible {
		f.eligible[i] = p.Eligible == nil || p.Eligible(i)
	}
	f.nbComp = make([]graph.NodeID, deg)
	mb.C.Drive(f)
	return Result{Tree: f.tree(), CompID: f.compID, Size: f.size}
}

// state is a position of the step machine. Each state runs the code
// between two receives of the phase schedule (see the package comment)
// and names the round the next state runs in. Rounds below are relative to
// the phase start r0 and to at, the start of the current CV iteration or
// merge sub-step.
type state int8

const (
	stPhase     state = iota // phase start, or the size sweeps after the last
	stExchange               // r0: send the component ID
	stExchanged              // r0+1: record neighbor IDs, sweep the min edge up
	stMinDown                // sweep the min edge down
	stChosen                 // adopt the chosen edge
	stNotify                 // r0+2s+6: notify the chosen edge's far endpoint
	stNotified               // r0+2s+7: register incoming bridges
	stCV                     // CV iteration iter, or the palette check after the last
	stCVSend                 // at: send the color over incoming bridges
	stCVColor                // at+1: derive the new color, sweep it up
	stCVDown                 // sweep the new color down
	stCVDone                 // adopt it
	stMerge                  // merge sub-step iter, or the next phase after the last
	stReq                    // at: send the join request
	stAck                    // at+1: answer requests
	stAdopt                  // sweep the adopt marker up
	stMark                   // marker act round
	stBroadcast              // adopt broadcast act round: rebase, apply the move
	stSizeDown               // sweep the component size down
	stSized                  // record it, advance to the end
	stListen                 // a sweep's listen round
	stUpAct                  // a plain sweep-up act round
	stDownAct                // a plain sweep-down act round
	stDone
)

// Step is the construction's simnet.Stepper: it files the wake's
// arrivals in the mailbox and runs states until one needs a later round.
// A state continues in round r either by AdvanceTo (inline when the node is
// in round r already) or, with sleep set, by SleepUntil — the receives of
// the phase schedule, so each wake sends and takes what the schedule
// prescribes, in order (TestBuildMatchesOracle holds the machine to a
// straight-line copy of the schedule).
func (f *node) Step(in []simnet.Inbound) (int64, bool) {
	f.mb.Pump(in)
	for f.st != stDone {
		r, sleep := f.exec()
		if sleep || !f.mb.At(r) {
			return r, false
		}
	}
	return 0, true
}

// advance continues at state next in round r, reached by AdvanceTo.
func (f *node) advance(r int64, next state) (int64, bool) {
	f.st = next
	return r, false
}

// sleep continues at state next in round r, reached by SleepUntil.
func (f *node) sleep(r int64, next state) (int64, bool) {
	f.st = next
	return r, true
}

// then continues at state next in the current wake.
func (f *node) then(next state) (int64, bool) {
	f.st = next
	return f.mb.Round(), false
}

// reach runs state act in the act round of sweep slot s.
func (f *node) reach(s proto.SweepSlot, act state) (int64, bool) {
	f.slot = s
	if s.Listen {
		f.act = act
		return f.advance(s.Act-1, stListen)
	}
	return f.advance(s.Act, act)
}

// up sweeps mine up the tree (proto.SweepUp) in the window starting at
// start, then continues at ret with f.val holding the root's aggregate.
func (f *node) up(tag int, start int64, mine any, combine proto.Combine, ret state) (int64, bool) {
	f.swTag, f.val, f.combine, f.ret = f.tag(tag), mine, combine, ret
	return f.reach(proto.UpSlot(f.mb, f.tree(), start, f.s), stUpAct)
}

// down sweeps the root's f.val down the tree (proto.SweepDown) in the
// window starting at start, then continues at ret with f.val holding the
// received value.
func (f *node) down(tag int, start int64, ret state) (int64, bool) {
	f.swTag, f.ret = f.tag(tag), ret
	return f.reach(proto.DownSlot(f.tree(), start), stDownAct)
}

// exec runs the current state.
func (f *node) exec() (int64, bool) {
	mb := f.mb
	s := f.s
	switch f.st {
	case stPhase:
		if f.ph == Phases(s) {
			// Final size agreement.
			f.at = f.p.StartRound + f.ph*phaseLen(s)
			return f.up(tagSizeUp, f.at, int64(1), addSizes, stSizeDown)
		}
		f.r0 = f.p.StartRound + f.ph*phaseLen(s)
		// Colors restart from the (component-wide unique) component ID: CV
		// properness needs distinct inputs, and last phase's 6-color
		// palette is not distinct across components.
		f.color = int64(f.compID)
		return f.advance(f.r0, stExchange)

	// (1) Component-ID exchange.
	case stExchange:
		for i, ok := range f.eligible {
			if ok {
				mb.Send(i, f.tag(tagExch), f.compID)
			}
		}
		return f.sleep(f.r0+1, stExchanged)
	case stExchanged:
		for i := range f.nbComp {
			f.nbComp[i] = -1
		}
		for _, m := range mb.Take(f.tag(tagExch)) {
			f.nbComp[m.NbIndex] = m.Body.(graph.NodeID)
		}
		// (2) Minimum outgoing edge via two sweeps.
		mine := minVal{}
		for i := range f.eligible {
			if f.outgoing(i) {
				id := mb.C.EdgeID(i)
				if !mine.Valid || id < mine.Edge {
					mine = minVal{Valid: true, Edge: id}
				}
			}
		}
		return f.up(tagMinUp, f.r0+2, mine, minEdge, stMinDown)
	case stMinDown:
		return f.down(tagMinDown, f.r0+s+4, stChosen)
	case stChosen:
		chosen := f.val.(minVal)
		f.hasOut = chosen.Valid
		f.chosenEdge = -1
		if chosen.Valid {
			for i := range f.eligible {
				if f.outgoing(i) && mb.C.EdgeID(i) == chosen.Edge {
					f.chosenEdge = i
				}
			}
		}
		// (3) Choice notification.
		f.incoming = f.incoming[:0]
		return f.advance(f.r0+2*s+6, stNotify)
	case stNotify:
		if f.chosenEdge >= 0 {
			mb.Send(f.chosenEdge, f.tag(tagChosen), struct{}{})
		}
		return f.sleep(f.r0+2*s+7, stNotified)
	case stNotified:
		for _, m := range mb.Take(f.tag(tagChosen)) {
			f.incoming = append(f.incoming, m.NbIndex)
		}
		f.iter = 0
		return f.then(stCV)

	// (4) Cole–Vishkin coloring of the chooser pseudo-forest: per
	// iteration, targets send their component's current color over
	// incoming bridges, the chooser computes the new color, and two sweeps
	// distribute it component-wide.
	case stCV:
		if f.iter == cvIters {
			if f.hasOut && f.color >= numColors {
				panic(fmt.Sprintf("forest: node %d: CV color %d out of palette", mb.C.ID(), f.color))
			}
			f.iter = 0
			return f.then(stMerge)
		}
		f.at = f.r0 + 2*s + 8 + f.iter*(2*s+6)
		if len(f.incoming) > 0 || f.chosenEdge >= 0 {
			return f.advance(f.at, stCVSend)
		}
		return f.then(stCVColor)
	case stCVSend:
		for _, e := range f.incoming {
			mb.Send(e, f.tag(tagColor), f.color)
		}
		return f.sleep(f.at+1, stCVColor)
	case stCVColor:
		if !f.hasOut {
			// Static components keep their color; they never move, so
			// their palette membership is irrelevant (see package comment).
			mb.Take(f.tag(tagColor))
			f.iter++
			return f.then(stCV)
		}
		var myNew any
		if f.chosenEdge >= 0 {
			var tColor int64 = -1
			for _, m := range mb.Take(f.tag(tagColor)) {
				if m.NbIndex == f.chosenEdge {
					tColor = m.Body.(int64)
				}
			}
			if tColor < 0 {
				panic(fmt.Sprintf("forest: node %d: missing target color on bridge", mb.C.ID()))
			}
			myNew = cvStep(f.color, tColor)
		}
		return f.up(tagCVUp, f.at+2, myNew, pickNonNil, stCVDown)
	case stCVDown:
		return f.down(tagCVDown, f.at+s+4, stCVDone)
	case stCVDone:
		f.color = f.val.(int64)
		f.iter++
		return f.then(stCV)

	// (5) Merge sub-steps, one per color.
	case stMerge:
		if f.iter == numColors {
			f.ph++
			return f.then(stPhase)
		}
		f.at = f.r0 + 2*s + 8 + cvIters*(2*s+6) + f.iter*(2*s+6)
		f.attempting = f.hasOut && f.color == f.iter
		f.chooserNow = f.attempting && f.chosenEdge >= 0
		if f.chooserNow || len(f.incoming) > 0 {
			return f.advance(f.at, stReq)
		}
		return f.then(stAdopt)
	case stReq:
		if f.chooserNow {
			mb.Send(f.chosenEdge, f.tag(tagReq), f.compID)
		}
		return f.sleep(f.at+1, stAck)
	case stAck:
		for _, m := range mb.Take(f.tag(tagReq)) {
			switch {
			case m.Body.(graph.NodeID) == f.compID:
				mb.Send(m.NbIndex, f.tag(tagAck), ackBody{Verdict: ackSelf})
			case f.hasOut && f.color == f.iter:
				mb.Send(m.NbIndex, f.tag(tagAck), ackBody{Verdict: ackBusy})
			default:
				mb.Send(m.NbIndex, f.tag(tagAck), ackBody{
					Verdict: ackOK, Comp: f.compID, Color: f.color, HasOut: f.hasOut, Depth: f.depth,
				})
				f.addChild(m.NbIndex)
			}
		}
		return f.then(stAdopt)
	case stAdopt:
		if !f.attempting {
			f.iter++
			return f.then(stMerge)
		}
		// Adopt sweep A: the marker climbs the old tree on the old depths.
		f.marked = false
		f.pathChild = -1
		f.pathHops = 0
		return f.reach(proto.UpSlot(mb, f.tree(), f.at+2, s), stMark)
	case stMark:
		if f.chooserNow {
			// The chooser is awake at at+1, so the ACK (sent in round
			// at+1) is in the mailbox by now.
			for _, m := range mb.Take(f.tag(tagAck)) {
				ack := m.Body.(ackBody)
				if ack.Verdict == ackOK {
					f.marked, f.marker = true, markerBody{Hops: 0, Adopt: ack, UDepth: ack.Depth + 1}
				}
			}
		}
		for _, m := range mb.Take(f.tag(tagAdoptUp)) {
			mk := m.Body.(markerBody)
			f.pathChild = m.NbIndex
			f.pathHops = mk.Hops
			f.marked, f.marker = true, mk
		}
		if f.marked && f.parent >= 0 {
			mb.Send(f.parent, f.tag(tagAdoptUp), markerBody{
				Hops: f.marker.Hops + 1, Adopt: f.marker.Adopt, UDepth: f.marker.UDepth,
			})
		}
		// Adopt sweep B: the broadcast descends the old tree.
		return f.reach(proto.DownSlot(f.tree(), f.at+s+3), stBroadcast)
	case stBroadcast:
		f.broadcast()
		f.iter++
		return f.then(stMerge)

	case stSizeDown:
		return f.down(tagSizeDown, f.at+s+2, stSized)
	case stSized:
		f.size = f.val.(int64)
		return f.advance(f.p.StartRound+Duration(s), stDone)

	case stListen:
		return f.sleep(f.slot.Act, f.act)
	case stUpAct:
		f.val, _ = proto.UpAct(mb, f.tree(), f.swTag, f.slot, f.val, f.combine)
		return f.then(f.ret)
	case stDownAct:
		f.val = proto.DownAct(mb, f.tree(), f.swTag, f.slot, f.val)
		return f.then(f.ret)
	}
	panic(fmt.Sprintf("forest: node %d: bad machine state %d", mb.C.ID(), f.st))
}

// outgoing reports whether edge i leads out of the node's component.
func (f *node) outgoing(i int) bool {
	return f.eligible[i] && f.nbComp[i] >= 0 && f.nbComp[i] != f.compID
}

// broadcast is adopt sweep B's act round: take the old parent's broadcast
// (the old root makes it), forward it rebased, and apply the move — flip
// the marked path and adopt the target's identity.
func (f *node) broadcast() {
	mb := f.mb
	var body adoptDownBody
	if f.parent >= 0 {
		msgs := mb.Take(f.tag(tagAdoptDown))
		if len(msgs) == 0 {
			panic(fmt.Sprintf("forest: node %d: missing adopt broadcast", mb.C.ID()))
		}
		body = msgs[0].Body.(adoptDownBody)
	} else if !f.marked {
		body = adoptDownBody{Noop: true}
	} else {
		body = adoptDownBody{Adopt: f.marker.Adopt, UDepth: f.marker.UDepth}
	}
	if body.Noop {
		for _, ch := range f.children {
			mb.Send(ch, f.tag(tagAdoptDown), body)
		}
		return
	}
	onPath := f.pathChild >= 0 || (f.marked && f.pathChild < 0 && f.chooserNow)
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
	oldParent := f.parent
	switch {
	case f.chooserNow && f.marked:
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

// minEdge combines two minVal candidates into the smaller valid edge.
func minEdge(a, b any) any {
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

func addSizes(a, b any) any { return a.(int64) + b.(int64) }

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
