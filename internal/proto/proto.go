// Package proto provides the coordination primitives shared by every
// distributed algorithm in this repository:
//
//   - Mailbox: tag-based message dispatch over a simnet.Ctx. Algorithms are
//     built from phases that may drift between connected components
//     (Section 2.3 of the paper), so a message can arrive for a phase the
//     receiver has not entered yet; the mailbox buffers by tag instead of
//     dropping.
//   - Depth-indexed tree sweeps (Section 3.1.1 of the paper): UpSlot and
//     DownSlot fix the round in which a node at depth d listens and acts
//     in a convergecast or broadcast window, at most 2 awake rounds per
//     node per sweep. Every windowed sweep in the repository takes its
//     rounds from them; SweepUp/SweepDown are the coroutine form.
//   - Barrier: the paper's "all of C done → root picks a start round
//     Θ(|C|) in the future → broadcast" synchronization step, event-driven
//     for the CONGEST model.
package proto

import (
	"fmt"

	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

// Msg is a received, tag-matched message.
type Msg = simnet.Inbound

// Mailbox wraps a simnet.Ctx with tag-based buffering.
//
// Ownership: a slice returned by Take is valid until the node's next
// receive (Next, SleepUntil, SleepUntilAtLeast, AdvanceTo, Reach, Pump,
// Barrier, or any helper that calls them) — the mailbox may then
// refill its backing array as a queue buffer, the same rule simnet.Ctx.Next
// documents for inbound slices. Consume the messages before receiving
// again, or copy them.
type Mailbox struct {
	C *simnet.Ctx

	// byTag holds one non-empty queue per buffered tag. Few tags are ever
	// pending at once (the current phase plus drift), so a linear scan beats
	// a map and never reallocates in the steady state.
	byTag []tagQueue
	// free holds the buffers of drained queues. Take returns a buffer here
	// as it hands it out; only pump refills buffers, and pump runs only at a
	// receive, so the handed-out slice stays intact until then.
	free [][]Msg
}

type tagQueue struct {
	tag  uint64
	msgs []Msg
}

// NewMailbox creates a mailbox over ctx.
func NewMailbox(ctx *simnet.Ctx) *Mailbox {
	return &Mailbox{C: ctx}
}

// Send queues body on incident edge i under tag; the tag travels beside the
// body (simnet.Ctx.SendTagged) and selects the receiver's queue.
func (m *Mailbox) Send(i int, tag uint64, body any) {
	m.C.SendTagged(i, tag, body)
}

// Round returns the current round.
func (m *Mailbox) Round() int64 { return m.C.Round() }

// pump files the arrivals of one receive under their tags.
func (m *Mailbox) pump(in []simnet.Inbound) {
	q := -1
	for _, ib := range in {
		if q < 0 || m.byTag[q].tag != ib.Tag {
			q = m.queue(ib.Tag)
		}
		m.byTag[q].msgs = append(m.byTag[q].msgs, ib)
	}
}

// find returns the index of tag's queue in byTag, or -1.
func (m *Mailbox) find(tag uint64) int {
	for i := range m.byTag {
		if m.byTag[i].tag == tag {
			return i
		}
	}
	return -1
}

// queue returns the index of tag's queue, opening one on a recycled buffer
// if the tag has nothing buffered.
func (m *Mailbox) queue(tag uint64) int {
	if i := m.find(tag); i >= 0 {
		return i
	}
	var buf []Msg
	if k := len(m.free); k > 0 {
		buf, m.free = m.free[k-1], m.free[:k-1]
	}
	m.byTag = append(m.byTag, tagQueue{tag: tag, msgs: buf})
	return len(m.byTag) - 1
}

// Next advances one round, buffering arrivals.
func (m *Mailbox) Next() { m.pump(m.C.Next()) }

// SleepUntil sleeps until round r, buffering arrivals (in Sleeping mode,
// messages sent while asleep are lost by the model, not by the mailbox).
func (m *Mailbox) SleepUntil(r int64) { m.pump(m.C.SleepUntil(r)) }

// SleepUntilAtLeast clamps r to the future and sleeps.
func (m *Mailbox) SleepUntilAtLeast(r int64) { m.pump(m.C.SleepUntilAtLeast(r)) }

// AdvanceTo sleeps until round r; it is a no-op if the node is already in
// round r and panics if the node has overrun r (a scheduling bug).
func (m *Mailbox) AdvanceTo(r int64) {
	if !m.At(r) {
		m.SleepUntil(r)
	}
}

// At reports whether the node is in round r (false: r is still ahead). It
// panics if the node has overrun r — AdvanceTo's check, for code that books
// its own wakes (a simnet.Ctx.Drive step).
func (m *Mailbox) At(r int64) bool {
	cur := m.C.Round()
	if cur > r {
		panic(fmt.Sprintf("proto: node %d overran scheduled round %d (now at %d)", m.C.ID(), r, cur))
	}
	return cur == r
}

// Pump buffers externally received inbounds (e.g. from a direct
// Ctx.WaitMessage call made by an algorithm that manages its own wake
// schedule).
func (m *Mailbox) Pump(in []simnet.Inbound) { m.pump(in) }

// Span runs f inside an open ledger span (see simnet.SpanMetrics): every
// round, message, and awake round the engine accounts while f executes —
// including all mailbox traffic f sends — is attributed to the (name,
// depth) span. Spans nest; panics propagate with the span closed.
func (m *Mailbox) Span(name string, depth int, f func()) {
	m.C.OpenSpan(name, depth)
	defer m.C.CloseSpan()
	f()
}

// Take drains and returns all buffered messages with the given tag, in
// arrival order, or nil if there are none. The slice is valid until the
// node's next receive (see Mailbox).
func (m *Mailbox) Take(tag uint64) []Msg {
	i := m.find(tag)
	if i < 0 {
		return nil
	}
	q := m.byTag[i].msgs
	last := len(m.byTag) - 1
	m.byTag[i] = m.byTag[last]
	m.byTag[last] = tagQueue{}
	m.byTag = m.byTag[:last]
	m.free = append(m.free, q[:0])
	return q
}

// Pending reports how many messages are buffered for tag.
func (m *Mailbox) Pending(tag uint64) int {
	if i := m.find(tag); i >= 0 {
		return len(m.byTag[i].msgs)
	}
	return 0
}

// Tree is one node's view of a rooted spanning tree. Parent and Children are
// adjacency indexes of this node's incident edges; Parent is -1 at the root.
// A node with InTree == false ignores tree operations (returns zero values).
type Tree struct {
	InTree   bool
	Root     graph.NodeID
	Parent   int
	Children []int
	Depth    int64
}

// Combine merges two aggregation values (both may be nil; the helpers skip
// nil child contributions only if the combiner cannot handle them — by
// convention our combiners treat their arguments as already-valid values).
type Combine func(a, b any) any

// Barrier implements the paper's component synchronization (Section 2.3,
// step 4), event-driven (Congest mode): each node enters when it is
// locally done and checks in with its parent once all its children have;
// the root then picks a common start round sizeBound+2 ahead and
// broadcasts it, and every node sleeps until that round. sizeBound must be
// an upper bound on the tree depth. Nodes with t.InTree == false must not
// call Barrier.
func Barrier(m *Mailbox, t Tree, tag uint64, sizeBound int64) int64 {
	if !t.InTree {
		return 0
	}
	m.await(tag, len(t.Children))
	var start int64
	if t.Parent >= 0 {
		m.Send(t.Parent, tag, nil)
		start = m.await(tag+1, 1)[0].Body.(int64)
	} else {
		start = m.Round() + sizeBound + 2
	}
	for _, ch := range t.Children {
		m.Send(ch, tag+1, start)
	}
	m.SleepUntilAtLeast(start)
	return start
}

// await takes tag's messages, waiting for the next arrival between takes,
// until want of them have come in, and returns the last take. The engine's
// deadlock detection is the backstop for a message that never comes.
func (m *Mailbox) await(tag uint64, want int) []Msg {
	for {
		q := m.Take(tag)
		if want -= len(q); want <= 0 {
			return q
		}
		m.pump(m.C.WaitMessage(-1))
	}
}

// SweepSlot is one node's place in a depth-indexed sweep window (SweepUp,
// SweepDown): the node acts — folds what it received and sends on — in
// round Act. If Listen, it is also awake in round Act-1, when its children
// (up) or its parent (down) send to it, and reaches Act by SleepUntil from
// there; otherwise it reaches Act by AdvanceTo. Either way at most 2 awake
// rounds per node per sweep.
type SweepSlot struct {
	Act    int64
	Listen bool
}

// UpSlot is the node's SweepUp slot in the window starting at windowStart:
// the node at depth d acts in round windowStart+depthBound-d and listens
// the round before iff it has children. It panics if the tree is deeper
// than depthBound.
func UpSlot(m *Mailbox, t Tree, windowStart, depthBound int64) SweepSlot {
	if t.Depth > depthBound {
		panic(fmt.Sprintf("proto: node %d: SweepUp depth %d exceeds bound %d", m.C.ID(), t.Depth, depthBound))
	}
	return SweepSlot{Act: windowStart + depthBound - t.Depth, Listen: len(t.Children) > 0}
}

// DownSlot is the node's SweepDown slot in the window starting at
// windowStart: the root acts in round windowStart, the node at depth d >= 1
// in round windowStart+d after listening the round before.
func DownSlot(t Tree, windowStart int64) SweepSlot {
	if t.Parent < 0 {
		return SweepSlot{Act: windowStart}
	}
	return SweepSlot{Act: windowStart + t.Depth, Listen: true}
}

// Reach takes the node to its slot's act round, awake in the listen round
// on the way if the slot has one. It is the coroutine form of booking a
// slot's rounds; a step machine (forest's) books the same rounds itself.
func (m *Mailbox) Reach(s SweepSlot) {
	if s.Listen {
		m.AdvanceTo(s.Act - 1)
		m.SleepUntil(s.Act)
	} else {
		m.AdvanceTo(s.Act)
	}
}

// UpAct is a SweepUp node's act round: it folds its children's values into
// mine and sends the result to its parent. The root returns
// (aggregate, true) instead; other nodes return (nil, false).
func UpAct(m *Mailbox, t Tree, tag uint64, s SweepSlot, mine any, combine Combine) (any, bool) {
	acc := mine
	if s.Listen {
		for _, msg := range m.Take(tag) {
			acc = combine(acc, msg.Body)
		}
	}
	if t.Parent < 0 {
		return acc, true
	}
	// The send is flushed by the node's next yield, whichever helper
	// performs it; no extra awake round is needed.
	m.Send(t.Parent, tag, acc)
	return nil, false
}

// DownAct is a SweepDown node's act round: it takes its parent's value
// (the root uses rootVal), applies transform if non-nil, sends the result
// to its children and returns it.
func DownAct(m *Mailbox, t Tree, tag uint64, s SweepSlot, rootVal any, transform func(any) any) any {
	val := rootVal
	if s.Listen {
		msgs := m.Take(tag)
		if len(msgs) == 0 {
			panic(fmt.Sprintf("proto: node %d: SweepDown(tag=%d) missed parent message in round %d", m.C.ID(), tag, s.Act-1))
		}
		val = msgs[0].Body
	}
	if transform != nil {
		val = transform(val)
	}
	for _, ch := range t.Children {
		m.Send(ch, tag, val)
	}
	return val
}

// SweepUp performs a one-shot depth-indexed convergecast inside the window
// starting at windowStart, on UpSlot's schedule (Section 3.1.1's, one-shot
// form). depthBound must be >= the tree depth. Works in both models. The
// root returns (aggregate, true) once the window completes; all nodes
// return after round windowStart+depthBound.
func SweepUp(m *Mailbox, t Tree, tag uint64, windowStart, depthBound int64, mine any, combine Combine) (any, bool) {
	if !t.InTree {
		return nil, false
	}
	s := UpSlot(m, t, windowStart, depthBound)
	m.Reach(s)
	return UpAct(m, t, tag, s, mine, combine)
}

// SweepDown performs a one-shot depth-indexed broadcast in the window
// starting at windowStart, on DownSlot's schedule. The transform hook
// (optional) rewrites the value as it descends: it receives the value from
// the parent and returns the value to forward. Every node returns its
// (possibly transformed) value.
func SweepDown(m *Mailbox, t Tree, tag uint64, windowStart int64, rootVal any, transform func(any) any) any {
	if !t.InTree {
		return nil
	}
	s := DownSlot(t, windowStart)
	m.Reach(s)
	return DownAct(m, t, tag, s, rootVal, transform)
}
