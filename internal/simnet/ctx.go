package simnet

import (
	"fmt"

	"dsssp/internal/graph"
)

// Ctx is a node program's handle to the simulated world. All methods must
// be called only from within the node's own Program invocation (the node's
// coroutine, or a step it runs under Drive); handing a Ctx to another
// goroutine is not supported.
type Ctx struct {
	eng *Engine
	ns  *nodeState
}

// ID returns this node's identifier.
func (c *Ctx) ID() graph.NodeID { return c.ns.id }

// N returns the number of nodes in the network (standard global knowledge).
func (c *Ctx) N() int { return c.eng.g.N() }

// Model returns the execution model of this run.
func (c *Ctx) Model() Model { return c.eng.cfg.Model }

// Round returns the current round number.
func (c *Ctx) Round() int64 { return c.eng.wakeRound[c.ns.id] }

// Degree returns the number of incident edges.
func (c *Ctx) Degree() int { return c.eng.g.Degree(c.ns.id) }

// NeighborID returns the node at the other end of incident edge i.
func (c *Ctx) NeighborID(i int) graph.NodeID { return c.eng.g.Adj(c.ns.id)[i].To }

// Weight returns the weight of incident edge i.
func (c *Ctx) Weight(i int) int64 { return c.eng.g.Adj(c.ns.id)[i].W }

// EdgeID returns the global edge identifier of incident edge i.
func (c *Ctx) EdgeID(i int) graph.EdgeID { return c.eng.g.Adj(c.ns.id)[i].ID }

// Send queues a message on incident edge i for delivery at the end of the
// current round. The destination receives it iff it is awake this round.
func (c *Ctx) Send(i int, msg any) { c.SendTagged(i, 0, msg) }

// SendTagged is Send with a dispatch tag that travels beside the body and
// arrives as Inbound.Tag — the model's "tag plus O(log n) bits" message
// without boxing the pair into one interface value.
func (c *Ctx) SendTagged(i int, tag uint64, body any) {
	if i < 0 || i >= c.Degree() {
		panic(fmt.Sprintf("simnet: node %d: Send to invalid neighbor index %d (degree %d)", c.ns.id, i, c.Degree()))
	}
	om := outMsg{nbIndex: int32(i), tag: tag, msg: body}
	if c.eng.cfg.RecordSpans {
		om.span = c.ns.curSpan()
	}
	c.ns.outbox = append(c.ns.outbox, om)
}

// SetOutput records this node's output value, returned from Engine.Run.
func (c *Ctx) SetOutput(v any) { c.ns.output = v }

// Next ends the current round and resumes the node in the next round.
// It returns the messages received since the previous resume.
//
// Ownership: the returned slice is only valid until the node's next
// receive call (Next, SleepUntil, SleepUntilAtLeast, or WaitMessage) — the
// engine recycles the backing buffer to keep delivery allocation-free.
// Consume the messages before yielding again (all in-tree algorithms do);
// copy them if they must outlive the round. The same rule applies to every
// method returning []Inbound.
func (c *Ctx) Next() []Inbound {
	c.eng.wakeRound[c.ns.id]++
	c.yield(yieldRun)
	return c.take()
}

// SleepUntil ends the current round and sleeps until round r (exclusive of
// the rounds in between: in Sleeping mode, messages sent during them are
// lost). r must be strictly greater than the current round.
func (c *Ctx) SleepUntil(r int64) []Inbound {
	if r <= c.eng.wakeRound[c.ns.id] {
		panic(notAfter(c.ns.id, r, c.eng.wakeRound[c.ns.id]))
	}
	c.eng.wakeRound[c.ns.id] = r
	c.yield(yieldRun)
	return c.take()
}

// SleepUntilAtLeast is SleepUntil clamped to the next round; use it when the
// target round may already have passed due to budget slack.
func (c *Ctx) SleepUntilAtLeast(r int64) []Inbound {
	if r <= c.eng.wakeRound[c.ns.id] {
		r = c.eng.wakeRound[c.ns.id] + 1
	}
	return c.SleepUntil(r)
}

// WaitMessage parks the node until a message arrives (resuming in the round
// after the arrival) or until round deadline, whichever is first. A negative
// deadline means no deadline; the engine reports a deadlock if every
// unhalted node ends up parked without a deadline.
//
// WaitMessage is only available in Congest mode: in the sleeping model a
// node cannot be woken by a message (messages to sleeping nodes are lost).
func (c *Ctx) WaitMessage(deadline int64) []Inbound {
	if c.eng.cfg.Model != Congest {
		panic(fmt.Sprintf("simnet: node %d: WaitMessage is only valid in Congest mode", c.ns.id))
	}
	if len(c.ns.inbox) > 0 {
		// A message is already pending; behave like Next.
		return c.Next()
	}
	if deadline >= 0 && deadline <= c.eng.wakeRound[c.ns.id] {
		panic(fmt.Sprintf("simnet: node %d: WaitMessage deadline %d not after current round %d", c.ns.id, deadline, c.eng.wakeRound[c.ns.id]))
	}
	c.eng.parkDeadline[c.ns.id] = deadline
	c.yield(yieldPark)
	return c.take()
}

// take hands the filled inbox to the program and installs the spare buffer
// for the engine to fill next. The handed-out slice becomes the spare at
// the following take, so each buffer is overwritten only after the program
// has had a full wake cycle to consume it (the ownership rule on Next).
func (c *Ctx) take() []Inbound {
	b := c.ns.inbox
	c.ns.inbox = c.ns.spare[:0]
	c.ns.spare = b
	return b
}

// notAfter is the panic text for a wake requested at or before the
// current round, shared by SleepUntil and Drive steps.
func notAfter(id graph.NodeID, r, cur int64) string {
	return fmt.Sprintf("simnet: node %d: SleepUntil(%d) not after current round %d", id, r, cur)
}

// A Stepper runs a node program's wakes under Ctx.Drive, typically a
// statically scheduled loop kept as a cursor in node-local state.
type Stepper interface {
	// Step is one wake. It receives the messages that arrived for this
	// wake (nil on the first call) and returns the round of the node's
	// next wake, or done once the driven part of the program is over.
	Step(in []Inbound) (next int64, done bool)
}

// Drive hands the node's wakes to s until its Step reports done, then
// returns in the round of that last wake. Step is first called at once, in
// the current wake; after that the engine calls it directly at each wake
// it asks for, while the program's coroutine stays suspended — a method
// call instead of a coroutine switch, for loops whose every wake is known
// in advance (forest.Build, energybfs.Run).
//
// Every wake still counts as an awake round, and the receive rules are
// those of SleepUntil: next must be after the current round (the same
// panic), and in Sleeping mode messages sent while the node sleeps are
// lost. Inside Step the node may send and use the read-only accessors, but
// not receive: Next, SleepUntil, SleepUntilAtLeast, WaitMessage and Drive
// panic there — a step cannot park. A panic inside Step fails the run exactly as
// a panic in the program does.
func (c *Ctx) Drive(s Stepper) {
	c.notInStep()
	c.ns.step = s
	next, done := s.Step(nil)
	if done {
		c.ns.step = nil
		return
	}
	if cur := c.eng.wakeRound[c.ns.id]; next <= cur {
		panic(notAfter(c.ns.id, next, cur))
	}
	c.eng.wakeRound[c.ns.id] = next
	c.eng.kind[c.ns.id] = yieldRun
	// The engine clears ns.step when Step reports done, then resumes the
	// coroutine here, in the round of that wake.
	if !c.ns.yieldFn(struct{}{}) {
		panic(errKilled)
	}
}

// yield switches control back to the engine until the node's next resume —
// a direct coroutine switch, not a Go-scheduler round trip. A false return
// from the coroutine yield means the engine shut the run down.
func (c *Ctx) yield(kind yieldKind) {
	c.notInStep()
	c.eng.kind[c.ns.id] = kind
	if !c.ns.yieldFn(struct{}{}) {
		panic(errKilled)
	}
}

// notInStep panics if called from a Drive step: only the coroutine can
// yield, so a step can neither receive nor start another Drive.
func (c *Ctx) notInStep() {
	if c.ns.step != nil {
		panic(fmt.Sprintf("simnet: node %d: cannot receive inside a Drive step", c.ns.id))
	}
}
