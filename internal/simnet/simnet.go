// Package simnet implements the synchronous message-passing model of
// distributed computing used by the paper (CONGEST), together with its
// sleeping-model extension where nodes may sleep and messages sent to a
// sleeping node are lost (Section 1.2 of the paper).
//
// RunEach is the entry for whole-graph runs: it runs one node program on
// every node and returns each node's answer, indexed by node ID, with the
// run's Result. Engine.Run, with Ctx.SetOutput and Result.Outputs, is the
// untyped form underneath it.
//
// Each node runs a Program in its own coroutine and communicates with the
// engine through a Ctx. Execution proceeds in lock-step rounds:
//
//   - A node is awake in exactly the rounds in which it executes (each
//     yield point — Next, SleepUntil, WaitMessage — ends one awake round).
//   - A message sent in round r is received iff the destination is awake in
//     round r; it is handed to the destination at its next resume.
//   - In Congest mode all nodes are logically always awake: messages are
//     never lost and WaitMessage allows event-driven execution. The engine
//     still skips nodes with nothing to do; that is a simulation
//     optimization, not a model change.
//   - In Sleeping mode the engine counts each node's awake rounds — the
//     paper's energy measure — and drops messages to sleeping nodes.
//   - Strict CONGEST is the O(log n)-bit message budget
//     (Config.MaxMessageBits). Algorithms multiplex subroutines over an
//     edge, so a round may carry several messages per edge direction;
//     Metrics.StrictRounds reports the megaround expansion (Section 3.1.3).
//
// The engine is deterministic: nodes are resumed and their messages
// delivered in node-ID order, so a run is a pure function of the graph,
// the program, and the per-node inputs.
//
// # Execution core
//
// The scheduler is one monotone radix heap (see wakeQueue): every wake, be
// it next round or a SleepUntil/WaitMessage deadline thousands of rounds
// ahead, is filed by the highest bit in which its round differs from the
// current one, and each pop hands back one round's wakes as a slice.
//
// A wake takes one of two forms, chosen in one place (Engine.dispatch):
//
//   - Coroutine resume, the default. Node programs are iter.Pull coroutines
//     rather than channel-synchronized goroutines, so a resume/yield pair is
//     a direct coroutine switch — no Go-scheduler round trip, channel locks,
//     or park/unpark. It still costs ≈165 ns, and it is the only form that
//     can receive from anywhere in straight-line code or park in
//     WaitMessage.
//   - Step call, while the program is inside Ctx.Drive. The engine calls
//     the program's Stepper directly — a few nanoseconds — and the
//     coroutine stays suspended until the stepper reports done, when it
//     resumes in that same wake. Statically scheduled loops whose every wake
//     is known in advance use it; forest.Build and energybfs.Run run this
//     way, which covers most of the wakes of a CONGEST or sleeping-model
//     SSSP run.
//
// Both forms count the same awake rounds, see the same arrivals and follow
// the same loss rules, so a program's Metrics, Outputs and Sends do not
// depend on which form it uses.
//
// # Round structure
//
// The model gives rounds no internal ordering semantics: within a round
// every awake node acts on the state it held at the round's start, and all
// sends land at the end of the round. The engine runs each round in two
// passes: first every batched node's wake (a resume or a step call), which
// touches only that node's own state, then — after all of the round's
// wakes — every cross-node effect (queue updates, halt accounting, span
// attribution, message delivery, error selection) in node-ID order.
//
// # Memory layout
//
// Per-node scheduling state (wake round, queue seq, yield kind, halted,
// park deadline) lives in struct-of-arrays form on the Engine, so the hot
// pop/filter loops scan dense arrays instead of striding over the full
// node structs. The wake queue holds 64 slices that grow with the wakes
// pending and keep their backing arrays across rounds, so it allocates
// nothing per round. Buffers are pooled across rounds: each node's inbox is
// double-buffered (see Ctx.Next for the resulting ownership rule) and
// outboxes are reused, with the initial buffers for all nodes carved from
// three shared degree-proportional arenas — at n=10^5 that is three
// allocations instead of ~3n, and growth past a node's carve falls back to
// the heap transparently. Under Config.RecordTrace a message costs about
// two bytes: its round joins its directed edge's send record as a uvarint
// gap (see AppendSend). A message's dispatch tag travels as a plain field
// beside its body (Ctx.SendTagged → Inbound.Tag), so tagging a message
// allocates nothing.
package simnet

import (
	"encoding/binary"
	"fmt"
	"iter"
	"slices"

	"dsssp/internal/graph"
)

// Model selects the execution model.
type Model int

// Execution models.
const (
	// Congest is the standard synchronous CONGEST model: all nodes are
	// always awake, messages are never lost.
	Congest Model = iota + 1
	// Sleeping is the sleeping (energy) model: nodes are awake only in the
	// rounds they execute, and messages to sleeping nodes are lost.
	Sleeping
)

func (m Model) String() string {
	switch m {
	case Congest:
		return "congest"
	case Sleeping:
		return "sleeping"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Config configures an Engine.
type Config struct {
	Model Model
	// MaxRounds aborts the run if the round counter exceeds it.
	// 0 means a generous default of 1<<40.
	MaxRounds int64
	// RecordTrace records every directed edge's send rounds in
	// Result.Sends (for the APSP scheduling analysis).
	RecordTrace bool
	// MessageBits, if non-nil, estimates the wire size of every sent
	// message — its tag (0 for Ctx.Send) plus its body — in bits; the
	// maximum is reported in Metrics.MaxMessageBits. Leave nil to skip the
	// (reflection-heavy) measurement on hot paths.
	MessageBits func(tag uint64, body any) int64
	// MaxMessageBits, when > 0 and MessageBits is set, is the strict
	// CONGEST bandwidth budget: the run fails loudly as soon as any single
	// message exceeds it. The paper's model allows O(log n)-bit messages;
	// callers derive the concrete budget from the graph (see
	// proto.BitBudget). This budget is all "strict CONGEST" means here:
	// several messages may share an edge direction in one round, and
	// Metrics.StrictRounds charges that load as megarounds.
	MaxMessageBits int64
}

// Inbound is a received message.
type Inbound struct {
	From graph.NodeID
	// NbIndex is the receiver's adjacency index of the edge the message
	// arrived on.
	NbIndex int
	// Round is the round in which the message was sent (and received).
	Round int64
	// Tag is the sender's dispatch tag (see Ctx.SendTagged; 0 for Send).
	Tag  uint64
	Body any
}

// Metrics aggregates the complexity measures the paper's theorems bound.
type Metrics struct {
	// Rounds is the number of rounds elapsed (last active round + 1).
	Rounds int64
	// StrictRounds is the runtime after expanding every round into
	// max(1, max_e per-direction load) strict CONGEST rounds (megaround
	// accounting, Section 3.1.3).
	StrictRounds int64
	// Messages is the total number of messages sent.
	Messages int64
	// LostMessages counts messages sent to sleeping nodes (Sleeping mode).
	LostMessages int64
	// DroppedAfterHalt counts messages sent to halted nodes.
	DroppedAfterHalt int64
	// MaxEdgeMessages is the maximum, over undirected edges, of the total
	// messages carried (both directions) — the paper's congestion measure.
	MaxEdgeMessages int64
	// MaxMessageBits is the largest single message observed, in bits
	// (0 unless Config.MessageBits was set) — the strict CONGEST
	// bandwidth measure.
	MaxMessageBits int64
	// TotalAwake is the sum over nodes of awake rounds.
	TotalAwake int64
	// MaxAwake is the maximum over nodes of awake rounds — the paper's
	// energy complexity measure.
	MaxAwake int64
	// PerEdgeMessages holds total messages per undirected edge.
	PerEdgeMessages []int64
	// PerNodeAwake holds awake rounds per node.
	PerNodeAwake []int64
	// Spans is the span ledger in first-open order (see span.go; after
	// Append, in MergeSpans order):
	// Rounds/Messages/AwakeRounds partition the corresponding totals
	// above, MaxMessageBits is a per-span maximum. Nil when the program
	// never opened a span, so the root span holds the whole run.
	Spans []SpanMetrics
}

// Append accounts a run that followed m's run on the same graph, so that m
// describes the two as one: the additive counters and the per-edge and
// per-node vectors add, MaxEdgeMessages and MaxAwake are recomputed, and
// MaxMessageBits takes the maximum. The two ledgers merge (MergeSpans), so
// when both runs carry one the result still partitions the summed totals.
func (m *Metrics) Append(next Metrics) {
	m.Rounds += next.Rounds
	m.StrictRounds += next.StrictRounds
	m.Messages += next.Messages
	m.LostMessages += next.LostMessages
	m.DroppedAfterHalt += next.DroppedAfterHalt
	m.TotalAwake += next.TotalAwake
	m.MaxMessageBits = max(m.MaxMessageBits, next.MaxMessageBits)
	for i, c := range next.PerEdgeMessages {
		m.PerEdgeMessages[i] += c
		m.MaxEdgeMessages = max(m.MaxEdgeMessages, m.PerEdgeMessages[i])
	}
	for i, a := range next.PerNodeAwake {
		m.PerNodeAwake[i] += a
		m.MaxAwake = max(m.MaxAwake, m.PerNodeAwake[i])
	}
	m.Spans = MergeSpans(m.Spans, next.Spans)
}

func (m *Metrics) String() string {
	return fmt.Sprintf("rounds=%d strict=%d msgs=%d lost=%d maxEdge=%d maxAwake=%d totalAwake=%d",
		m.Rounds, m.StrictRounds, m.Messages, m.LostMessages, m.MaxEdgeMessages, m.MaxAwake, m.TotalAwake)
}

// Program is the code run by every node. The Ctx gives access to the node's
// local view. A Program must only interact with the world through its Ctx;
// when it returns, the node halts.
type Program func(*Ctx)

// Result is the outcome of a completed run.
type Result struct {
	// Outputs holds the value each node passed to Ctx.SetOutput (nil if
	// none); RunEach returns its typed answers beside the Result instead.
	Outputs []any
	Metrics Metrics
	// Sends is nil unless Config.RecordTrace is set. Then Sends[2·e+dir]
	// is the send record of edge e in one direction (dir 0 when the
	// smaller endpoint ID sends): the round of each message it carried, in
	// send order, so a round appears once per message. AppendSend writes a
	// record and SendRounds reads it.
	Sends [][]byte
}

// AppendSend appends a message sent in round to rec, the send record of
// one directed edge whose previous message went in round prev (0 before
// its first), as the uvarint of the gap round-prev. Rounds must not
// decrease along a record. The engine records through it, and so does
// any other builder of a Result.Sends.
func AppendSend(rec []byte, prev, round int64) []byte {
	return binary.AppendUvarint(rec, uint64(round-prev))
}

// SendRounds yields the rounds of a send record written by AppendSend, in
// order.
func SendRounds(rec []byte) iter.Seq[int64] {
	return func(yield func(int64) bool) {
		var r int64
		for len(rec) > 0 {
			gap, k := binary.Uvarint(rec)
			rec = rec[k:]
			r += int64(gap)
			if !yield(r) {
				return
			}
		}
	}
}

const defaultMaxRounds = int64(1) << 40

type yieldKind int8

const (
	yieldRun  yieldKind = iota + 1 // scheduled wake
	yieldPark                      // Congest WaitMessage
	yieldHalt                      // program returned
)

type outMsg struct {
	nbIndex int32
	// span is the sender's open span at Send time — message attribution
	// must not shift when a node switches phases between sending and the
	// end-of-round flush.
	span int32
	tag  uint64
	msg  any
}

// nodeState holds the per-node state the scheduler does not scan per entry:
// the coroutine handles, the message buffers, and the (cold) output/error/
// span fields. The hot scheduling scalars — kind, halted, wake round, park
// deadline, queue seq — live in struct-of-arrays form on the Engine, so the
// stale-entry filter and batch loops touch dense arrays only.
type nodeState struct {
	id graph.NodeID

	// resume/stop drive the node's iter.Pull coroutine; yieldFn is the
	// coroutine's yield, stashed so Ctx.yield can switch back to the
	// engine. yieldFn returning false means the engine called stop — the
	// node must unwind (Ctx.yield panics errKilled, recovered in the
	// coroutine wrapper).
	resume  func() (struct{}, bool)
	stop    func()
	yieldFn func(struct{}) bool
	// step, while non-nil, is the program's Drive stepper: the engine calls
	// it directly at the node's wakes instead of resuming the coroutine,
	// which stays suspended inside Drive until it reports done.
	step Stepper

	// ctx is the node's handle, embedded to avoid a separate allocation
	// per node.
	ctx Ctx

	inbox []Inbound
	// spare is the inbox double-buffer: the slice handed out at the last
	// take becomes the fill buffer at the next one (see Ctx.take), so
	// steady-state message delivery stops allocating.
	spare  []Inbound
	outbox []outMsg

	output any
	perr   error

	// spanStack holds the node's open ledger spans (innermost last); empty
	// means the root span.
	spanStack []int32
	// resumeSpan is the span the node was in when the engine resumed it
	// this round, captured before the resume runs so the round's
	// cross-node pass can attribute the awake round without re-reading
	// mutated state.
	resumeSpan int32
}

// Engine executes one Program on every node of a graph.
type Engine struct {
	g   *graph.Graph
	cfg Config

	nodes []nodeState

	// Struct-of-arrays scheduling state, indexed by node ID (see nodeState).
	kind         []yieldKind
	halted       []bool
	wakeRound    []int64
	parkDeadline []int64 // <0: none
	seq          []int64 // invalidates stale queue entries
	awakeEpoch   []int64

	// met points at the in-flight run's metrics (resumeOne needs the
	// per-node awake counters).
	met *Metrics

	// Span ledger (span.go): interned (name, depth) spans and their
	// counters; index 0 is the root span every node starts in.
	spanIDs map[spanKey]int32
	spans   []SpanMetrics

	// lastSend holds each directed edge's latest send round under
	// Config.RecordTrace (see recordSend).
	lastSend []int64
}

// New creates an engine for one run over g. The graph must have sorted
// adjacency lists (all generators guarantee this).
func New(g *graph.Graph, cfg Config) *Engine {
	if cfg.Model != Congest && cfg.Model != Sleeping {
		panic("simnet: config needs an explicit Model")
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = defaultMaxRounds
	}
	return &Engine{g: g, cfg: cfg}
}

// start allocates the per-node state and wraps every node's program in an
// iter.Pull coroutine (started lazily at its first resume). Shared by the
// production scheduler and the frozen oracle scheduler in the tests.
func (e *Engine) start(p Program) *Result {
	n := e.g.N()
	e.nodes = make([]nodeState, n)
	e.kind = make([]yieldKind, n)
	e.halted = make([]bool, n)
	e.wakeRound = make([]int64, n)
	e.parkDeadline = make([]int64, n)
	e.seq = make([]int64, n)
	res := &Result{Outputs: make([]any, n)}
	res.Metrics.PerEdgeMessages = make([]int64, e.g.M())
	res.Metrics.PerNodeAwake = make([]int64, n)
	if e.cfg.RecordTrace {
		res.Sends = make([][]byte, 2*e.g.M())
		e.lastSend = make([]int64, 2*e.g.M())
	}
	e.spanIDs = make(map[spanKey]int32)
	e.internSpan(RootSpanName, 0)
	// Buffer arenas: the initial inbox/spare/outbox capacity of every node
	// is carved out of three shared chunks sized by degree (a node rarely
	// holds more than one message per incident edge per wake). Three
	// allocations replace ~3n individually grown slices at large n; a node
	// that outgrows its carve reallocates to the heap via plain append.
	total := 2 * e.g.M()
	inArena := make([]Inbound, 0, total)
	spArena := make([]Inbound, 0, total)
	outArena := make([]outMsg, 0, total)
	off := 0
	for i := 0; i < n; i++ {
		ns := &e.nodes[i]
		ns.id = graph.NodeID(i)
		deg := e.g.Degree(graph.NodeID(i))
		ns.inbox = inArena[off : off : off+deg]
		ns.spare = spArena[off : off : off+deg]
		ns.outbox = outArena[off : off : off+deg]
		off += deg
		ns.ctx = Ctx{eng: e, ns: ns}
		ns.resume, ns.stop = iter.Pull(func(yield func(struct{}) bool) {
			ns.yieldFn = yield
			defer func() {
				if r := recover(); r != nil {
					if r == errKilled {
						// Engine-initiated shutdown; unwind quietly.
						return
					}
					ns.perr = fmt.Errorf("node %d panicked: %v", ns.id, r)
				}
				e.kind[ns.id] = yieldHalt
			}()
			p(&ns.ctx)
		})
	}
	return res
}

// recordSend adds a message sent over directed edge di in round to
// res.Sends. Run and the frozen oracle both record through it.
func (e *Engine) recordSend(res *Result, di, round int64) {
	res.Sends[di] = AppendSend(res.Sends[di], e.lastSend[di], round)
	e.lastSend[di] = round
}

// resumeOne performs the node-local half of one wake: epoch/awake counters,
// the span snapshot, the round stamp, and the wake itself. It touches only
// state owned by node id (its array elements, its own struct); every
// cross-node effect waits for the pass after the round's wakes.
func (e *Engine) resumeOne(id graph.NodeID, cur int64) {
	ns := &e.nodes[id]
	e.awakeEpoch[id] = cur
	e.met.PerNodeAwake[id]++
	ns.resumeSpan = ns.curSpan()
	e.wakeRound[id] = cur
	e.dispatch(ns, cur)
}

// dispatch runs one wake of a node whose round stamp is already cur: a
// direct call of its Drive step if it has one, else a coroutine resume.
// When the step reports done, the coroutine resumes in the same wake and
// Drive returns there.
func (e *Engine) dispatch(ns *nodeState, cur int64) {
	if ns.step != nil && !e.runStep(ns, cur) {
		return
	}
	ns.resume()
}

// runStep calls ns's Drive stepper with the wake's arrivals and reports
// whether it is done (clearing it). Otherwise it books the next wake, which
// must be after cur. A panic fails the node the way a coroutine panic does.
func (e *Engine) runStep(ns *nodeState, cur int64) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			ns.perr = fmt.Errorf("node %d panicked: %v", ns.id, r)
			e.kind[ns.id] = yieldHalt
			done = false
		}
	}()
	next, done := ns.step.Step(ns.ctx.take())
	if done {
		ns.step = nil
		return true
	}
	if next <= cur {
		panic(notAfter(ns.id, next, cur))
	}
	e.wakeRound[ns.id] = next
	return false
}

// Run executes the program on all nodes until every node halts (or an error
// such as deadlock, round overflow, or a node panic occurs). Run may be
// called only once per Engine.
func (e *Engine) Run(p Program) (*Result, error) {
	res := e.start(p)
	defer e.shutdown()
	e.met = &res.Metrics

	n := e.g.N()
	met := &res.Metrics
	q := &wakeQueue{}
	// All nodes wake at round 0.
	for i := 0; i < n; i++ {
		q.push(0, graph.NodeID(i), 0)
	}

	halted := 0
	parked := 0
	// Per-round directed-edge load tracking (epoch trick).
	dirLoad := make([]int64, 2*e.g.M())
	dirSeen := make([]int64, 2*e.g.M())
	for i := range dirSeen {
		dirSeen[i] = -1
	}
	e.awakeEpoch = make([]int64, n)
	for i := range e.awakeEpoch {
		e.awakeEpoch[i] = -1
	}

	var cur int64 = -1
	spanPrev := int64(-1) // last round whose elapsed interval was attributed
	batch := make([]graph.NodeID, 0, n)
	for halted < n {
		r, wakes, ok := q.pop()
		if !ok {
			if parked > 0 {
				return nil, fmt.Errorf("simnet: deadlock at round %d: %d node(s) parked in WaitMessage with no pending wakeups", cur, parked)
			}
			return nil, fmt.Errorf("simnet: internal error: no wakeups and %d unhalted nodes", n-halted)
		}
		cur = r
		if cur > e.cfg.MaxRounds {
			return nil, fmt.Errorf("simnet: exceeded MaxRounds=%d", e.cfg.MaxRounds)
		}
		batch = batch[:0]
		for _, w := range wakes {
			if e.halted[w.id] || e.seq[w.id] != w.seq {
				continue // stale entry
			}
			if e.kind[w.id] == yieldPark {
				// Deadline expiry of a parked node.
				e.kind[w.id] = yieldRun
				parked--
			}
			batch = append(batch, w.id)
		}
		// Resume each awake node in ID order (a round's wakes arrive in
		// push order, so sort; singleton batches — the common case — skip
		// it).
		if len(batch) > 1 {
			slices.Sort(batch)
		}
		// Attribute the elapsed interval ending at this round to the span
		// of the earliest-resumed node (see span.go: the rule that makes
		// per-span rounds an exact partition of Metrics.Rounds). Read
		// before any resume mutates span stacks.
		if len(batch) > 0 {
			e.spans[e.nodes[batch[0]].curSpan()].Rounds += cur - spanPrev
			spanPrev = cur
		}
		// Wake phase: every batched node acts on its own state only.
		for _, id := range batch {
			e.resumeOne(id, cur)
		}
		// Cross-node pass in node-ID order, after all of the round's wakes:
		// error selection (the lowest panicking node ID wins), awake/span
		// accounting, halt bookkeeping, and wake-queue pushes.
		for _, id := range batch {
			ns := &e.nodes[id]
			if ns.perr != nil {
				e.halted[id] = true // coroutine has exited
				return nil, ns.perr
			}
			met.TotalAwake++
			e.spans[ns.resumeSpan].AwakeRounds++
			switch e.kind[id] {
			case yieldHalt:
				e.halted[id] = true
				halted++
				res.Outputs[id] = ns.output
			case yieldPark:
				parked++
				if e.parkDeadline[id] >= 0 {
					e.seq[id]++
					q.push(e.parkDeadline[id], id, e.seq[id])
				}
			case yieldRun:
				e.seq[id]++
				q.push(e.wakeRound[id], id, e.seq[id])
			}
		}
		// Deliver this round's messages in sender-ID order.
		var maxLoad int64 = 1
		for _, id := range batch {
			ns := &e.nodes[id]
			if len(ns.outbox) == 0 {
				continue
			}
			adj := e.g.Adj(id)
			for _, om := range ns.outbox {
				h := adj[om.nbIndex]
				met.Messages++
				met.PerEdgeMessages[h.ID]++
				e.spans[om.span].Messages++
				if e.cfg.MessageBits != nil {
					b := e.cfg.MessageBits(om.tag, om.msg)
					if b > met.MaxMessageBits {
						met.MaxMessageBits = b
					}
					if b > e.spans[om.span].MaxMessageBits {
						e.spans[om.span].MaxMessageBits = b
					}
					if e.cfg.MaxMessageBits > 0 && b > e.cfg.MaxMessageBits {
						return nil, fmt.Errorf(
							"simnet: strict CONGEST violation: node %d sent a %d-bit message (tag %d, %T) over edge %d in round %d, exceeding the %d-bit budget",
							id, b, om.tag, om.msg, h.ID, cur, e.cfg.MaxMessageBits)
					}
				}
				dirBit := int64(0)
				if id > h.To {
					dirBit = 1
				}
				di := 2*int64(h.ID) + dirBit
				if dirSeen[di] != cur {
					dirSeen[di] = cur
					dirLoad[di] = 0
				}
				dirLoad[di]++
				if dirLoad[di] > maxLoad {
					maxLoad = dirLoad[di]
				}
				if e.cfg.RecordTrace {
					e.recordSend(res, di, cur)
				}
				switch {
				case e.halted[h.To]:
					met.DroppedAfterHalt++
				case e.cfg.Model == Sleeping && e.awakeEpoch[h.To] != cur:
					met.LostMessages++
				default:
					dst := &e.nodes[h.To]
					dst.inbox = append(dst.inbox, Inbound{
						From:    id,
						NbIndex: int(h.Rev),
						Round:   cur,
						Tag:     om.tag,
						Body:    om.msg,
					})
					if e.kind[h.To] == yieldPark {
						e.kind[h.To] = yieldRun
						e.wakeRound[h.To] = cur + 1
						e.seq[h.To]++
						parked--
						q.push(cur+1, h.To, e.seq[h.To])
					}
				}
			}
			ns.outbox = ns.outbox[:0]
		}
		met.StrictRounds += maxLoad - 1
	}
	met.Rounds = cur + 1
	met.StrictRounds += met.Rounds
	for _, c := range met.PerEdgeMessages {
		if c > met.MaxEdgeMessages {
			met.MaxEdgeMessages = c
		}
	}
	for _, a := range met.PerNodeAwake {
		if a > met.MaxAwake {
			met.MaxAwake = a
		}
	}
	if len(e.spans) > 1 {
		met.Spans = e.spans // creation order is first-open order
	}
	if e.cfg.RecordTrace {
		compactSends(res.Sends)
	}
	return res, nil
}

// compactSends moves the send records, grown by append while the run
// recorded them, into one exactly sized allocation. Each record is capped
// at its length, so an AppendSend to one reallocates instead of
// overwriting the next; a record that carried no message stays nil.
func compactSends(sends [][]byte) {
	total := 0
	for _, rec := range sends {
		total += len(rec)
	}
	arena := make([]byte, 0, total)
	for di, rec := range sends {
		if rec != nil {
			start := len(arena)
			arena = append(arena, rec...)
			sends[di] = arena[start:len(arena):len(arena)]
		}
	}
}

// RunEach runs p on every node of g in a fresh engine and returns each
// node's answer — the value its program returns — indexed by node ID,
// together with the run's Result. It is the entry for whole-graph runs:
// every algorithm that runs one program on every node until each holds its
// answer starts here. On error (a node panic, deadlock, round overflow or
// a strict-CONGEST violation) the answers are nil.
func RunEach[T any](g *graph.Graph, cfg Config, p func(*Ctx) T) ([]T, *Result, error) {
	out := make([]T, g.N())
	res, err := New(g, cfg).Run(func(c *Ctx) { out[c.ID()] = p(c) })
	if err != nil {
		return nil, nil, err
	}
	return out, res, nil
}

// shutdown terminates any still-live node coroutines: stop makes the
// coroutine's pending (or next) yield return false, which Ctx.yield turns
// into an errKilled unwind. Safe on halted and never-started nodes.
func (e *Engine) shutdown() {
	for i := range e.nodes {
		e.nodes[i].stop()
	}
}

type killSentinel struct{}

func (killSentinel) Error() string { return "simnet: engine shut down" }

var errKilled error = killSentinel{}
