package simnet

import (
	"fmt"

	"dsssp/internal/graph"
)

// runOracle is a frozen port of the engine's original scheduler — a global
// (round, id) binary heap popped one entry at a time — kept verbatim as a
// differential-testing oracle for the radix-heap scheduler in Run. It
// shares start, Ctx, and shutdown with the production path, so any
// divergence in Metrics, Sends, node answers or error text is attributable to
// the scheduler rewrite.
//
// Do not "improve" this code: its value is being the old semantics. (The
// only edits since freezing are mechanical: field relocations tracking the
// struct-of-arrays layout change — ns.kind → e.kind[id] and friends —,
// carrying the message tag beside the body, ns.resume() → e.dispatch,
// the engine's one choice between a coroutine resume and a Drive step,
// the reverse index moving from the Engine into oracleReverseIndex, the
// one-message-per-edge-direction check leaving with Config.StrictCongest,
// the record line calling recordSend, which Run shares, and the halt-time
// store leaving with Result.Outputs.) Its heap helpers, heapPushWake and
// heapPopWake, are at the end of this file; production code does not use
// them.
//
// The oracle derives each arrival port from its own reverse index, never
// from graph.Half.Rev, so a wrong Rev makes Run disagree with it.
func (e *Engine) runOracle(p Program) (*Result, error) {
	res := e.start(p)
	defer e.shutdown()

	n := e.g.N()
	met := &res.Metrics
	revOff, revFlat := oracleReverseIndex(e.g)

	// All nodes wake at round 0.
	var wh []wakeEntry
	for i := 0; i < n; i++ {
		wh = heapPushWake(wh, wakeEntry{0, graph.NodeID(i), 0})
	}

	halted := 0
	parked := 0
	dirLoad := make([]int64, 2*e.g.M())
	dirSeen := make([]int64, 2*e.g.M())
	for i := range dirSeen {
		dirSeen[i] = -1
	}
	awakeEpoch := make([]int64, n)
	for i := range awakeEpoch {
		awakeEpoch[i] = -1
	}

	var cur int64 = -1
	batch := make([]graph.NodeID, 0, n)
	for halted < n {
		if len(wh) == 0 {
			if parked > 0 {
				return nil, fmt.Errorf("simnet: deadlock at round %d: %d node(s) parked in WaitMessage with no pending wakeups", cur, parked)
			}
			return nil, fmt.Errorf("simnet: internal error: no wakeups and %d unhalted nodes", n-halted)
		}
		cur = wh[0].round
		if cur > e.cfg.MaxRounds {
			return nil, fmt.Errorf("simnet: exceeded MaxRounds=%d", e.cfg.MaxRounds)
		}
		batch = batch[:0]
		for len(wh) > 0 && wh[0].round == cur {
			var we wakeEntry
			we, wh = heapPopWake(wh)
			if e.halted[we.id] || e.seq[we.id] != we.seq {
				continue // stale entry
			}
			if e.kind[we.id] == yieldPark {
				// Deadline expiry of a parked node.
				e.kind[we.id] = yieldRun
				parked--
			}
			batch = append(batch, we.id)
		}
		// Resume each awake node in ID order (heap pops give ID order for
		// equal rounds).
		for _, id := range batch {
			ns := &e.nodes[id]
			awakeEpoch[id] = cur
			met.PerNodeAwake[id]++
			met.TotalAwake++
			e.wakeRound[id] = cur
			e.dispatch(ns, cur)
			if ns.perr != nil {
				e.halted[id] = true // goroutine has exited
				return nil, ns.perr
			}
			switch e.kind[id] {
			case yieldHalt:
				e.halted[id] = true
				halted++
			case yieldPark:
				parked++
				if e.parkDeadline[id] >= 0 {
					e.seq[id]++
					wh = heapPushWake(wh, wakeEntry{e.parkDeadline[id], id, e.seq[id]})
				}
			case yieldRun:
				e.seq[id]++
				wh = heapPushWake(wh, wakeEntry{e.wakeRound[id], id, e.seq[id]})
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
				if e.cfg.MessageBits != nil {
					b := e.cfg.MessageBits(om.tag, om.msg)
					if b > met.MaxMessageBits {
						met.MaxMessageBits = b
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
				case e.cfg.Model == Sleeping && awakeEpoch[h.To] != cur:
					met.LostMessages++
				default:
					dst := &e.nodes[h.To]
					dst.inbox = append(dst.inbox, Inbound{
						From:    id,
						NbIndex: int(revFlat[revOff[id]+int32(om.nbIndex)]),
						Round:   cur,
						Tag:     om.tag,
						Body:    om.msg,
					})
					if e.kind[h.To] == yieldPark {
						e.kind[h.To] = yieldRun
						e.wakeRound[h.To] = cur + 1
						e.seq[h.To]++
						parked--
						wh = heapPushWake(wh, wakeEntry{cur + 1, h.To, e.seq[h.To]})
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
	return res, nil
}

// oracleReverseIndex is the engine's original reverse index, frozen with
// runOracle: revFlat[revOff[u]+i] is the neighbor's adjacency index of the
// edge that is u's i-th edge.
func oracleReverseIndex(g *graph.Graph) (revOff, revFlat []int32) {
	n := g.N()
	revOff = make([]int32, n+1)
	for u := 0; u < n; u++ {
		revOff[u+1] = revOff[u] + int32(g.Degree(graph.NodeID(u)))
	}
	revFlat = make([]int32, revOff[n])
	// slots[id] remembers the first-seen endpoint of edge id; EdgeIDs are
	// dense 0..m-1, so a flat slice replaces a map here.
	type slot struct {
		u    graph.NodeID
		iAdj int32
	}
	slots := make([]slot, g.M())
	for i := range slots {
		slots[i].u = -1
	}
	for u := 0; u < n; u++ {
		off := revOff[u]
		for i, h := range g.Adj(graph.NodeID(u)) {
			if s := slots[h.ID]; s.u >= 0 {
				revFlat[off+int32(i)] = s.iAdj
				revFlat[revOff[s.u]+s.iAdj] = int32(i)
			} else {
				slots[h.ID] = slot{graph.NodeID(u), int32(i)}
			}
		}
	}
	return revOff, revFlat
}

func wakeLess(a, b wakeEntry) bool {
	if a.round != b.round {
		return a.round < b.round
	}
	return a.id < b.id
}

// heapPushWake / heapPopWake implement a plain binary min-heap on a typed
// slice: unlike container/heap there is no interface{} boxing, so pushing a
// wake entry does not allocate.
func heapPushWake(h []wakeEntry, e wakeEntry) []wakeEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !wakeLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func heapPopWake(h []wakeEntry) (wakeEntry, []wakeEntry) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h) && wakeLess(h[l], h[s]) {
			s = l
		}
		if r < len(h) && wakeLess(h[r], h[s]) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return top, h
}
