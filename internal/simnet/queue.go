package simnet

import (
	"math/bits"

	"dsssp/internal/graph"
)

// wakeQueue is the engine's round scheduler: a monotone radix heap
// (Ahuja, Mehlhorn, Orlin and Tarjan, J. ACM 1990). The engine only ever
// schedules rounds at or after the one it is running, so one structure
// serves both a CONGEST node that wakes next round and a sleeping-model node
// that sleeps across thousands of rounds, with no window to tune.
//
// An entry for round r is filed in buckets[bits.Len64(r ^ last)]: bucket 0
// holds round last itself, and bucket i > 0 holds the rounds that agree with
// last above bit i-1 and differ from it there. occ has bit i set iff bucket
// i is non-empty. Since last only grows, each entry is filed at most once
// per bit position over its lifetime.
//
// Entries carry the owning node's seq at push time; an entry whose seq no
// longer matches the node's is stale (the node was rescheduled, e.g. a
// parked node woken by a message before its deadline) and the engine skips
// it when the round is popped.
type wakeQueue struct {
	buckets [64][]wakeEntry
	occ     uint64
	last    int64
}

type wakeEntry struct {
	round int64
	id    graph.NodeID
	seq   int64
}

// push schedules node id to wake at round (with the node's current seq).
// round must be >= the last popped round.
func (q *wakeQueue) push(round int64, id graph.NodeID, seq int64) {
	i := bits.Len64(uint64(round ^ q.last))
	q.buckets[i] = append(q.buckets[i], wakeEntry{round, id, seq})
	q.occ |= 1 << i
}

// pop removes the earliest round holding at least one (possibly stale)
// entry and returns it with that round's entries, in push order; ok is
// false when the queue is empty. The returned slice aliases bucket 0's
// backing array and is valid until the next pop, or a push at the same
// round.
func (q *wakeQueue) pop() (round int64, wakes []wakeEntry, ok bool) {
	if q.occ == 0 {
		return 0, nil, false
	}
	if q.occ&1 == 0 {
		// Advance last to the minimum of the lowest non-empty bucket and
		// file its entries again; each lands in a strictly lower bucket.
		i := bits.TrailingZeros64(q.occ)
		b := q.buckets[i]
		q.last = b[0].round
		for _, w := range b[1:] {
			q.last = min(q.last, w.round)
		}
		q.buckets[i] = b[:0]
		q.occ &^= 1 << i
		for _, w := range b {
			q.push(w.round, w.id, w.seq)
		}
	}
	wakes = q.buckets[0]
	q.buckets[0] = wakes[:0]
	q.occ &^= 1
	return q.last, wakes, true
}
