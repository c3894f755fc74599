package simnet

import (
	"cmp"
	"slices"
	"testing"

	"dsssp/internal/graph"
)

// FuzzWakeQueue drives wakeQueue on its own against a push-ordered slice:
// every pop must return the smallest pending round with exactly the entries
// pushed for it, in push order, and an empty queue must say so. Every 2
// input bytes are one operation. Op byte b%4 == 3 pops; otherwise it pushes
// node b>>2&7 with a fresh seq, so ids repeat and stale entries occur, at
// the last popped round plus a gap chosen by the arg byte: 0, 1, a few,
// about 1 024, about 3 000, 2^40, a power of two up to 2^61, or a jump to
// near 2^62. Rounds saturate at 2^62, so they stay pushable. After the
// input the queue is drained. The checked-in corpus
// (testdata/fuzz/FuzzWakeQueue) holds dense gap-1 traffic, far jumps,
// stale-heavy and equal-round batches, and a jump to 2^62.
func FuzzWakeQueue(f *testing.F) {
	const top = int64(1) << 62
	f.Fuzz(func(t *testing.T, data []byte) {
		var q wakeQueue
		var pending []wakeEntry // in push order
		var last, seq int64
		pop := func() {
			r, got, ok := q.pop()
			if len(pending) == 0 {
				if ok {
					t.Fatalf("pop on an empty queue = round %d, %v, true", r, got)
				}
				return
			}
			want := slices.MinFunc(pending, func(a, b wakeEntry) int { return cmp.Compare(a.round, b.round) }).round
			var wantWakes []wakeEntry
			pending = slices.DeleteFunc(pending, func(w wakeEntry) bool {
				if w.round == want {
					wantWakes = append(wantWakes, w)
				}
				return w.round == want
			})
			if !ok || r != want || !slices.Equal(got, wantWakes) {
				t.Fatalf("pop = round %d, %v, %v; want round %d, %v, true", r, got, ok, want, wantWakes)
			}
			last = r
		}
		for ; len(data) >= 2; data = data[2:] {
			op, arg := data[0], int64(data[1])
			if op%4 == 3 {
				pop()
				continue
			}
			var gap int64
			switch arg & 7 {
			case 0:
				gap = 0
			case 1:
				gap = 1
			case 2:
				gap = 1 + arg>>3%4
			case 3:
				gap = 1022 + arg>>3%4
			case 4:
				gap = 2990 + arg>>3
			case 5:
				gap = 1<<40 + arg>>3
			case 6:
				gap = top - arg>>3 - last
			case 7:
				gap = 1 << min(arg>>3*2, 61)
			}
			round := last + max(gap, 0)
			if round > top {
				round = max(last, top)
			}
			seq++
			w := wakeEntry{round, graph.NodeID(op >> 2 & 7), seq}
			q.push(w.round, w.id, w.seq)
			pending = append(pending, w)
		}
		for len(pending) > 0 {
			pop()
		}
		pop()
	})
}
