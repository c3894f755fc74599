package proto

import (
	"math/rand"
	"reflect"
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

// refMailbox is the plain map-based model of Mailbox's tag buffering:
// per-tag FIFO queues, Take drains a tag, nothing is ever recycled.
type refMailbox map[uint64][]Msg

func (r refMailbox) pump(in []simnet.Inbound) {
	for _, ib := range in {
		r[ib.Tag] = append(r[ib.Tag], Msg{From: ib.From, NbIndex: ib.NbIndex, Round: ib.Round, Body: ib.Msg})
	}
}

func (r refMailbox) take(tag uint64) []Msg {
	q := r[tag]
	delete(r, tag)
	return q
}

// TestMailboxMatchesMapModel drives the slot mailbox and the map model with
// the same random sequence of receives, Takes, and Pending calls. Tags are
// drawn from a small pool plus a few far-apart values, and most tags go
// untaken for several receives, so queues build up across receives the way
// phase drift buffers them. Every Take must return exactly the model's
// messages (nil for an absent tag), every Pending the model's count, and
// every slice handed out must stay intact until the next receive — the
// ownership rule that lets the mailbox recycle its buffers.
func TestMailboxMatchesMapModel(t *testing.T) {
	tags := []uint64{0, 1, 2, 3, 7, 1 << 40, 1<<62 + 5, ^uint64(0)}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &Mailbox{}
		ref := refMailbox{}
		type loan struct {
			got, want []Msg
		}
		var lent []loan
		var round int64
		for step := 0; step < 300; step++ {
			tag := tags[rng.Intn(len(tags))]
			switch op := rng.Intn(10); {
			case op < 4: // receive a batch
				for _, l := range lent {
					if !reflect.DeepEqual(l.got, l.want) {
						t.Fatalf("seed %d step %d: a slice taken before this receive was overwritten early:\ngot  %v\nwant %v", seed, step, l.got, l.want)
					}
				}
				lent = lent[:0]
				round++
				in := make([]simnet.Inbound, rng.Intn(7))
				for i := range in {
					in[i] = simnet.Inbound{
						From:    graph.NodeID(rng.Intn(16)),
						NbIndex: rng.Intn(4),
						Round:   round,
						Tag:     tags[rng.Intn(len(tags))],
						Msg:     rng.Int63(),
					}
				}
				m.pump(in)
				ref.pump(in)
			case op < 8:
				got, want := m.Take(tag), ref.take(tag)
				if want == nil {
					if got != nil {
						t.Fatalf("seed %d step %d: Take(%d) of an absent tag = %v, want nil", seed, step, tag, got)
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: Take(%d) = %v, want %v", seed, step, tag, got, want)
				}
				lent = append(lent, loan{got, append([]Msg(nil), want...)})
			default:
				if got, want := m.Pending(tag), len(ref[tag]); got != want {
					t.Fatalf("seed %d step %d: Pending(%d) = %d, want %d", seed, step, tag, got, want)
				}
			}
		}
		for _, tag := range tags {
			if got, want := m.Pending(tag), len(ref[tag]); got != want {
				t.Fatalf("seed %d: final Pending(%d) = %d, want %d", seed, tag, got, want)
			}
		}
	}
}
