package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

// send is one message of a hand-built instance: its round and its edge,
// dir 0 when the smaller endpoint ID sends.
type send struct {
	round int64
	edge  graph.EdgeID
	dir   int
}

// instance builds the engine result of an instance that ran for rounds
// rounds over a graph with m edges and sent the given messages, in
// non-decreasing round order: its Sends are recorded through
// simnet.AppendSend as the engine records them, and its Metrics count the
// messages per edge as the engine counts them.
func instance(m int, rounds int64, sends ...send) *simnet.Result {
	res := &simnet.Result{Sends: make([][]byte, 2*m)}
	met := &res.Metrics
	met.Rounds = rounds
	met.PerEdgeMessages = make([]int64, m)
	last := make([]int64, 2*m)
	for _, s := range sends {
		di := 2*int(s.edge) + s.dir
		res.Sends[di] = simnet.AppendSend(res.Sends[di], last[di], s.round)
		last[di] = s.round
		met.Messages++
		met.PerEdgeMessages[s.edge]++
		met.MaxEdgeMessages = max(met.MaxEdgeMessages, met.PerEdgeMessages[s.edge])
	}
	return res
}

// makespanRef is the pre-flat-array makespan (maps + sort.Slice), kept as
// the reference the rewritten implementation is pinned against.
func makespanRef(m int, results []*simnet.Result, delays []int64) int64 {
	rounds := make(map[int][]int64)
	var horizon int64
	for i, res := range results {
		d := delays[i]
		if res.Metrics.Rounds+d > horizon {
			horizon = res.Metrics.Rounds + d
		}
		for di := 0; di < 2*m; di++ {
			for r := range simnet.SendRounds(res.Sends[di]) {
				rounds[di] = append(rounds[di], r+d)
			}
		}
	}
	maxLoad := make(map[int64]int64)
	for _, rs := range rounds {
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
		run := int64(0)
		for i := 0; i < len(rs); i++ {
			if i > 0 && rs[i] == rs[i-1] {
				run++
			} else {
				run = 1
			}
			if run > maxLoad[rs[i]] {
				maxLoad[rs[i]] = run
			}
		}
	}
	total := horizon
	for _, l := range maxLoad {
		total += l - 1
	}
	return total
}

// TestMakespanPinnedFixedTraces pins makespan on hand-computed fixed
// instances so the per-edge walk provably reproduces the map-based
// original.
func TestMakespanPinnedFixedTraces(t *testing.T) {
	insts := []*simnet.Result{
		instance(2, 4, send{0, 0, 0}, send{1, 0, 0}, send{2, 1, 1}),
		instance(2, 3, send{0, 0, 0}, send{1, 1, 1}, send{2, 0, 0}),
		instance(2, 5, send{4, 1, 0}),
	}
	aligned := makespan(2, insts, []int64{0, 0, 0})
	if aligned != 6 { // horizon 5, edge0/dir0 carries load 2 in round 0
		t.Fatalf("aligned makespan %d, want 6", aligned)
	}
	delayed := makespan(2, insts, []int64{0, 1, 2})
	if delayed != 9 { // horizon 7, load 2 in rounds 1 (e0d0) and 2 (e1d1)
		t.Fatalf("delayed makespan %d, want 9", delayed)
	}
	for _, delays := range [][]int64{{0, 0, 0}, {0, 1, 2}, {3, 0, 5}} {
		if got, want := makespan(2, insts, delays), makespanRef(2, insts, delays); got != want {
			t.Fatalf("delays %v: makespan %d, reference %d", delays, got, want)
		}
	}
	if makespan(2, nil, nil) != 0 {
		t.Fatal("empty composition must have zero makespan")
	}
}

// TestMakespanMatchesReferenceRandom cross-checks makespan against the
// map-based reference on randomized instances and delays.
func TestMakespanMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for it := 0; it < 200; it++ {
		m := rng.Intn(8) + 1
		nTr := rng.Intn(6) + 1
		insts := make([]*simnet.Result, nTr)
		delays := make([]int64, nTr)
		for i := range insts {
			rounds := int64(rng.Intn(20) + 1)
			es := make([]send, rng.Intn(12))
			for j := range es {
				es[j] = send{rng.Int63n(rounds), graph.EdgeID(rng.Intn(m)), rng.Intn(2)}
			}
			sort.Slice(es, func(a, b int) bool { return es[a].round < es[b].round })
			insts[i] = instance(m, rounds, es...)
			delays[i] = rng.Int63n(10)
		}
		if got, want := makespan(m, insts, delays), makespanRef(m, insts, delays); got != want {
			t.Fatalf("iteration %d: makespan %d, reference %d (m=%d, delays=%v)",
				it, got, want, m, delays)
		}
	}
}

// TestComposePinned pins the full Compose output (including the seeded
// random-delay makespan) on a fixed input, guarding the Section 1.1
// composition numbers across refactors.
func TestComposePinned(t *testing.T) {
	a := instance(3, 6, send{0, 0, 0}, send{2, 1, 0}, send{4, 2, 1})
	a.Metrics.MaxMessageBits = 48
	b := instance(3, 4, send{0, 0, 0}, send{1, 1, 0}, send{2, 2, 1})
	b.Metrics.MaxMessageBits = 32
	got := Compose(3, []*simnet.Result{a, b}, 42)
	want := Composition{
		Dilation:           6,
		Congestion:         2,
		MakespanAligned:    7, // horizon 6 + one serialization on edge 0
		MakespanRandom:     makespanRef(3, []*simnet.Result{a, b}, composeDelays(2, 2, 42)),
		MakespanSequential: 10,
		MaxMessageBits:     48,
		Messages:           6,
		InstanceCongestion: 1, // each instance uses every edge once; together they use edge 0 twice
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Compose = %+v, want %+v", got, want)
	}
}

// composeDelays replays Compose's seeded delay draw so pins stay honest if
// the congestion value ever changes.
func composeDelays(nTraces int, congestion int64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	span := congestion
	if span < 1 {
		span = 1
	}
	delays := make([]int64, nTraces)
	for i := range delays {
		delays[i] = rng.Int63n(span)
	}
	return delays
}

func TestComposeBasics(t *testing.T) {
	// Two instances, both using edge 0 in round 0: aligned must serialize
	// (+1), a delayed composition must not.
	a := instance(1, 3, send{0, 0, 0})
	b := instance(1, 3, send{0, 0, 0})
	c := Compose(1, []*simnet.Result{a, b}, 1)
	if c.Dilation != 3 || c.Congestion != 2 || c.MakespanSequential != 6 {
		t.Fatalf("composition %+v", c)
	}
	if c.MakespanAligned != 4 { // horizon 3 + one serialization
		t.Fatalf("aligned=%d, want 4", c.MakespanAligned)
	}
}

func TestComposeNoConflicts(t *testing.T) {
	a := instance(1, 5, send{0, 0, 0})
	b := instance(1, 5, send{1, 0, 0})
	c := Compose(1, []*simnet.Result{a, b}, 1)
	if c.MakespanAligned != 5 {
		t.Fatalf("no-conflict aligned=%d, want 5", c.MakespanAligned)
	}
}

func TestComposeDirectionsIndependent(t *testing.T) {
	// Same edge, opposite directions, same round: no serialization needed
	// (CONGEST allows one message per direction).
	a := instance(1, 2, send{0, 0, 0})
	b := instance(1, 2, send{0, 0, 1})
	c := Compose(1, []*simnet.Result{a, b}, 1)
	if c.MakespanAligned != 2 {
		t.Fatalf("aligned=%d, want 2", c.MakespanAligned)
	}
}

func TestRandomDelaysBeatAligned(t *testing.T) {
	// 20 identical wave instances sweeping across 25 edges for 100 rounds:
	// aligned stacks all 20 on the same edge every round (makespan ~ 20T),
	// random delays spread them (makespan ~ C + T).
	const m, nInst, rounds = 25, 20, 100
	insts := make([]*simnet.Result, nInst)
	for i := range insts {
		es := make([]send, rounds)
		for r := range es {
			es[r] = send{int64(r), graph.EdgeID(r % m), 0}
		}
		insts[i] = instance(m, rounds, es...)
	}
	c := Compose(m, insts, 7)
	if c.MakespanAligned < nInst*rounds/2 {
		t.Fatalf("aligned %d unexpectedly small", c.MakespanAligned)
	}
	if c.MakespanRandom*3 >= c.MakespanAligned {
		t.Fatalf("random %d not far better than aligned %d", c.MakespanRandom, c.MakespanAligned)
	}
	if c.MakespanRandom >= c.MakespanSequential {
		t.Fatalf("random %d not better than sequential %d", c.MakespanRandom, c.MakespanSequential)
	}
}

func TestMakespanBoundHolds(t *testing.T) {
	// The scheduling theorem shape: random-delay makespan = O(C + T) with
	// modest constants, far below C*T for many bursty instances.
	insts := make([]*simnet.Result, 40)
	for i := range insts {
		es := make([]send, 10)
		for r := range es {
			es[r] = send{int64(r * 3), 0, 0}
		}
		insts[i] = instance(1, 30, es...)
	}
	c := Compose(1, insts, 3)
	bound := 4 * (c.Congestion + c.Dilation)
	if c.MakespanRandom > bound {
		t.Fatalf("random makespan %d exceeds 4(C+T)=%d", c.MakespanRandom, bound)
	}
}

func TestAPSPWithRealTraces(t *testing.T) {
	// End-to-end: record real Bellman-Ford-ish floods per source and
	// compose. Uses a tiny flood program for speed.
	g := graph.RandomConnected(24, 24, graph.UnitWeights, 5)
	msgs := make([]int64, g.N())
	run := func(g *graph.Graph, s graph.NodeID) (*simnet.Result, error) {
		eng := simnet.New(g, simnet.Config{Model: simnet.Congest, RecordTrace: true})
		res, err := eng.Run(func(c *simnet.Ctx) {
			d := int64(-1)
			end := int64(c.N())
			if c.ID() == s {
				d = 0
				for i := 0; i < c.Degree(); i++ {
					c.Send(i, int64(1))
				}
			}
			for c.Round() < end {
				for _, m := range c.WaitMessage(end) {
					if d == -1 {
						d = m.Body.(int64)
						for i := 0; i < c.Degree(); i++ {
							c.Send(i, d+1)
						}
					}
				}
				if d != -1 {
					break
				}
			}
		})
		if err != nil {
			return nil, err
		}
		msgs[s] = res.Metrics.Messages
		// One undelayed instance serializes exactly as the engine's own
		// megaround accounting does.
		if one := Compose(g.M(), []*simnet.Result{res}, 1); one.MakespanAligned != res.Metrics.StrictRounds {
			return nil, fmt.Errorf("aligned makespan %d of one instance, engine strict rounds %d", one.MakespanAligned, res.Metrics.StrictRounds)
		}
		return res, nil
	}
	comp, err := APSPParallel(g, nil, run, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, m := range msgs {
		total += m
	}
	if comp.Messages != total {
		t.Fatalf("composition counts %d messages, the instances sent %d", comp.Messages, total)
	}
	if comp.InstanceCongestion < 1 || comp.InstanceCongestion > comp.Congestion {
		t.Fatalf("instance congestion %d outside [1, congestion %d]", comp.InstanceCongestion, comp.Congestion)
	}
	if comp.MakespanRandom > comp.MakespanSequential {
		t.Fatalf("random %d worse than sequential %d", comp.MakespanRandom, comp.MakespanSequential)
	}
	if comp.Congestion < 2 {
		t.Fatalf("expected overlapping edge usage, congestion=%d", comp.Congestion)
	}
}

// TestAPSPParallelLowestSourceError: when several instances fail, the
// error names the lowest failing source at any pool size, however the
// goroutines happen to be scheduled. Source 0 is slow and succeeds, so the
// other workers race through the failing sources meanwhile.
func TestAPSPParallelLowestSourceError(t *testing.T) {
	g := graph.Path(16, graph.UnitWeights)
	run := func(g *graph.Graph, s graph.NodeID) (*simnet.Result, error) {
		if s == 0 {
			time.Sleep(time.Millisecond)
			return instance(g.M(), 0), nil
		}
		return nil, fmt.Errorf("instance %d failed", s)
	}
	const want = "sched: SSSP from 1: instance 1 failed"
	for trial := 0; trial < 50; trial++ {
		_, err := APSPParallel(g, nil, run, 1, 4)
		if err == nil || err.Error() != want {
			t.Fatalf("trial %d: error %v, want %q", trial, err, want)
		}
	}
}

// FuzzMakespan compares makespan with makespanRef on random compositions:
// 1 to 8 edges and up to 6 instances, each with a random delay and up to
// 16 sends, empty instances and repeated rounds included. Round gaps reach
// two- and three-byte uvarints; both sides read results built by instance,
// that is through simnet.AppendSend. makespan's arrays are horizon-sized,
// so gaps up to 2^40 (six-byte uvarints) are checked on the record alone:
// every instance's rounds, scaled by 2^26, must read back from
// simnet.SendRounds.
func FuzzMakespan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int64(b)
		}
		m := int(next()%8) + 1
		results := make([]*simnet.Result, next()%7)
		delays := make([]int64, len(results))
		for i := range results {
			delays[i] = next()
			sends := make([]send, next()%17)
			var r int64
			for j := range sends {
				switch b := next(); b & 3 {
				case 0: // a repeated round
				case 1:
					r += 1 + b>>2%8
				case 2:
					r += 128 + b>>2 // a two-byte gap
				case 3:
					r += 1<<14 + b>>2<<6 // a three-byte gap
				}
				e := next()
				sends[j] = send{r, graph.EdgeID(e % int64(m)), int(e>>3) & 1}
			}
			results[i] = instance(m, r+1+next()%4, sends...)

			var rec []byte
			var prev int64
			for _, s := range sends {
				rec = simnet.AppendSend(rec, prev, s.round<<26)
				prev = s.round << 26
			}
			j := 0
			for got := range simnet.SendRounds(rec) {
				if j == len(sends) || got != sends[j].round<<26 {
					t.Fatalf("instance %d: record read back round %d at %d, want %v", i, got, j, sends)
				}
				j++
			}
			if j != len(sends) {
				t.Fatalf("instance %d: record read back %d of %d rounds", i, j, len(sends))
			}
		}
		if got, want := makespan(m, results, delays), makespanRef(m, results, delays); got != want {
			t.Fatalf("makespan %d, reference %d (m=%d, delays=%v)", got, want, m, delays)
		}
	})
}
