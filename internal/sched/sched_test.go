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

// makespanRef is the pre-flat-array makespan (maps + sort.Slice), kept as
// the reference the rewritten implementation is pinned against.
func makespanRef(m int, traces []Trace, delays []int64) int64 {
	type key struct {
		edge graph.EdgeID
		dir  byte
	}
	rounds := make(map[key][]int64)
	var horizon int64
	for i, tr := range traces {
		d := delays[i]
		if tr.Rounds+d > horizon {
			horizon = tr.Rounds + d
		}
		for _, e := range tr.Entries {
			k := key{e.Edge, e.Dir}
			rounds[k] = append(rounds[k], e.Round+d)
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

// TestMakespanPinnedFixedTraces pins makespan on hand-computed fixed traces
// so the flat-array rewrite provably reproduces the map-based original.
func TestMakespanPinnedFixedTraces(t *testing.T) {
	traces := []Trace{
		{Rounds: 4, Entries: []simnet.TraceEntry{
			{Round: 0, Edge: 0, Dir: 0}, {Round: 1, Edge: 0, Dir: 0}, {Round: 2, Edge: 1, Dir: 1},
		}},
		{Rounds: 3, Entries: []simnet.TraceEntry{
			{Round: 0, Edge: 0, Dir: 0}, {Round: 1, Edge: 1, Dir: 1}, {Round: 2, Edge: 0, Dir: 0},
		}},
		{Rounds: 5, Entries: []simnet.TraceEntry{
			{Round: 4, Edge: 1, Dir: 0},
		}},
	}
	aligned := makespan(2, traces, []int64{0, 0, 0})
	if aligned != 6 { // horizon 5, edge0/dir0 carries load 2 in round 0
		t.Fatalf("aligned makespan %d, want 6", aligned)
	}
	delayed := makespan(2, traces, []int64{0, 1, 2})
	if delayed != 9 { // horizon 7, load 2 in rounds 1 (e0d0) and 2 (e1d1)
		t.Fatalf("delayed makespan %d, want 9", delayed)
	}
	for _, delays := range [][]int64{{0, 0, 0}, {0, 1, 2}, {3, 0, 5}} {
		if got, want := makespan(2, traces, delays), makespanRef(2, traces, delays); got != want {
			t.Fatalf("delays %v: makespan %d, reference %d", delays, got, want)
		}
	}
	if makespan(2, nil, nil) != 0 {
		t.Fatal("empty composition must have zero makespan")
	}
}

// TestMakespanMatchesReferenceRandom cross-checks the flat-array makespan
// against the map-based reference on randomized traces and delays.
func TestMakespanMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for it := 0; it < 200; it++ {
		m := rng.Intn(8) + 1
		nTr := rng.Intn(6) + 1
		traces := make([]Trace, nTr)
		delays := make([]int64, nTr)
		for i := range traces {
			rounds := int64(rng.Intn(20) + 1)
			k := rng.Intn(12)
			es := make([]simnet.TraceEntry, 0, k)
			for j := 0; j < k; j++ {
				es = append(es, simnet.TraceEntry{
					Round: rng.Int63n(rounds),
					Edge:  graph.EdgeID(rng.Intn(m)),
					Dir:   byte(rng.Intn(2)),
				})
			}
			sort.Slice(es, func(a, b int) bool { return es[a].Round < es[b].Round })
			traces[i] = Trace{Rounds: rounds, Entries: es}
			delays[i] = rng.Int63n(10)
		}
		if got, want := makespan(m, traces, delays), makespanRef(m, traces, delays); got != want {
			t.Fatalf("iteration %d: makespan %d, reference %d (m=%d, traces=%+v, delays=%v)",
				it, got, want, m, traces, delays)
		}
	}
}

// TestComposePinned pins the full Compose output (including the seeded
// random-delay makespan) on a fixed input, guarding the Section 1.1
// composition numbers across refactors.
func TestComposePinned(t *testing.T) {
	a := Trace{Rounds: 6, Entries: []simnet.TraceEntry{
		{Round: 0, Edge: 0, Dir: 0}, {Round: 2, Edge: 1, Dir: 0}, {Round: 4, Edge: 2, Dir: 1},
	}, MaxMessageBits: 48, MaxEdgeMessages: 1}
	b := Trace{Rounds: 4, Entries: []simnet.TraceEntry{
		{Round: 0, Edge: 0, Dir: 0}, {Round: 1, Edge: 1, Dir: 0}, {Round: 2, Edge: 2, Dir: 1},
	}, MaxMessageBits: 32, MaxEdgeMessages: 1}
	got := Compose(3, []Trace{a, b}, 42)
	want := Composition{
		Dilation:           6,
		Congestion:         2,
		MakespanAligned:    7, // horizon 6 + one serialization on edge 0
		MakespanRandom:     makespanRef(3, []Trace{a, b}, composeDelays(2, 2, 42)),
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
	a := Trace{Rounds: 3, Entries: []simnet.TraceEntry{{Round: 0, Edge: 0, Dir: 0}}}
	b := Trace{Rounds: 3, Entries: []simnet.TraceEntry{{Round: 0, Edge: 0, Dir: 0}}}
	c := Compose(1, []Trace{a, b}, 1)
	if c.Dilation != 3 || c.Congestion != 2 || c.MakespanSequential != 6 {
		t.Fatalf("composition %+v", c)
	}
	if c.MakespanAligned != 4 { // horizon 3 + one serialization
		t.Fatalf("aligned=%d, want 4", c.MakespanAligned)
	}
}

func TestComposeNoConflicts(t *testing.T) {
	a := Trace{Rounds: 5, Entries: []simnet.TraceEntry{{Round: 0, Edge: 0, Dir: 0}}}
	b := Trace{Rounds: 5, Entries: []simnet.TraceEntry{{Round: 1, Edge: 0, Dir: 0}}}
	c := Compose(1, []Trace{a, b}, 1)
	if c.MakespanAligned != 5 {
		t.Fatalf("no-conflict aligned=%d, want 5", c.MakespanAligned)
	}
}

func TestComposeDirectionsIndependent(t *testing.T) {
	// Same edge, opposite directions, same round: no serialization needed
	// (CONGEST allows one message per direction).
	a := Trace{Rounds: 2, Entries: []simnet.TraceEntry{{Round: 0, Edge: 0, Dir: 0}}}
	b := Trace{Rounds: 2, Entries: []simnet.TraceEntry{{Round: 0, Edge: 0, Dir: 1}}}
	c := Compose(1, []Trace{a, b}, 1)
	if c.MakespanAligned != 2 {
		t.Fatalf("aligned=%d, want 2", c.MakespanAligned)
	}
}

func TestRandomDelaysBeatAligned(t *testing.T) {
	// 20 identical wave instances sweeping across 25 edges for 100 rounds:
	// aligned stacks all 20 on the same edge every round (makespan ~ 20T),
	// random delays spread them (makespan ~ C + T).
	const m, nInst, rounds = 25, 20, 100
	traces := make([]Trace, nInst)
	for i := range traces {
		es := make([]simnet.TraceEntry, rounds)
		for r := range es {
			es[r] = simnet.TraceEntry{Round: int64(r), Edge: graph.EdgeID(r % m), Dir: 0}
		}
		traces[i] = Trace{Rounds: rounds, Entries: es}
	}
	c := Compose(m, traces, 7)
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
	traces := make([]Trace, 40)
	for i := range traces {
		es := make([]simnet.TraceEntry, 10)
		for r := range es {
			es[r] = simnet.TraceEntry{Round: int64(r * 3), Edge: 0, Dir: 0}
		}
		traces[i] = Trace{Rounds: 30, Entries: es}
	}
	c := Compose(1, traces, 3)
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
	run := func(g *graph.Graph, s graph.NodeID) (Trace, error) {
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
						d = m.Msg.(int64)
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
			return Trace{}, err
		}
		msgs[s] = res.Metrics.Messages
		return Trace{Entries: res.Trace, Rounds: res.Metrics.Rounds, MaxEdgeMessages: res.Metrics.MaxEdgeMessages}, nil
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
	run := func(g *graph.Graph, s graph.NodeID) (Trace, error) {
		if s == 0 {
			time.Sleep(time.Millisecond)
			return Trace{}, nil
		}
		return Trace{}, fmt.Errorf("instance %d failed", s)
	}
	const want = "sched: SSSP from 1: instance 1 failed"
	for trial := 0; trial < 50; trial++ {
		_, err := APSPParallel(g, nil, run, 1, 4)
		if err == nil || err.Error() != want {
			t.Fatalf("trial %d: error %v, want %q", trial, err, want)
		}
	}
}
