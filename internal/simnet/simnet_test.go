package simnet

import (
	"slices"
	"strings"
	"testing"

	"dsssp/internal/graph"
)

func TestFloodCongest(t *testing.T) {
	// Simple BFS flood on a path: node 0 starts, everyone learns distance.
	g := graph.Path(6, graph.UnitWeights)
	out, res, err := RunEach(g, Config{Model: Congest}, func(c *Ctx) int64 {
		dist := int64(-1)
		if c.ID() == 0 {
			dist = 0
			for i := 0; i < c.Degree(); i++ {
				c.Send(i, int64(1))
			}
			return dist
		}
		for {
			msgs := c.WaitMessage(100)
			for _, m := range msgs {
				d := m.Body.(int64)
				if dist == -1 {
					dist = d
					for i := 0; i < c.Degree(); i++ {
						if i != m.NbIndex {
							c.Send(i, d+1)
						}
					}
				}
			}
			if dist >= 0 || c.Round() >= 99 {
				return dist
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if out[v] != int64(v) {
			t.Fatalf("node %d answer %d, want %d", v, out[v], v)
		}
	}
	if res.Metrics.Messages != 5 {
		t.Fatalf("messages=%d, want 5", res.Metrics.Messages)
	}
	if res.Metrics.MaxEdgeMessages != 1 {
		t.Fatalf("congestion=%d, want 1", res.Metrics.MaxEdgeMessages)
	}
	if res.Metrics.Rounds != 6 {
		t.Fatalf("rounds=%d, want 6", res.Metrics.Rounds)
	}
}

func TestSleepingLosesMessages(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	out, res, err := RunEach(g, Config{Model: Sleeping}, func(c *Ctx) string {
		switch c.ID() {
		case 0:
			c.Next()           // round 0 -> 1
			c.Send(0, "lost")  // sent in round 1; node 1 sleeps in round 1
			c.Next()           // round 1 -> 2
			c.Send(0, "heard") // sent in round 2; node 1 wakes at 2
			c.Next()
		case 1:
			msgs := c.SleepUntil(2) // awake rounds: 0 and 2
			if len(msgs) != 0 {
				t.Errorf("unexpected early messages: %v", msgs)
			}
			msgs = c.Next() // receives what arrived in round 2
			got := make([]string, 0, len(msgs))
			for _, m := range msgs {
				got = append(got, m.Body.(string))
			}
			return strings.Join(got, ",")
		}
		return ""
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[1] != "heard" {
		t.Fatalf("node 1 got %q, want \"heard\"", out[1])
	}
	if res.Metrics.LostMessages != 1 {
		t.Fatalf("lost=%d, want 1", res.Metrics.LostMessages)
	}
	// Node 1 awake rounds: 0, 2, 3 = 3; node 0 awake 0,1,2,3 = 4.
	if res.Metrics.PerNodeAwake[1] != 3 {
		t.Fatalf("node 1 awake %d, want 3", res.Metrics.PerNodeAwake[1])
	}
	if res.Metrics.MaxAwake != 4 {
		t.Fatalf("max awake %d, want 4", res.Metrics.MaxAwake)
	}
}

func TestCongestNeverLoses(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	e := New(g, Config{Model: Congest})
	res, err := e.Run(func(c *Ctx) {
		switch c.ID() {
		case 0:
			c.Next()
			c.Send(0, 42)
			c.Next()
		case 1:
			msgs := c.SleepUntil(5) // logically always awake in CONGEST
			if len(msgs) != 1 || msgs[0].Body.(int) != 42 {
				t.Errorf("want the message despite sleeping: %v", msgs)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.LostMessages != 0 {
		t.Fatal("congest mode must not lose messages")
	}
}

func TestRoundSkipping(t *testing.T) {
	// Two nodes sleeping for a long time: the engine must jump, not iterate.
	g := graph.Path(2, graph.UnitWeights)
	out, res, err := RunEach(g, Config{Model: Sleeping}, func(c *Ctx) int64 {
		c.SleepUntil(1 << 30)
		return c.Round()
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1<<30 {
		t.Fatalf("woke at %d", out[0])
	}
	if res.Metrics.MaxAwake != 2 {
		t.Fatalf("awake=%d, want 2", res.Metrics.MaxAwake)
	}
}

func TestWaitMessageDeadline(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	out, _, err := RunEach(g, Config{Model: Congest}, func(c *Ctx) [2]int64 {
		if c.ID() == 1 {
			msgs := c.WaitMessage(50)
			return [2]int64{c.Round(), int64(len(msgs))}
		}
		return [2]int64{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[1] != [2]int64{50, 0} {
		t.Fatalf("got %v, want round 50 with 0 msgs", out[1])
	}
}

func TestWaitMessageWokenByArrival(t *testing.T) {
	type arrival struct {
		round int64
		body  string
	}
	g := graph.Path(2, graph.UnitWeights)
	out, _, err := RunEach(g, Config{Model: Congest}, func(c *Ctx) arrival {
		switch c.ID() {
		case 0:
			c.SleepUntil(7)
			c.Send(0, "ping") // sent in round 7
			c.Next()
		case 1:
			msgs := c.WaitMessage(1000)
			return arrival{c.Round(), msgs[0].Body.(string)}
		}
		return arrival{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[1] != (arrival{8, "ping"}) {
		t.Fatalf("got %v, want {8 ping}", out[1])
	}
}

func TestDeadlockDetected(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	e := New(g, Config{Model: Congest})
	_, err := e.Run(func(c *Ctx) {
		if c.ID() == 0 {
			return // halts
		}
		c.WaitMessage(-1) // never satisfied
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

func TestNodePanicPropagates(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights)
	e := New(g, Config{Model: Congest})
	_, err := e.Run(func(c *Ctx) {
		if c.ID() == 1 {
			panic("boom")
		}
		c.SleepUntil(100)
	})
	if err == nil || !strings.Contains(err.Error(), "node 1 panicked: boom") {
		t.Fatalf("got %v", err)
	}
}

func TestRunEach(t *testing.T) {
	type answer struct {
		id    graph.NodeID
		round int64
	}
	const n = 5
	g := graph.Path(n, graph.UnitWeights)
	for _, model := range []Model{Congest, Sleeping} {
		// Node v halts in round n-1-v: the highest ID answers first.
		got, res, err := RunEach(g, Config{Model: model}, func(c *Ctx) answer {
			if r := int64(n - 1 - int(c.ID())); r > 0 {
				c.SleepUntil(r)
			}
			return answer{c.ID(), c.Round()}
		})
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if len(got) != n || res.Metrics.Rounds != n {
			t.Fatalf("%v: %d answers in %d rounds, want %d in %d", model, len(got), res.Metrics.Rounds, n, n)
		}
		for v, a := range got {
			if want := (answer{graph.NodeID(v), int64(n - 1 - v)}); a != want {
				t.Fatalf("%v: answers[%d] = %+v, want %+v", model, v, a, want)
			}
		}
	}

	// Node 4 answers in round 0, before node 1 panics in round 1: the run
	// fails whole, with the engine's error and no answers.
	got, res, err := RunEach(g, Config{Model: Congest}, func(c *Ctx) int64 {
		switch c.ID() {
		case 4:
			return 4
		case 1:
			c.Next()
			panic("boom")
		}
		c.SleepUntil(100)
		return int64(c.ID())
	})
	if err == nil || err.Error() != "node 1 panicked: boom" {
		t.Fatalf("got error %v, want node 1's panic", err)
	}
	if got != nil || res != nil {
		t.Fatalf("failed run returned answers %v, result %v", got, res)
	}
}

func TestMaxRoundsEnforced(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	e := New(g, Config{Model: Sleeping, MaxRounds: 10})
	_, err := e.Run(func(c *Ctx) {
		c.SleepUntil(100)
	})
	if err == nil || !strings.Contains(err.Error(), "MaxRounds") {
		t.Fatalf("got %v", err)
	}
}

// TestStrictCongestViolation: strict CONGEST is the bit budget alone.
// Two messages over one edge direction in a round are within it; one
// message over the budget fails the run and names the sender and size.
func TestStrictCongestViolation(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	cfg := Config{Model: Congest, MaxMessageBits: 8, MessageBits: func(_ uint64, body any) int64 { return int64(body.(int)) }}
	res, err := New(g, cfg).Run(func(c *Ctx) {
		if c.ID() == 0 {
			c.Send(0, 8)
			c.Send(0, 8) // two messages, same edge, same direction, same round
		}
		c.Next()
	})
	if err != nil || res.Metrics.MaxMessageBits != 8 || res.Metrics.StrictRounds != 3 {
		t.Fatalf("within budget: err=%v metrics=%+v", err, res.Metrics)
	}
	_, err = New(g, cfg).Run(func(c *Ctx) {
		if c.ID() == 1 {
			c.Send(0, 9)
		}
		c.Next()
	})
	if err == nil || !strings.Contains(err.Error(), "strict CONGEST violation: node 1 sent a 9-bit message") {
		t.Fatalf("got %v", err)
	}
}

func TestMegaroundAccounting(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	e := New(g, Config{Model: Congest})
	res, err := e.Run(func(c *Ctx) {
		if c.ID() == 0 {
			for k := 0; k < 5; k++ {
				c.Send(0, k)
			}
		}
		c.Next()
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 rounds total; round 0 carried load 5 => strict = 2 + (5-1) = 6.
	if res.Metrics.Rounds != 2 || res.Metrics.StrictRounds != 6 {
		t.Fatalf("rounds=%d strict=%d, want 2,6", res.Metrics.Rounds, res.Metrics.StrictRounds)
	}
}

func TestNeighborIndexAndReverse(t *testing.T) {
	g := graph.Star(4, graph.UnitWeights)
	out, _, err := RunEach(g, Config{Model: Congest}, func(c *Ctx) graph.NodeID {
		if c.ID() == 2 {
			// A leaf's only edge, index 0, leads to the center.
			c.Send(0, "hi")
		}
		from := graph.NodeID(-1)
		for _, m := range c.Next() {
			// The center's NbIndex must point back at node 2.
			from = c.NeighborID(m.NbIndex)
		}
		return from
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 {
		t.Fatalf("reverse index broken: %d", out[0])
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.RandomConnected(40, 60, graph.UnitWeights, 5)
	run := func() []uint64 {
		out, _, err := RunEach(g, Config{Model: Congest}, func(c *Ctx) uint64 {
			// Everyone floods its ID for 3 rounds; output = sorted digest of
			// all received (from, round) pairs via a running hash.
			var h uint64 = 1469598103934665603
			mix := func(x uint64) { h ^= x; h *= 1099511628211 }
			for r := 0; r < 3; r++ {
				for i := 0; i < c.Degree(); i++ {
					c.Send(i, uint64(c.ID())<<32|uint64(r))
				}
				for _, m := range c.Next() {
					mix(m.Body.(uint64))
					mix(uint64(m.From))
				}
			}
			return h
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d nondeterministic: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTraceRecording(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights)
	e := New(g, Config{Model: Congest, RecordTrace: true})
	res, err := e.Run(func(c *Ctx) {
		if c.ID() == 1 {
			c.Send(0, "a") // to node 0 over edge 0: dir=1 (1>0)
			c.Send(0, "a")
			c.Send(1, "b") // to node 2 over edge 1: dir=0
			c.Next()
			c.Send(0, "c")
			c.SleepUntil(300)
			c.Send(0, "d") // a gap of 299 rounds: a two-byte uvarint
		}
		c.Next()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{nil, {0, 0, 1, 300}, {0}, nil}
	if len(res.Sends) != len(want) {
		t.Fatalf("%d send records, want %d", len(res.Sends), len(want))
	}
	for di, rounds := range want {
		if got := slices.Collect(SendRounds(res.Sends[di])); !slices.Equal(got, rounds) {
			t.Fatalf("directed edge %d sent in rounds %v, want %v", di, got, rounds)
		}
	}
	if len(res.Sends[1]) != 5 {
		t.Fatalf("record %v, want 5 bytes (gaps 0, 0, 1, 299)", res.Sends[1])
	}
	// The records share one allocation, each capped at its length, and an
	// edge that carried nothing has no record.
	for di, rec := range res.Sends {
		if (rec == nil) != (want[di] == nil) || cap(rec) != len(rec) {
			t.Fatalf("record %d: %v with cap %d", di, rec, cap(rec))
		}
	}
	next := slices.Clone(res.Sends[2])
	_ = AppendSend(res.Sends[1], 300, 301) // the write, not the record, is under test
	if !slices.Equal(res.Sends[2], next) {
		t.Fatalf("appending to record 1 changed record 2 to %v", res.Sends[2])
	}
}

func TestDroppedAfterHalt(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	e := New(g, Config{Model: Congest})
	res, err := e.Run(func(c *Ctx) {
		if c.ID() == 1 {
			return // halts immediately in round 0
		}
		c.Next()
		c.Send(0, "too late") // round 1
		c.Next()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.DroppedAfterHalt != 1 {
		t.Fatalf("droppedAfterHalt=%d", res.Metrics.DroppedAfterHalt)
	}
}

func TestSleepUntilPastPanics(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	e := New(g, Config{Model: Congest})
	_, err := e.Run(func(c *Ctx) {
		c.SleepUntil(0) // current round is 0: must panic
	})
	if err == nil || !strings.Contains(err.Error(), "SleepUntil") {
		t.Fatalf("got %v", err)
	}
}

func TestSleepUntilAtLeastClamps(t *testing.T) {
	g := graph.Path(1, graph.UnitWeights)
	out, _, err := RunEach(g, Config{Model: Sleeping}, func(c *Ctx) int64 {
		c.SleepUntilAtLeast(0)
		return c.Round()
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 {
		t.Fatalf("round %d, want 1", out[0])
	}
}

func TestWaitMessageInSleepingPanics(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	e := New(g, Config{Model: Sleeping})
	_, err := e.Run(func(c *Ctx) {
		c.WaitMessage(10)
	})
	if err == nil || !strings.Contains(err.Error(), "only valid in Congest") {
		t.Fatalf("got %v", err)
	}
}

func TestManyNodesStress(t *testing.T) {
	// A quick scale smoke test: flood on a 2000-node random graph.
	g := graph.RandomConnected(2000, 3000, graph.UnitWeights, 9)
	ref := graph.BFSDist(g, 0)
	out, _, err := RunEach(g, Config{Model: Congest}, func(c *Ctx) int64 {
		dist := int64(-1)
		deadline := int64(c.N() + 10)
		if c.ID() == 0 {
			dist = 0
			for i := 0; i < c.Degree(); i++ {
				c.Send(i, int64(1))
			}
		}
		for dist == -1 {
			msgs := c.WaitMessage(deadline)
			for _, m := range msgs {
				if dist == -1 {
					dist = m.Body.(int64)
					for i := 0; i < c.Degree(); i++ {
						c.Send(i, dist+1)
					}
				}
			}
			if c.Round() >= deadline {
				break
			}
		}
		return dist
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if out[v] != ref[v] {
			t.Fatalf("node %d: got %d want %d", v, out[v], ref[v])
		}
	}
}

// floodProgram is an O(m) broadcast: node 0 seeds a token, every other
// node parks until one arrives, forwards it once with the hop count
// raised, and halts with the hop count it received as its answer.
func floodProgram(c *Ctx) int64 {
	if c.ID() == 0 {
		for i := 0; i < c.Degree(); i++ {
			c.Send(i, uint64(1))
		}
		c.Next()
		return 0
	}
	in := c.WaitMessage(-1)
	hops := in[0].Body.(uint64)
	for i := 0; i < c.Degree(); i++ {
		c.Send(i, hops+1)
	}
	c.Next()
	return int64(hops)
}

// TestLargeNFloodSmoke floods n=10^5 path, random and star graphs — n
// singleton rounds, a few wide rounds, one full-width round — walking the
// engine's arena-carved memory layout at scale, and checks that every
// node outputs its hop distance from node 0. Skipped with -short: the
// point of the run is the large allocation footprint.
func TestLargeNFloodSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n smoke test skipped with -short")
	}
	const n = 100_000
	graphs := map[string]*graph.Graph{
		"path":   graph.Path(n, graph.UnitWeights),
		"random": graph.RandomConnected(n, 2*n, graph.UnitWeights, 7),
		"star":   graph.Star(n, graph.UnitWeights),
	}
	for name, g := range graphs {
		out, _, err := RunEach(g, Config{Model: Congest, MaxRounds: 1 << 20}, floodProgram)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref := graph.BFSDist(g, 0)
		for v, hops := range out {
			if hops != ref[v] {
				t.Fatalf("%s: node %d answered %d, want hop distance %d", name, v, hops, ref[v])
			}
		}
	}
}
