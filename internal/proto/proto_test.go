package proto

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

// testTree builds each node's Tree view for the rooted tree given by parent
// node IDs (parent[root] == root). The tree edges must exist in g.
func testTree(g *graph.Graph, parent []graph.NodeID) func(c *simnet.Ctx) Tree {
	depth := make([]int64, g.N())
	for v := range parent {
		d := int64(0)
		for u := graph.NodeID(v); parent[u] != u; u = parent[u] {
			d++
		}
		depth[v] = d
	}
	var root graph.NodeID
	for v := range parent {
		if parent[v] == graph.NodeID(v) {
			root = graph.NodeID(v)
		}
	}
	return func(c *simnet.Ctx) Tree {
		t := Tree{InTree: true, Root: root, Parent: -1, Depth: depth[c.ID()]}
		for i := 0; i < c.Degree(); i++ {
			nb := c.NeighborID(i)
			if parent[c.ID()] == nb && c.ID() != root {
				t.Parent = i
			} else if parent[nb] == c.ID() {
				t.Children = append(t.Children, i)
			}
		}
		return t
	}
}

func pathParents(n int) []graph.NodeID {
	p := make([]graph.NodeID, n)
	for i := 1; i < n; i++ {
		p[i] = graph.NodeID(i - 1)
	}
	return p
}

func sum(a, b any) any { return a.(int64) + b.(int64) }

func TestBarrierSynchronizes(t *testing.T) {
	g := graph.Path(6, graph.UnitWeights)
	tv := testTree(g, pathParents(6))
	e := simnet.New(g, simnet.Config{Model: simnet.Congest})
	res, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		// Nodes become "done" at very different times.
		m.SleepUntilAtLeast(int64(c.ID()) * 13)
		start := Barrier(m, tv(c), 20, 6)
		if c.Round() != start {
			t.Errorf("node %d resumed at %d, want %d", c.ID(), c.Round(), start)
		}
		c.SetOutput(start)
	})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Outputs[0].(int64)
	for v, out := range res.Outputs {
		if out.(int64) != first {
			t.Fatalf("node %d start %v != %d", v, out, first)
		}
	}
	if first < 5*13 {
		t.Fatalf("start %d before the slowest node was done", first)
	}
}

// TestBarrierBranchingTree runs Barrier on BFS spanning trees of random
// graphs whose nodes become done in uneven rounds. A node checks in with
// its parent in the round it is done or in the round after its last
// child's check-in arrives, whichever is later; the root's check-in round
// R fixes the common start R+sizeBound+2. The barrier sends one nil body up
// and one int64 start down each tree edge, and nothing else.
func TestBarrierBranchingTree(t *testing.T) {
	const n, tag = 40, 20
	for seed := int64(1); seed <= 5; seed++ {
		g := graph.RandomConnected(n, n, graph.UnitWeights, seed)
		root := graph.NodeID(seed % n)
		dist := graph.BFSDist(g, root)
		parent := make([]graph.NodeID, n)
		order := make([]graph.NodeID, n) // nodes by descending depth
		for v := range parent {
			parent[v] = graph.NodeID(v)
			order[v] = graph.NodeID(v)
			for _, h := range g.Adj(graph.NodeID(v)) {
				if dist[h.To] == dist[v]-1 {
					parent[v] = h.To
					break
				}
			}
		}
		slices.SortFunc(order, func(a, b graph.NodeID) int { return cmp.Compare(dist[b], dist[a]) })
		rng := rand.New(rand.NewSource(seed))
		done := make([]int64, n)
		for v := range done {
			done[v] = 1 + rng.Int63n(60)
		}
		checkIn := slices.Clone(done)
		for _, v := range order {
			if v != root {
				checkIn[parent[v]] = max(checkIn[parent[v]], checkIn[v]+1)
			}
		}
		want := checkIn[root] + n + 2

		var up, down int
		tv := testTree(g, parent)
		e := simnet.New(g, simnet.Config{Model: simnet.Congest, MessageBits: func(tg uint64, body any) int64 {
			switch {
			case tg == tag && body == nil:
				up++
			case tg == tag+1 && body == want:
				down++
			default:
				t.Errorf("seed %d: unexpected message tag %d body %#v", seed, tg, body)
			}
			return MessageBits(tg, body)
		}})
		res, err := e.Run(func(c *simnet.Ctx) {
			m := NewMailbox(c)
			m.SleepUntilAtLeast(done[c.ID()])
			start := Barrier(m, tv(c), tag, n)
			if c.Round() != start {
				t.Errorf("seed %d: node %d resumed at %d, want %d", seed, c.ID(), c.Round(), start)
			}
			c.SetOutput(start)
		})
		if err != nil {
			t.Fatal(err)
		}
		for v, out := range res.Outputs {
			if out.(int64) != want {
				t.Fatalf("seed %d: node %d start %v, want root check-in %d + %d + 2", seed, v, out, checkIn[root], n)
			}
		}
		if up != n-1 || down != n-1 || res.Metrics.Messages != 2*(n-1) {
			t.Fatalf("seed %d: %d up and %d down of %d messages, want %d each of %d", seed, up, down, res.Metrics.Messages, n-1, 2*(n-1))
		}
	}
}

func TestSweepUpDownSleeping(t *testing.T) {
	g := graph.Path(8, graph.UnitWeights)
	tv := testTree(g, pathParents(8))
	const windowStart, depthBound = 5, 8
	e := simnet.New(g, simnet.Config{Model: simnet.Sleeping})
	res, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		tr := tv(c)
		agg, isRoot := SweepUp(m, tr, 30, windowStart, depthBound, int64(1), sum)
		var rootVal any
		if isRoot {
			if agg.(int64) != 8 {
				t.Errorf("root sweep aggregate %v, want 8", agg)
			}
			rootVal = int64(100)
		}
		down := SweepDown(m, tr, 31, windowStart+depthBound+1, rootVal, nil)
		c.SetOutput(down)
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, out := range res.Outputs {
		if out.(int64) != 100 {
			t.Fatalf("node %d got %v from sweep down", v, out)
		}
	}
	// Energy: initial wake + at most 2 awake rounds per sweep (+1 slack).
	if res.Metrics.MaxAwake > 6 {
		t.Fatalf("max awake %d, want <= 6", res.Metrics.MaxAwake)
	}
	if res.Metrics.LostMessages != 0 {
		t.Fatalf("sweeps lost %d messages", res.Metrics.LostMessages)
	}
}

func TestSweepDownTransform(t *testing.T) {
	// Depth rebasing: each hop adds 1 to the value, so node at depth d
	// receives base+d.
	g := graph.Path(5, graph.UnitWeights)
	tv := testTree(g, pathParents(5))
	e := simnet.New(g, simnet.Config{Model: simnet.Sleeping})
	res, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		tr := tv(c)
		var rootVal any
		if tr.Parent < 0 {
			rootVal = int64(40)
		}
		v := SweepDown(m, tr, 9, 3, rootVal, func(x any) any { return x.(int64) + 1 })
		c.SetOutput(v)
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, out := range res.Outputs {
		if out.(int64) != int64(41+v) {
			t.Fatalf("node %d got %v, want %d", v, out, 41+v)
		}
	}
}

func TestMailboxBuffersOutOfPhaseMessages(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	e := simnet.New(g, simnet.Config{Model: simnet.Congest})
	res, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		switch c.ID() {
		case 0:
			m.Send(0, 77, "early") // a message for a phase node 1 enters later
			m.Next()
		case 1:
			// First handle an unrelated phase; the tag-77 message must be
			// buffered, not lost.
			m.Pump(c.WaitMessage(10))
			if got := m.Take(55); len(got) != 0 {
				t.Errorf("unexpected tag-55 messages: %v", got)
			}
			msgs := m.Take(77)
			if len(msgs) != 1 || msgs[0].Body.(string) != "early" {
				t.Errorf("buffered message missing: %v", msgs)
			}
			c.SetOutput(len(msgs))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1].(int) != 1 {
		t.Fatal("tag buffering failed")
	}
}

func TestAdvanceToOverrunPanics(t *testing.T) {
	g := graph.Path(1, graph.UnitWeights)
	e := simnet.New(g, simnet.Config{Model: simnet.Sleeping})
	_, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		m.SleepUntil(10)
		m.AdvanceTo(5)
	})
	if err == nil {
		t.Fatal("want overrun panic surfaced as run error")
	}
}

func TestSweepSingleton(t *testing.T) {
	// A single-node tree: root is also a leaf.
	g := graph.New(1)
	e := simnet.New(g, simnet.Config{Model: simnet.Sleeping})
	res, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		tr := Tree{InTree: true, Root: 0, Parent: -1}
		agg, isRoot := SweepUp(m, tr, 1, 2, 3, int64(7), sum)
		if !isRoot || agg.(int64) != 7 {
			t.Errorf("singleton sweep: %v %v", agg, isRoot)
		}
		v := SweepDown(m, tr, 2, 7, int64(9), nil)
		c.SetOutput(v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0].(int64) != 9 {
		t.Fatalf("got %v", res.Outputs[0])
	}
}
