package proto

import (
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

func TestAggregateBroadcastSum(t *testing.T) {
	g := graph.Path(7, graph.UnitWeights)
	tv := testTree(g, pathParents(7))
	e := simnet.New(g, simnet.Config{Model: simnet.Congest})
	res, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		tr := tv(c)
		agg, isRoot := AggregateUp(m, tr, 10, int64(c.ID()), sum, -1)
		var rootVal any
		if isRoot {
			rootVal = agg
		}
		c.SetOutput(BroadcastDown(m, tr, 11, rootVal, -1))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0 + 1 + 2 + 3 + 4 + 5 + 6)
	for v, out := range res.Outputs {
		if out.(int64) != want {
			t.Fatalf("node %d got %v, want %d", v, out, want)
		}
	}
}

func TestAggregateUpRootOnly(t *testing.T) {
	g := graph.Star(5, graph.UnitWeights)
	parent := []graph.NodeID{0, 0, 0, 0, 0}
	tv := testTree(g, parent)
	e := simnet.New(g, simnet.Config{Model: simnet.Congest})
	res, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		agg, isRoot := AggregateUp(m, tv(c), 3, int64(1), sum, -1)
		if isRoot {
			c.SetOutput(agg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0].(int64) != 5 {
		t.Fatalf("root aggregate %v, want 5", res.Outputs[0])
	}
	for v := 1; v < 5; v++ {
		if res.Outputs[v] != nil {
			t.Fatalf("non-root %d has output %v", v, res.Outputs[v])
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	g := graph.Path(6, graph.UnitWeights)
	tv := testTree(g, pathParents(6))
	e := simnet.New(g, simnet.Config{Model: simnet.Congest})
	res, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		// Nodes become "done" at very different times.
		m.SleepUntilAtLeast(int64(c.ID()) * 13)
		start := Barrier(m, tv(c), 20, 6, -1)
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
			if got := m.WaitTag(55, 10); len(got) != 0 {
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

func TestWaitTagCountTimeout(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	e := simnet.New(g, simnet.Config{Model: simnet.Congest})
	_, err := e.Run(func(c *simnet.Ctx) {
		m := NewMailbox(c)
		if c.ID() == 0 {
			_, ok := m.WaitTagCount(9, 2, 15)
			if ok {
				t.Error("expected timeout")
			}
			if c.Round() < 15 {
				t.Errorf("returned early at %d", c.Round())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
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
