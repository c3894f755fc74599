package forest

import (
	"math/bits"
	"testing"
	"testing/quick"

	"dsssp/internal/graph"
	"dsssp/internal/proto"
	"dsssp/internal/simnet"
)

// runForest builds a maximal spanning forest over the whole graph and
// returns per-node results plus metrics.
func runForest(t *testing.T, g *graph.Graph, model simnet.Model) ([]Result, simnet.Metrics) {
	t.Helper()
	out, res, err := simnet.RunEach(g, simnet.Config{Model: model}, func(c *simnet.Ctx) Result {
		return Build(proto.NewMailbox(c), Params{Tag: 1, StartRound: 0, SizeBound: int64(c.N())})
	})
	if err != nil {
		t.Fatalf("forest run failed: %v", err)
	}
	return out, res.Metrics
}

// verifyForest checks every structural property of a spanning forest result.
func verifyForest(t *testing.T, g *graph.Graph, rs []Result) {
	t.Helper()
	comp, k := graph.Components(g)
	// Component sizes.
	sizes := make(map[int]int64)
	for v := range comp {
		sizes[comp[v]]++
	}
	// Leaders: exactly one root per component, compID equals its node ID.
	rootsSeen := make(map[int]graph.NodeID)
	for v, r := range rs {
		if r.Size != sizes[comp[v]] {
			t.Fatalf("node %d size=%d, want %d", v, r.Size, sizes[comp[v]])
		}
		if r.Tree.Parent < 0 {
			if prev, ok := rootsSeen[comp[v]]; ok {
				t.Fatalf("component %d has two roots: %d and %d", comp[v], prev, v)
			}
			rootsSeen[comp[v]] = graph.NodeID(v)
			if r.CompID != graph.NodeID(v) {
				t.Fatalf("root %d has compID %d", v, r.CompID)
			}
			if r.Tree.Depth != 0 {
				t.Fatalf("root %d has depth %d", v, r.Tree.Depth)
			}
		}
	}
	if len(rootsSeen) != k {
		t.Fatalf("found %d roots, want %d components", len(rootsSeen), k)
	}
	// Every node agrees with its component's root on compID, and parent
	// links decrease depth by exactly 1.
	for v, r := range rs {
		if r.CompID != rs[rootsSeen[comp[v]]].CompID {
			t.Fatalf("node %d compID %d disagrees with root", v, r.CompID)
		}
		if r.Tree.Parent >= 0 {
			p := g.Adj(graph.NodeID(v))[r.Tree.Parent].To
			if comp[int(p)] != comp[v] {
				t.Fatalf("node %d parent %d in different component", v, p)
			}
			if rs[p].Tree.Depth != r.Tree.Depth-1 {
				t.Fatalf("node %d depth %d but parent %d depth %d", v, r.Tree.Depth, p, rs[p].Tree.Depth)
			}
		}
	}
	// Children lists mirror parent pointers exactly.
	type edgeKey struct{ parent, child graph.NodeID }
	childOf := make(map[edgeKey]bool)
	for v, r := range rs {
		for _, ch := range r.Tree.Children {
			childOf[edgeKey{graph.NodeID(v), g.Adj(graph.NodeID(v))[ch].To}] = true
		}
	}
	nParentLinks := 0
	for v, r := range rs {
		if r.Tree.Parent >= 0 {
			p := g.Adj(graph.NodeID(v))[r.Tree.Parent].To
			if !childOf[edgeKey{p, graph.NodeID(v)}] {
				t.Fatalf("node %d's parent %d does not list it as child", v, p)
			}
			nParentLinks++
		}
	}
	if len(childOf) != nParentLinks {
		t.Fatalf("children links %d != parent links %d", len(childOf), nParentLinks)
	}
	// Parent links per component = size-1 => spanning tree (acyclic by the
	// depth-decrease property, connected by counting).
	for cid, root := range rootsSeen {
		links := 0
		for v := range comp {
			if comp[v] == cid && rs[v].Tree.Parent >= 0 {
				links++
			}
		}
		if int64(links) != sizes[cid]-1 {
			t.Fatalf("component of root %d has %d parent links, want %d", root, links, sizes[cid]-1)
		}
	}
}

func TestForestPath(t *testing.T) {
	g := graph.Path(9, graph.UnitWeights)
	rs, _ := runForest(t, g, simnet.Congest)
	verifyForest(t, g, rs)
}

func TestForestCycle(t *testing.T) {
	g := graph.Cycle(8, graph.UnitWeights)
	rs, _ := runForest(t, g, simnet.Congest)
	verifyForest(t, g, rs)
}

func TestForestStar(t *testing.T) {
	g := graph.Star(10, graph.UnitWeights)
	rs, _ := runForest(t, g, simnet.Congest)
	verifyForest(t, g, rs)
}

func TestForestSingleNode(t *testing.T) {
	g := graph.New(1)
	rs, _ := runForest(t, g, simnet.Congest)
	if rs[0].Size != 1 || rs[0].CompID != 0 {
		t.Fatalf("singleton result %+v", rs[0])
	}
}

func TestForestDisconnected(t *testing.T) {
	g := graph.Disconnected(3, 7, 3, graph.UnitWeights, 11)
	rs, _ := runForest(t, g, simnet.Congest)
	verifyForest(t, g, rs)
}

func TestForestRandomMany(t *testing.T) {
	f := func(seed int64, nRaw uint8, extraRaw uint8) bool {
		n := int(nRaw%40) + 2
		g := graph.RandomConnected(n, int(extraRaw%60), graph.UnitWeights, seed)
		rs, _ := runForest(t, g, simnet.Congest)
		verifyForest(t, g, rs)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestForestSleepingMatchesCongest(t *testing.T) {
	g := graph.Clusters(4, 8, 6, graph.UnitWeights, 5)
	rsC, _ := runForest(t, g, simnet.Congest)
	rsS, metS := runForest(t, g, simnet.Sleeping)
	verifyForest(t, g, rsS)
	for v := range rsC {
		if rsC[v].CompID != rsS[v].CompID || rsC[v].Tree.Depth != rsS[v].Tree.Depth {
			t.Fatalf("node %d differs across models: %+v vs %+v", v, rsC[v], rsS[v])
		}
	}
	if metS.LostMessages != 0 {
		t.Fatalf("sleeping forest lost %d messages", metS.LostMessages)
	}
}

func TestForestEnergyPolylog(t *testing.T) {
	// Theorem 3.1 shape: max awake rounds must scale ~ log^2 n, far below
	// the running time.
	for _, n := range []int{64, 256} {
		g := graph.RandomConnected(n, n, graph.UnitWeights, 3)
		rs, met := runForest(t, g, simnet.Sleeping)
		verifyForest(t, g, rs)
		lg := int64(bits.Len(uint(n)))
		budget := 8 * lg * lg // generous constant on log^2 n
		if met.MaxAwake > budget {
			t.Fatalf("n=%d: MaxAwake=%d exceeds %d (log^2 budget)", n, met.MaxAwake, budget)
		}
		if met.MaxAwake*4 > met.Rounds {
			t.Fatalf("n=%d: energy %d not far below time %d", n, met.MaxAwake, met.Rounds)
		}
	}
}

func TestForestCongestionPolylog(t *testing.T) {
	for _, n := range []int{64, 256} {
		g := graph.RandomConnected(n, 2*n, graph.UnitWeights, 7)
		rs, met := runForest(t, g, simnet.Congest)
		verifyForest(t, g, rs)
		lg := int64(bits.Len(uint(n)))
		if met.MaxEdgeMessages > 40*lg {
			t.Fatalf("n=%d: per-edge congestion %d exceeds 40*log n", n, met.MaxEdgeMessages)
		}
	}
}

func TestForestEligibleSubgraph(t *testing.T) {
	// Restrict to even-weight edges: the forest must span the components of
	// the eligible subgraph only.
	g := graph.New(6)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3) // ineligible bridge
	g.AddEdge(3, 4, 2)
	g.AddEdge(4, 5, 2)
	g.SortAdj()
	out, _, err := simnet.RunEach(g, simnet.Config{Model: simnet.Congest}, func(c *simnet.Ctx) Result {
		return Build(proto.NewMailbox(c), Params{
			Tag: 1, StartRound: 0, SizeBound: int64(c.N()),
			Eligible: func(i int) bool { return c.Weight(i)%2 == 0 },
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	get := func(v int) Result { return out[v] }
	if get(0).CompID != get(2).CompID || get(3).CompID != get(5).CompID {
		t.Fatal("eligible components not merged")
	}
	if get(0).CompID == get(3).CompID {
		t.Fatal("ineligible bridge was used")
	}
	if get(0).Size != 3 || get(3).Size != 3 {
		t.Fatalf("sizes %d,%d want 3,3", get(0).Size, get(3).Size)
	}
}

func TestDurationIsExact(t *testing.T) {
	// Build must return exactly at StartRound+Duration for every node.
	g := graph.Grid2D(4, 4, graph.UnitWeights)
	want := int64(100) + Duration(16)
	out, _, err := simnet.RunEach(g, simnet.Config{Model: simnet.Congest}, func(c *simnet.Ctx) int64 {
		mb := proto.NewMailbox(c)
		mb.SleepUntilAtLeast(5)
		Build(mb, Params{Tag: 1, StartRound: 100, SizeBound: 16})
		return c.Round()
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range out {
		if r != want {
			t.Fatalf("node %d returned at %d, want %d", v, r, want)
		}
	}
}

func TestCVStepProperness(t *testing.T) {
	// For any distinct pair, one CV step yields colors that differ from the
	// partner's new color under any choice of the partner's own bit.
	f := func(a, b uint16) bool {
		x, y := int64(a), int64(b)
		if x == y {
			return true
		}
		nx := cvStep(x, y)
		ny := cvStep(y, x)
		return nx != ny
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPhasesMonotone(t *testing.T) {
	if Phases(1) != 1 {
		t.Fatalf("Phases(1)=%d", Phases(1))
	}
	last := int64(0)
	for s := int64(2); s < 5000; s *= 2 {
		p := Phases(s)
		if p < last {
			t.Fatalf("Phases not monotone at %d", s)
		}
		last = p
	}
}
