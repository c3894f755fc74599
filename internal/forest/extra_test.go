package forest

import (
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/proto"
	"dsssp/internal/simnet"
)

// Dumbbell: two dense regions joined by a long bridge — stressing both
// fast clique merging and long-chain merging.
func TestForestDumbbell(t *testing.T) {
	g := graph.Dumbbell(8, 12, graph.UnitWeights)
	rs, _ := runForest(t, g, simnet.Congest)
	verifyForest(t, g, rs)
}

// Grid at moderate scale in the sleeping model.
func TestForestGridSleeping(t *testing.T) {
	g := graph.Grid2D(8, 8, graph.UnitWeights)
	rs, met := runForest(t, g, simnet.Sleeping)
	verifyForest(t, g, rs)
	if met.LostMessages != 0 {
		t.Fatalf("lost %d messages", met.LostMessages)
	}
}

// A larger stress in CONGEST: 512 nodes, denser graph.
func TestForestLargeRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("large forest stress")
	}
	g := graph.RandomConnected(512, 1024, graph.UnitWeights, 21)
	rs, _ := runForest(t, g, simnet.Congest)
	verifyForest(t, g, rs)
}

// Trees from two different SizeBound values must both be correct (budgets
// only change the schedule, not the result).
func TestForestSizeBoundSlack(t *testing.T) {
	g := graph.Cycle(12, graph.UnitWeights)
	for _, bound := range []int64{12, 40} {
		rs, _, err := simnet.RunEach(g, simnet.Config{Model: simnet.Congest}, func(c *simnet.Ctx) Result {
			return Build(proto.NewMailbox(c), Params{Tag: 1, StartRound: 0, SizeBound: bound})
		})
		if err != nil {
			t.Fatalf("bound %d: %v", bound, err)
		}
		verifyForest(t, g, rs)
	}
}

// Determinism across runs.
func TestForestDeterministic(t *testing.T) {
	g := graph.RandomConnected(48, 64, graph.UnitWeights, 5)
	a, ma := runForest(t, g, simnet.Congest)
	b, mb := runForest(t, g, simnet.Congest)
	for v := range a {
		if a[v].CompID != b[v].CompID || a[v].Tree.Depth != b[v].Tree.Depth {
			t.Fatalf("node %d differs across runs", v)
		}
	}
	if ma.Messages != mb.Messages {
		t.Fatalf("message counts differ: %d vs %d", ma.Messages, mb.Messages)
	}
}
