package energybfs

import (
	"testing"

	"dsssp/internal/decomp"
	"dsssp/internal/graph"
	"dsssp/internal/proto"
	"dsssp/internal/simnet"
)

func decompBuild(g *graph.Graph, maxDist int64) (*decomp.Cover, error) {
	return decomp.Build(g, nil, nil, maxDist)
}

func buildWeighted(g *graph.Graph, maxDist int64) (*decomp.Cover, error) {
	w := func(u graph.NodeID, i int) int64 { return g.Adj(u)[i].W }
	return decomp.Build(g, nil, w, maxDist)
}

func runWeighted(t *testing.T, g *graph.Graph, cv *decomp.Cover, threshold int64) ([]int64, simnet.Metrics) {
	t.Helper()
	out, res, err := simnet.RunEach(g, simnet.Config{Model: simnet.Sleeping}, func(c *simnet.Ctx) int64 {
		mb := proto.NewMailbox(c)
		off := NotSource
		if c.ID() == 0 {
			off = 0
		}
		return Run(mb, Params{
			Tag: 1, StartRound: 0, Cover: cv, Threshold: threshold,
			SourceOffset: off, WeightOf: c.Weight,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, res.Metrics
}

// runWithRoundCheck returns each node's return round.
func runWithRoundCheck(t *testing.T, g *graph.Graph, cv *decomp.Cover, threshold int64) ([]int64, simnet.Metrics) {
	t.Helper()
	out, res, err := simnet.RunEach(g, simnet.Config{Model: simnet.Sleeping}, func(c *simnet.Ctx) int64 {
		mb := proto.NewMailbox(c)
		off := NotSource
		if c.ID() == 0 {
			off = 0
		}
		Run(mb, Params{Tag: 1, StartRound: 0, Cover: cv, Threshold: threshold, SourceOffset: off})
		return c.Round()
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, res.Metrics
}
