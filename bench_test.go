// Benchmarks covering the paper's quantitative claims, one per experiment
// E1–E9. The scenario harness (internal/harness, driven by cmd/dsssp-bench)
// sweeps the same quantities across the full workload registry and records
// them in EXPERIMENTS.md; these testing.B targets give repeatable single
// numbers per claim for quick comparisons.
package dsssp

import (
	"fmt"
	"testing"

	"dsssp/internal/baseline"
	"dsssp/internal/bfs"
	"dsssp/internal/core"
	"dsssp/internal/decomp"
	"dsssp/internal/energybfs"
	"dsssp/internal/forest"
	"dsssp/internal/graph"
	"dsssp/internal/proto"
	"dsssp/internal/simnet"
)

// BenchmarkE1CongestCSSP — Theorem 2.6: Õ(n) time, polylog congestion.
func BenchmarkE1CongestCSSP(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		g := graph.RandomConnected(n, 2*n, graph.UniformWeights(int64(n), 7), 7)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var met simnet.Metrics
			for i := 0; i < b.N; i++ {
				_, _, res, err := core.Run(g, map[graph.NodeID]int64{0: 0}, core.Options{}, simnet.Congest, false)
				if err != nil {
					b.Fatal(err)
				}
				met = res.Metrics
			}
			b.ReportMetric(float64(met.Rounds)/float64(n), "rounds/n")
			b.ReportMetric(float64(met.MaxEdgeMessages), "maxEdgeMsgs")
		})
	}
}

// BenchmarkE1Baselines — the comparison points of Section 1.1.
func BenchmarkE1Baselines(b *testing.B) {
	g := graph.RandomConnected(128, 256, graph.UniformWeights(128, 7), 7)
	b.Run("bellman-ford", func(b *testing.B) {
		b.ReportAllocs()
		var met simnet.Metrics
		for i := 0; i < b.N; i++ {
			var err error
			_, met, err = baseline.BellmanFord(g, 0)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(met.MaxEdgeMessages), "maxEdgeMsgs")
	})
	b.Run("dijkstra", func(b *testing.B) {
		b.ReportAllocs()
		var met simnet.Metrics
		for i := 0; i < b.N; i++ {
			var err error
			_, met, err = baseline.Dijkstra(g, 0)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(met.Rounds), "rounds")
	})
}

// BenchmarkE2Cutter — Lemma 2.1: O(n/ε) rounds, O(1) congestion.
func BenchmarkE2Cutter(b *testing.B) {
	g := graph.RandomConnected(256, 512, graph.UniformWeights(256, 5), 5)
	w := graph.WeightedDiameterUpper(g) / 4
	for _, eps := range [][2]int64{{1, 2}, {1, 8}} {
		b.Run(fmt.Sprintf("eps=%d/%d", eps[0], eps[1]), func(b *testing.B) {
			b.ReportAllocs()
			var met simnet.Metrics
			for i := 0; i < b.N; i++ {
				var err error
				_, met, err = bfs.RunCutter(g, map[graph.NodeID]int64{0: 0}, w, eps[0], eps[1])
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(met.Rounds), "rounds")
			b.ReportMetric(float64(met.MaxEdgeMessages), "maxEdgeMsgs")
		})
	}
}

// BenchmarkE3Forest — Theorem 2.2: O(n log n) time, polylog congestion.
func BenchmarkE3Forest(b *testing.B) {
	for _, n := range []int{128, 512} {
		g := graph.RandomConnected(n, n, graph.UnitWeights, 3)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var met simnet.Metrics
			for i := 0; i < b.N; i++ {
				eng := simnet.New(g, simnet.Config{Model: simnet.Congest})
				res, err := eng.Run(func(c *simnet.Ctx) {
					mb := proto.NewMailbox(c)
					forest.Build(mb, forest.Params{Tag: 1, StartRound: 0, SizeBound: int64(c.N())})
				})
				if err != nil {
					b.Fatal(err)
				}
				met = res.Metrics
			}
			b.ReportMetric(float64(met.Rounds), "rounds")
			b.ReportMetric(float64(met.MaxEdgeMessages), "maxEdgeMsgs")
		})
	}
}

// BenchmarkE4Covers — Theorems 3.10/3.11 interface: cover construction.
func BenchmarkE4Covers(b *testing.B) {
	g := graph.RandomConnected(256, 512, graph.UnitWeights, 3)
	b.Run("n=256", func(b *testing.B) {
		b.ReportAllocs()
		var cv *decomp.Cover
		for i := 0; i < b.N; i++ {
			var err error
			cv, err = decomp.Build(g, nil, nil, 128)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(cv.MaxOverlap()), "maxOverlap")
		b.ReportMetric(float64(len(cv.Layers)), "layers")
	})
}

// BenchmarkE5EnergyBFS — Theorems 3.8/3.13: Õ(D) time, low energy.
func BenchmarkE5EnergyBFS(b *testing.B) {
	for _, n := range []int{128, 256} {
		g := graph.Path(n, graph.UnitWeights)
		b.Run(fmt.Sprintf("path/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var met simnet.Metrics
			for i := 0; i < b.N; i++ {
				var err error
				_, met, err = energybfs.RunBFS(g, map[graph.NodeID]int64{0: 0}, int64(n-1))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(met.MaxAwake), "maxAwake")
			b.ReportMetric(float64(met.Rounds), "rounds")
		})
	}
}

// BenchmarkE6EnergyForest — Theorem 3.1: low-energy forest.
func BenchmarkE6EnergyForest(b *testing.B) {
	g := graph.RandomConnected(256, 256, graph.UnitWeights, 3)
	b.Run("n=256", func(b *testing.B) {
		b.ReportAllocs()
		var met simnet.Metrics
		for i := 0; i < b.N; i++ {
			eng := simnet.New(g, simnet.Config{Model: simnet.Sleeping})
			res, err := eng.Run(func(c *simnet.Ctx) {
				mb := proto.NewMailbox(c)
				forest.Build(mb, forest.Params{Tag: 1, StartRound: 0, SizeBound: int64(c.N())})
			})
			if err != nil {
				b.Fatal(err)
			}
			met = res.Metrics
		}
		b.ReportMetric(float64(met.MaxAwake), "maxAwake")
	})
}

// BenchmarkE7EnergySSSP — Theorem 3.15 / Theorem 1.1.
func BenchmarkE7EnergySSSP(b *testing.B) {
	g := graph.RandomConnected(20, 10, graph.UniformWeights(4, 7), 7)
	b.Run("n=20", func(b *testing.B) {
		b.ReportAllocs()
		var met simnet.Metrics
		for i := 0; i < b.N; i++ {
			_, _, res, err := core.Run(g, map[graph.NodeID]int64{0: 0}, core.Options{}, simnet.Sleeping, false)
			if err != nil {
				b.Fatal(err)
			}
			met = res.Metrics
		}
		b.ReportMetric(float64(met.MaxAwake), "maxAwake")
		b.ReportMetric(float64(met.Rounds), "rounds")
	})
}

// BenchmarkE8APSP — Section 1.1: APSP composition.
func BenchmarkE8APSP(b *testing.B) {
	g := graph.RandomConnected(32, 64, graph.UniformWeights(32, 11), 11)
	b.Run("n=32", func(b *testing.B) {
		b.ReportAllocs()
		var res *APSPResult
		for i := 0; i < b.N; i++ {
			var err error
			res, err = APSP(g, nil, 42)
			if err != nil {
				b.Fatal(err)
			}
		}
		c := res.Composition
		b.ReportMetric(float64(c.MakespanRandom), "makespanRandom")
		b.ReportMetric(float64(c.MakespanSequential), "makespanSeq")
	})
}

// BenchmarkE9Ablations — ε sweep of the cutter inside the full recursion.
func BenchmarkE9Ablations(b *testing.B) {
	g := graph.RandomConnected(64, 64, graph.UniformWeights(64, 13), 13)
	for _, eps := range [][2]int64{{1, 4}, {1, 2}, {3, 4}} {
		b.Run(fmt.Sprintf("eps=%d/%d", eps[0], eps[1]), func(b *testing.B) {
			b.ReportAllocs()
			var met simnet.Metrics
			for i := 0; i < b.N; i++ {
				_, _, res, err := core.Run(g, map[graph.NodeID]int64{0: 0}, core.Options{EpsNum: eps[0], EpsDen: eps[1]}, simnet.Congest, false)
				if err != nil {
					b.Fatal(err)
				}
				met = res.Metrics
			}
			b.ReportMetric(float64(met.Rounds), "rounds")
			b.ReportMetric(float64(met.MaxEdgeMessages), "maxEdgeMsgs")
		})
	}
}
