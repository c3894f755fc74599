package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsssp/internal/decomp"
	"dsssp/internal/energybfs"
	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sleeping_metrics.golden")

// sleepingGraph is the sim-sleeping benchmark input: random n=64, weights
// 1..8.
func sleepingGraph() *graph.Graph {
	return graph.Make(graph.FamilyRandom, 64, graph.UniformWeights(8, 1), 1)
}

// TestSleepingMetricsPinned pins the sleeping-model schedule byte for byte:
// rounds, messages, awake rounds (total, max, per node), lost messages,
// per-edge message counts and the phase span ledger of a sleeping-model
// Run on the sim-sleeping graph (sources 0-3), the same counts of
// energybfs.RunBFS on a path and a grid (n=64), a digest of the layered
// cover those runs use, and the counts of four more RunBFS inputs (offset
// sources, a low threshold, no sources, two components). Performance work on energybfs and
// decomp must leave every line unchanged; a change to the schedule itself
// (a correctness fix) regenerates the file with `go test ./internal/core
// -run TestSleepingMetricsPinned -update`.
func TestSleepingMetricsPinned(t *testing.T) {
	var out strings.Builder
	g := sleepingGraph()
	for src := graph.NodeID(0); src < 4; src++ {
		dist, _, res, err := Run(g, map[graph.NodeID]int64{src: 0}, Options{}, simnet.Sleeping, false)
		if err != nil {
			t.Fatal(err)
		}
		met := res.Metrics
		fmt.Fprintf(&out, "sssp random n=64 maxw=8 source=%d\n", src)
		fmt.Fprintf(&out, "  dist %v\n", dist)
		writeSleepingMetrics(&out, met)
	}
	for _, fam := range []graph.Family{graph.FamilyPath, graph.FamilyGrid} {
		bg := graph.Make(fam, 64, graph.UnitWeights, 1)
		th := int64(bg.N())
		dist, met, err := energybfs.RunBFS(bg, map[graph.NodeID]int64{0: 0}, th)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "bfs %s n=%d threshold=%d\n", fam, bg.N(), th)
		fmt.Fprintf(&out, "  dist %v\n", dist)
		writeSleepingMetrics(&out, met)
		cv, err := decomp.Build(bg, nil, nil, th)
		if err != nil {
			t.Fatal(err)
		}
		writeCoverDigest(&out, cv)
	}
	cv, err := decomp.Build(g, nil, func(u graph.NodeID, i int) int64 { return g.Adj(u)[i].W }, 64)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "cover random n=64 maxw=8 weighted maxDist=64\n")
	writeCoverDigest(&out, cv)
	// Hop BFS inputs that reach the runner's other transitions: a second,
	// offset source; a threshold below the eccentricity (some nodes end
	// unreached); no sources at all; and a component with no source.
	for _, c := range []struct {
		name      string
		g         *graph.Graph
		sources   map[graph.NodeID]int64
		threshold int64
	}{
		{"expander n=64", graph.Make(graph.FamilyExpander, 64, graph.UnitWeights, 1), map[graph.NodeID]int64{0: 0, 40: 3}, 16},
		{"path n=64", graph.Make(graph.FamilyPath, 64, graph.UnitWeights, 1), map[graph.NodeID]int64{0: 0}, 20},
		{"path n=12", graph.Make(graph.FamilyPath, 12, graph.UnitWeights, 1), nil, 11},
		{"disconnected 2x8", graph.Disconnected(2, 8, 2, graph.UnitWeights, 5), map[graph.NodeID]int64{0: 0}, 10},
	} {
		dist, met, err := energybfs.RunBFS(c.g, c.sources, c.threshold)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "bfs %s threshold=%d sources=%v\n", c.name, c.threshold, c.sources)
		fmt.Fprintf(&out, "  dist %v\n", dist)
		writeSleepingMetrics(&out, met)
	}

	golden := filepath.Join("testdata", "sleeping_metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing %s (regenerate with -update): %v", golden, err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("sleeping schedule diverges from %s at line %d:\ngot:  %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("sleeping schedule diverges from %s in length: got %d lines, want %d", golden, len(gl), len(wl))
	}
}

func writeSleepingMetrics(out *strings.Builder, met simnet.Metrics) {
	fmt.Fprintf(out, "  rounds %d messages %d total_awake %d max_awake %d lost %d\n",
		met.Rounds, met.Messages, met.TotalAwake, met.MaxAwake, met.LostMessages)
	fmt.Fprintf(out, "  per_node_awake %v\n", met.PerNodeAwake)
	fmt.Fprintf(out, "  per_edge_messages %v\n", met.PerEdgeMessages)
	for _, s := range met.Spans {
		fmt.Fprintf(out, "  span %s depth=%d rounds=%d messages=%d awake=%d\n",
			s.Name, s.Depth, s.Rounds, s.Messages, s.AwakeRounds)
	}
}

// writeCoverDigest records a cover's layer metadata and an FNV-1a digest of
// every node's memberships in Cover.Node order.
func writeCoverDigest(out *strings.Builder, cv *decomp.Cover) {
	fmt.Fprintf(out, "  cover B=%d clusters=%d max_overlap=%d\n", cv.B, cv.ClusterCount, cv.MaxOverlap())
	for j, l := range cv.Layers {
		fmt.Fprintf(out, "  layer %d radius=%d max_depth=%d period=%d clusters=%d\n", j, l.Radius, l.MaxDepth, l.Period, l.Clusters)
	}
	h := fnv.New64a()
	for v, ms := range cv.Node {
		for _, m := range ms {
			fmt.Fprintf(h, "%d:%d/%d/%d/%d/%v/%d;", v, m.Cluster, m.Layer, m.Depth, m.Parent, m.Children, m.ParentCluster)
		}
	}
	fmt.Fprintf(out, "  memberships %016x\n", h.Sum64())
}
