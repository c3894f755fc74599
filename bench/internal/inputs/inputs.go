// Package inputs builds the graphs the benchmark's workloads run on, so
// the end-to-end runs and the per-layer probes measure the same inputs.
package inputs

import (
	"encoding/hex"
	"fmt"
	"math/rand"

	"dsssp/internal/graph"
	"dsssp/internal/service"
)

// Sizes are the workloads' input sizes.
type Sizes struct {
	CongestN     int   // sim-congest graph; weights 1..CongestN
	SleepingN    int   // sim-sleeping graph
	SleepingMaxW int64 // sim-sleeping weights
	HotSpecs     int   // serve-hot generator specs
	HotN         int   // serve-hot spec size
	HotAPSPN     int   // serve-hot APSP spec size
	DynN         int   // serve-dynamic graph
	DynSources   int   // serve-dynamic query sources
	DynPerRound  int   // serve-dynamic queries between two PATCHes
}

// For returns the full sizes, or tiny ones for -smoke. sim-sleeping's
// weights stay at most 8: from about 24 up the sleeping-model SSSP returns
// wrong distances (bench/README.md, finding d).
func For(smoke bool) Sizes {
	if smoke {
		return Sizes{32, 16, 8, 2, 24, 12, 400, 8, 8}
	}
	return Sizes{256, 64, 8, 8, 128, 32, 10000, 32, 40}
}

// SimGraph is a simulator workload's graph: random, n nodes, uniform
// weights in [1, maxW]. Structure and weights are fixed rather than drawn
// from the seed: in the sleeping model the mean work of a simulation on
// one generator seed's graph differs from another's by up to 17% in awake
// resumes and 29% in messages, which would swamp the run-to-run spread the
// regression bounds are set from. The seed picks the sources.
func SimGraph(n int, maxW int64) *graph.Graph {
	return graph.Make(graph.FamilyRandom, n, graph.UniformWeights(maxW, 1), 1)
}

// SimSources is the seeded order in which a simulator workload visits its
// sources.
func SimSources(n int, seed int64) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i, v := range rand.New(rand.NewSource(seed)).Perm(n) {
		out[i] = graph.NodeID(v)
	}
	return out
}

// Dynamic is serve-dynamic's registered graph — random, n nodes, uniform
// weights in [1, n], all drawn from the seed — and its query sources.
func Dynamic(seed int64, n, sources int) (*graph.Graph, []graph.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.Make(graph.FamilyRandom, n, graph.UniformWeights(int64(n), rng.Int63()), rng.Int63())
	srcs := make([]graph.NodeID, sources)
	for i, v := range rng.Perm(n)[:sources] {
		srcs[i] = graph.NodeID(v)
	}
	return g, srcs
}

// Registry registers g with an exact trace (distances and witness tree)
// for every source and returns the registry and the graph's handle. With
// dir set the registry persists there: a daemon started with
// -registry-dir dir warm-starts from it after Flush and answers those
// sources by repair instead of simulating.
func Registry(dir string, g *graph.Graph, sources []graph.NodeID) (*service.GraphRegistry, string, error) {
	reg := service.NewGraphRegistry(1<<40, service.NewCache(64<<20), nil)
	if dir != "" {
		if _, err := reg.EnablePersistence(dir); err != nil {
			return nil, "", err
		}
	}
	info, _ := reg.Register(g)
	var digest [32]byte
	if _, err := hex.Decode(digest[:], []byte(info.Digest)); err != nil {
		return nil, "", fmt.Errorf("graph digest %q: %w", info.Digest, err)
	}
	for _, s := range sources {
		d := graph.Dijkstra(g, s)
		reg.Record(info.ID, digest, s, d, graph.WitnessParents(g, s, d), "")
	}
	return reg, info.ID, nil
}

// WriteRegistry is Registry persisted under dir and flushed; it returns
// the graph's handle.
func WriteRegistry(dir string, g *graph.Graph, sources []graph.NodeID) (string, error) {
	reg, id, err := Registry(dir, g, sources)
	if err != nil {
		return "", err
	}
	return id, reg.Flush()
}
