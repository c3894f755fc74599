package dsssp

import (
	"fmt"
	"strings"
	"testing"

	"dsssp/internal/graph"
)

// Differential tests: every distributed algorithm, on randomized graphs
// across all families, weight kinds, ε values, and models, must agree
// exactly with the sequential Dijkstra/BFS references in
// internal/graph/reference.go. The corpus is deterministic (seeded), so a
// failure reproduces bit-for-bit.

// diffCase is one deterministic differential workload.
type diffCase struct {
	fam    graph.Family
	n      int
	kind   string // "unit" | "uniform" | "zero"
	maxW   int64
	seed   int64
	epsN   int64
	epsD   int64
	strict bool
}

func (c diffCase) String() string {
	return fmt.Sprintf("%s/n=%d/%s%d/seed=%d/eps=%d-%d/strict=%v",
		c.fam, c.n, c.kind, c.maxW, c.seed, c.epsN, c.epsD, c.strict)
}

func (c diffCase) build() *graph.Graph {
	var w graph.WeightFn
	switch c.kind {
	case "uniform":
		w = graph.UniformWeights(c.maxW, c.seed*3+1)
	case "zero":
		w = graph.ZeroHeavyWeights(c.maxW, c.seed*3+1)
	default:
		w = graph.UnitWeights
	}
	return graph.Make(c.fam, c.n, w, c.seed)
}

// checkCSSP runs CSSP under the case's options in the given model and
// compares against MultiSourceDijkstra. Sources are spread over the ID
// space with small offsets (the Section 2.3 imaginary-node regime).
func checkCSSP(t *testing.T, c diffCase, model Model) {
	t.Helper()
	g := c.build()
	sources := map[NodeID]int64{0: 0}
	if c.n >= 8 {
		sources[NodeID(g.N()/2)] = 2
	}
	opts := &Options{Model: model, EpsNum: c.epsN, EpsDen: c.epsD, StrictCongest: c.strict}
	res, err := CSSP(g, sources, opts)
	if err != nil {
		t.Fatalf("%s (%s): %v", c, model, err)
	}
	want := graph.MultiSourceDijkstra(g, sources)
	for v := range want {
		if res.Dist[v] != want[v] {
			t.Fatalf("%s (%s): dist[%d] = %d, want %d", c, model, v, res.Dist[v], want[v])
		}
	}
	if c.strict && res.Metrics.MaxMessageBits == 0 {
		t.Fatalf("%s: strict run did not measure message bits", c)
	}
}

// TestDifferentialCongest sweeps every family × weight kind at CONGEST
// scale against the sequential reference.
func TestDifferentialCongest(t *testing.T) {
	for _, fam := range graph.Families() {
		for _, kind := range []string{"unit", "uniform", "zero"} {
			if fam == graph.FamilyBFGadget && kind != "unit" {
				continue // structural weights
			}
			for seed := int64(1); seed <= 2; seed++ {
				c := diffCase{fam: fam, n: 24 + 8*int(seed), kind: kind, maxW: 9, seed: seed}
				checkCSSP(t, c, ModelCongest)
			}
		}
	}
}

// TestDifferentialEps sweeps the cutter ε: exactness must be ε-independent
// (Lemma 2.1 only changes the overshoot of the cut, never the final
// distances).
func TestDifferentialEps(t *testing.T) {
	eps := [][2]int64{{1, 8}, {1, 4}, {1, 3}, {1, 2}, {2, 3}, {3, 4}, {7, 8}}
	for _, e := range eps {
		for _, fam := range []graph.Family{graph.FamilyRandom, graph.FamilyBarbell, graph.FamilyDisconnected} {
			c := diffCase{fam: fam, n: 30, kind: "uniform", maxW: 11, seed: 5, epsN: e[0], epsD: e[1]}
			checkCSSP(t, c, ModelCongest)
		}
	}
	// ε is a knob of the sleeping-model recursion too.
	for _, e := range [][2]int64{{1, 4}, {3, 4}} {
		c := diffCase{fam: graph.FamilyRandom, n: 12, kind: "uniform", maxW: 4, seed: 2, epsN: e[0], epsD: e[1]}
		checkCSSP(t, c, ModelSleeping)
	}
}

// TestDifferentialSleeping: the energy recursion at small scale across
// structurally distinct families, including a multi-component one.
func TestDifferentialSleeping(t *testing.T) {
	for _, fam := range []graph.Family{graph.FamilyPath, graph.FamilyRandom, graph.FamilyCluster, graph.FamilyDisconnected} {
		for seed := int64(1); seed <= 2; seed++ {
			c := diffCase{fam: fam, n: 14, kind: "uniform", maxW: 4, seed: seed}
			checkCSSP(t, c, ModelSleeping)
		}
	}
}

// TestDifferentialStrict: strict-CONGEST enforcement must not change any
// distance — it only bounds the wire format — and the measured message
// sizes must sit inside the O(log n) budget for every family.
func TestDifferentialStrict(t *testing.T) {
	for _, fam := range graph.Families() {
		kind := "uniform"
		if fam == graph.FamilyBFGadget {
			kind = "unit"
		}
		c := diffCase{fam: fam, n: 32, kind: kind, maxW: 13, seed: 4, strict: true}
		checkCSSP(t, c, ModelCongest)
	}
	// Zero weights trigger the Thm 2.7 rescaling; the budget is derived
	// from the rescaled graph and must still hold.
	checkCSSP(t, diffCase{fam: graph.FamilyRandom, n: 32, kind: "zero", maxW: 13, seed: 4, strict: true}, ModelCongest)
}

// TestDifferentialBFS: hop distances in both models against BFSDist,
// including unreachable (+Inf) nodes in the disconnected family.
func TestDifferentialBFS(t *testing.T) {
	for _, fam := range []graph.Family{graph.FamilyPath, graph.FamilyGrid, graph.FamilyExpander, graph.FamilyDisconnected} {
		for _, model := range []Model{ModelCongest, ModelSleeping} {
			g := graph.Make(fam, 40, graph.UnitWeights, 9)
			threshold := 2*graph.HopDiameterApprox(g) + 1
			res, err := BFS(g, map[NodeID]bool{0: true}, threshold, &Options{Model: model})
			if err != nil {
				t.Fatalf("%s (%s): %v", fam, model, err)
			}
			want := graph.BFSDist(g, 0)
			for v := range want {
				if res.Dist[v] != want[v] {
					t.Fatalf("%s (%s): hop[%d] = %d, want %d", fam, model, v, res.Dist[v], want[v])
				}
			}
		}
	}
}

// TestDifferentialMultiComponent: every algorithm on disconnected graphs
// reports the exact +Inf sentinel (never a huge finite value) for nodes in
// sourceless components, and the shortest-path forest marks them
// parent-less.
func TestDifferentialMultiComponent(t *testing.T) {
	g := graph.Disconnected(3, 9, 4, graph.UniformWeights(6, 11), 11)
	comp, ncomp := graph.Components(g)
	if ncomp != 3 {
		t.Fatalf("want 3 components, got %d", ncomp)
	}
	for _, model := range []Model{ModelCongest, ModelSleeping} {
		res, err := SSSP(g, 0, &Options{Model: model})
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		for v := 0; v < g.N(); v++ {
			if comp[v] == comp[0] {
				if res.Dist[v] == Inf {
					t.Fatalf("%s: reachable node %d reported +Inf", model, v)
				}
			} else if res.Dist[v] != Inf {
				t.Fatalf("%s: unreachable node %d reported %d, want the exact +Inf sentinel", model, v, res.Dist[v])
			}
		}
	}
	tree, err := SSSPTree(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Verify(g, map[NodeID]int64{0: 0}); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if comp[v] != comp[0] {
			if tree.Parent[v] != -1 {
				t.Fatalf("unreachable node %d has parent %d", v, tree.Parent[v])
			}
			if _, err := tree.PathTo(NodeID(v)); err == nil {
				t.Fatalf("unreachable node %d: PathTo must error", v)
			}
		}
	}
}

// FuzzCSSPDifferential is the fuzz form of the matrix: the seed corpus
// below is the deterministic checked-in corpus (run on every plain
// `go test`), and `go test -fuzz=FuzzCSSPDifferential` explores beyond it.
// sleeping selects the model; strict applies to CONGEST runs only.
func FuzzCSSPDifferential(f *testing.F) {
	fams := graph.Families()
	f.Add(int64(1), uint8(0), uint8(24), uint8(5), uint8(1), uint8(2), false, false)
	f.Add(int64(7), uint8(4), uint8(40), uint8(16), uint8(1), uint8(4), true, false)
	f.Add(int64(3), uint8(11), uint8(30), uint8(0), uint8(3), uint8(4), false, true) // disconnected, unit weights
	f.Add(int64(9), uint8(8), uint8(36), uint8(9), uint8(7), uint8(8), true, false)  // barbell
	f.Add(int64(5), uint8(10), uint8(20), uint8(3), uint8(1), uint8(2), false, true) // bfgadget
	f.Fuzz(func(t *testing.T, seed int64, famIdx, nRaw, maxWRaw, epsN, epsD uint8, strict, sleeping bool) {
		fam := fams[int(famIdx)%len(fams)]
		n := 8 + int(nRaw)%40
		maxW := int64(maxWRaw)%17 + 1
		var w graph.WeightFn = graph.UnitWeights
		if maxW > 1 {
			w = graph.UniformWeights(maxW, seed*3+1)
		}
		if fam == graph.FamilyCluster && n < 16 {
			n = 16 // Clusters needs at least two groups of 8
		}
		g := graph.Make(fam, n, w, seed)
		opts := &Options{Model: ModelCongest, StrictCongest: strict && !sleeping}
		if sleeping {
			opts.Model = ModelSleeping
		}
		if epsN > 0 && epsD > 0 && epsN%epsD != 0 && epsN < epsD {
			opts.EpsNum, opts.EpsDen = int64(epsN), int64(epsD)
		}
		off := seed % 5
		sources := map[NodeID]int64{0: 0, NodeID(g.N() / 2): off}
		res, err := CSSP(g, sources, opts)
		if off < 0 {
			// A negative seed gives a negative offset, which CSSP must reject.
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("negative offset %d", off)) {
				t.Fatalf("CSSP(%s, n=%d, seed=%d, %s) with offset %d: got %v, want a negative-offset error", fam, n, seed, opts.Model, off, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("CSSP(%s, n=%d, seed=%d, %s): %v", fam, n, seed, opts.Model, err)
		}
		want := graph.MultiSourceDijkstra(g, sources)
		for v := range want {
			if res.Dist[v] != want[v] {
				t.Fatalf("CSSP(%s, n=%d, seed=%d, eps=%d/%d, %s, strict=%v): dist[%d] = %d, want %d",
					fam, n, seed, opts.EpsNum, opts.EpsDen, opts.Model, opts.StrictCongest, v, res.Dist[v], want[v])
			}
		}
	})
}

// TestDifferentialSleepingHeavyWeights: sleeping SSSP with edge weights up
// to n, where a single edge can outweigh a cover layer's radius. The cover
// must keep every member's neighbours inside its parent cluster, or a
// token reaches a node whose cluster is still asleep and is lost.
func TestDifferentialSleepingHeavyWeights(t *testing.T) {
	for _, c := range []struct {
		n    int
		maxW int64
	}{{24, 24}, {32, 32}, {32, 16}, {48, 48}} {
		g := graph.Make(graph.FamilyRandom, c.n, graph.UniformWeights(c.maxW, 7), 3)
		for src := NodeID(0); src < 12; src++ {
			res, err := SSSP(g, src, &Options{Model: ModelSleeping})
			if err != nil {
				t.Fatalf("n=%d maxW=%d source %d: %v", c.n, c.maxW, src, err)
			}
			want := graph.Dijkstra(g, src)
			for v := range want {
				if res.Dist[v] != want[v] {
					t.Fatalf("n=%d maxW=%d source %d: dist[%d] = %d, want %d", c.n, c.maxW, src, v, res.Dist[v], want[v])
				}
			}
		}
	}
}
