package core

import (
	"strings"
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

// Edge-case coverage for startThreshold and the Options ε plumbing: the
// recursion's correctness hangs on D0 strictly covering every finite
// distance and on ε staying inside (0,1), so the boundaries get explicit
// tests through both recursions.

func TestStartThresholdCoversDistances(t *testing.T) {
	cases := []struct {
		n, maxW int
		maxOff  int64
	}{
		{4, 1, 0},        // tiny unit graph, zero offset
		{4, 1, 100},      // offset dominates the bound
		{16, 9, 0},       // weights dominate
		{2, 1, 1 << 30},  // huge offset: levels from the offset alone
		{64, 4096, 1337}, // poly weights plus an offset
	}
	for _, tc := range cases {
		g := graph.RandomConnected(tc.n, tc.n, graph.UniformWeights(int64(tc.maxW), 3), 3)
		d0, levels := startThreshold(g, tc.maxOff)
		bound := int64(g.N())*g.MaxWeight() + tc.maxOff + 1
		if d0 <= 0 || d0&(d0-1) != 0 {
			t.Errorf("n=%d maxW=%d off=%d: D0=%d is not a positive power of two", tc.n, tc.maxW, tc.maxOff, d0)
		}
		if d0 < bound {
			t.Errorf("n=%d maxW=%d off=%d: D0=%d does not cover the distance bound %d", tc.n, tc.maxW, tc.maxOff, d0, bound)
		}
		if d0 >= 4*bound {
			t.Errorf("n=%d maxW=%d off=%d: D0=%d overshoots the bound %d by more than 2 doublings", tc.n, tc.maxW, tc.maxOff, d0, bound)
		}
		if int64(1)<<levels != d0 {
			t.Errorf("levels=%d inconsistent with D0=%d", levels, d0)
		}
	}
}

// TestEpsValidationBoundaries: ε must be accepted exactly on (0,1), with
// 0/0 defaulting to 1/2, through both recursions' entry validation.
func TestEpsValidationBoundaries(t *testing.T) {
	valid := []Options{
		{},                                       // default 1/2
		{EpsNum: 1, EpsDen: 2},                   // the default, spelled out
		{EpsNum: 1, EpsDen: 1 << 40},             // arbitrarily small ε validates
		{EpsNum: (1 << 40) - 1, EpsDen: 1 << 40}, // ε arbitrarily close to 1
	}
	for _, o := range valid {
		if _, _, err := o.validEps(); err != nil {
			t.Errorf("Options %+v rejected: %v", o, err)
		}
	}
	invalid := []Options{
		{EpsNum: 1, EpsDen: 1},  // ε = 1
		{EpsNum: 2, EpsDen: 1},  // ε > 1
		{EpsNum: -1, EpsDen: 2}, // negative numerator
		{EpsNum: 1, EpsDen: -2}, // negative denominator
		{EpsNum: 0, EpsDen: 2},  // ε = 0 (explicit zero numerator)
		{EpsNum: 3, EpsDen: 0},  // zero denominator
	}
	g := graph.Path(4, graph.UnitWeights)
	for _, o := range invalid {
		if _, _, err := o.validEps(); err == nil {
			t.Errorf("Options %+v accepted", o)
		}
		// The boundary must hold at both public entrypoints.
		if _, _, _, err := Run(g, map[graph.NodeID]int64{0: 0}, o, simnet.Congest, false); err == nil || !strings.Contains(err.Error(), "ε") {
			t.Errorf("Run (congest) accepted Options %+v (err=%v)", o, err)
		}
		if _, _, _, err := Run(g, map[graph.NodeID]int64{0: 0}, o, simnet.Sleeping, false); err == nil || !strings.Contains(err.Error(), "ε") {
			t.Errorf("Run (sleeping) accepted Options %+v (err=%v)", o, err)
		}
	}
}

// TestEpsExtremesRun: ε values near the validation boundaries must still
// produce exact distances (Lemma 2.1 holds for every ε in (0,1)).
func TestEpsExtremesRun(t *testing.T) {
	g := graph.RandomConnected(12, 12, graph.UniformWeights(4, 5), 5)
	want := graph.Dijkstra(g, 0)
	for _, o := range []Options{{EpsNum: 1, EpsDen: 16}, {EpsNum: 15, EpsDen: 16}} {
		got, _, _, err := Run(g, map[graph.NodeID]int64{0: 0}, o, simnet.Congest, false)
		if err != nil {
			t.Fatalf("eps %d/%d: %v", o.EpsNum, o.EpsDen, err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("eps %d/%d: node %d: got %d, want %d", o.EpsNum, o.EpsDen, v, got[v], want[v])
			}
		}
	}
}

// TestSingleNodeBothRecursions: a one-node graph (no edges) through both
// recursions — with a source, without a source, and with an offset.
func TestSingleNodeBothRecursions(t *testing.T) {
	g := graph.New(1)
	g.SortAdj()
	runs := map[string]func(map[graph.NodeID]int64) ([]int64, error){
		"congest": func(src map[graph.NodeID]int64) ([]int64, error) {
			d, _, _, err := Run(g, src, Options{}, simnet.Congest, false)
			return d, err
		},
		"energy": func(src map[graph.NodeID]int64) ([]int64, error) {
			d, _, _, err := Run(g, src, Options{}, simnet.Sleeping, false)
			return d, err
		},
	}
	for name, run := range runs {
		if d, err := run(map[graph.NodeID]int64{0: 0}); err != nil || d[0] != 0 {
			t.Errorf("%s single node source: d=%v err=%v, want [0]", name, d, err)
		}
		if d, err := run(map[graph.NodeID]int64{0: 5}); err != nil || d[0] != 5 {
			t.Errorf("%s single node offset: d=%v err=%v, want [5]", name, d, err)
		}
		if d, err := run(nil); err != nil || d[0] != graph.Inf {
			t.Errorf("%s single node no source: d=%v err=%v, want [+Inf]", name, d, err)
		}
	}
}

// TestNoSourcesBothRecursions: an empty source set must yield +Inf
// everywhere (not an error, matching MultiSourceDijkstra's convention) in
// both models.
func TestNoSourcesBothRecursions(t *testing.T) {
	g := graph.Grid2D(3, 3, graph.UniformWeights(3, 11))
	dc, _, _, err := Run(g, map[graph.NodeID]int64{}, Options{}, simnet.Congest, false)
	if err != nil {
		t.Fatal(err)
	}
	de, _, _, err := Run(g, map[graph.NodeID]int64{}, Options{}, simnet.Sleeping, false)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if dc[v] != graph.Inf || de[v] != graph.Inf {
			t.Fatalf("node %d: congest %d, energy %d, want +Inf in both", v, dc[v], de[v])
		}
	}
}

// TestMaxOffsetBothRecursions: a source offset far above any edge weight
// (so startThreshold's levels come from the offset) must still be exact —
// the offset rides the recursion as an imaginary-node distance.
func TestMaxOffsetBothRecursions(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights)
	const huge = int64(1) << 30
	sources := map[graph.NodeID]int64{0: huge, 3: 0}
	want := graph.MultiSourceDijkstra(g, sources)
	dc, _, _, err := Run(g, sources, Options{}, simnet.Congest, false)
	if err != nil {
		t.Fatal(err)
	}
	de, _, _, err := Run(g, sources, Options{}, simnet.Sleeping, false)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if dc[v] != want[v] || de[v] != want[v] {
			t.Fatalf("node %d: congest %d, energy %d, want %d", v, dc[v], de[v], want[v])
		}
	}
}

// TestZeroOffsetsAllSources: offsets of zero on every node short-circuit
// every distance to 0 in both recursions (the degenerate CSSP).
func TestZeroOffsetsAllSources(t *testing.T) {
	g := graph.Cycle(8, graph.UniformWeights(6, 13))
	sources := make(map[graph.NodeID]int64, g.N())
	for v := 0; v < g.N(); v++ {
		sources[graph.NodeID(v)] = 0
	}
	for name, run := range map[string]func() ([]int64, error){
		"congest": func() ([]int64, error) {
			d, _, _, err := Run(g, sources, Options{}, simnet.Congest, false)
			return d, err
		},
		"energy": func() ([]int64, error) {
			d, _, _, err := Run(g, sources, Options{}, simnet.Sleeping, false)
			return d, err
		},
	} {
		d, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v, dv := range d {
			if dv != 0 {
				t.Fatalf("%s: node %d: %d, want 0", name, v, dv)
			}
		}
	}
}
