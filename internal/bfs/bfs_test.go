package bfs

import (
	"strings"
	"testing"
	"testing/quick"

	"dsssp/internal/graph"
)

func srcs(pairs ...int64) map[graph.NodeID]int64 {
	m := make(map[graph.NodeID]int64, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		m[graph.NodeID(pairs[i])] = pairs[i+1]
	}
	return m
}

func TestFragmentUnweightedPath(t *testing.T) {
	g := graph.Path(8, graph.UnitWeights)
	d, met, err := Run(g, srcs(0, 0), 100)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 8; v++ {
		if d[v] != int64(v) {
			t.Fatalf("d[%d]=%d", v, d[v])
		}
	}
	if met.MaxEdgeMessages > 2 {
		t.Fatalf("congestion %d > 2", met.MaxEdgeMessages)
	}
}

func TestFragmentThresholdCutsOff(t *testing.T) {
	g := graph.Path(10, graph.UnitWeights)
	d, _, err := Run(g, srcs(0, 0), 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 10; v++ {
		if v <= 4 && d[v] != int64(v) {
			t.Fatalf("d[%d]=%d, want %d", v, d[v], v)
		}
		if v > 4 && d[v] != graph.Inf {
			t.Fatalf("d[%d]=%d, want Inf", v, d[v])
		}
	}
}

func TestFragmentWeighted(t *testing.T) {
	g := graph.RandomConnected(60, 80, graph.UniformWeights(7, 3), 3)
	want := graph.Dijkstra(g, 0)
	d, met, err := Run(g, srcs(0, 0), graph.WeightedDiameterUpper(g))
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if d[v] != want[v] {
			t.Fatalf("d[%d]=%d, want %d", v, d[v], want[v])
		}
	}
	if met.MaxEdgeMessages > 2 {
		t.Fatalf("congestion %d > 2 (one token per direction)", met.MaxEdgeMessages)
	}
}

func TestFragmentMultiSourceOffsets(t *testing.T) {
	g := graph.Grid2D(6, 6, graph.UnitWeights)
	sources := srcs(0, 5, 35, 0)
	want := graph.MultiSourceDijkstra(g, sources)
	d, _, err := Run(g, sources, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if d[v] != want[v] {
			t.Fatalf("d[%d]=%d, want %d", v, d[v], want[v])
		}
	}
}

func TestFragmentDisconnected(t *testing.T) {
	g := graph.Disconnected(2, 6, 2, graph.UnitWeights, 4)
	d, _, err := Run(g, srcs(0, 0), 50)
	if err != nil {
		t.Fatal(err)
	}
	for v := 6; v < 12; v++ {
		if d[v] != graph.Inf {
			t.Fatalf("other component node %d got %d", v, d[v])
		}
	}
}

// Property: Fragment equals the sequential reference on random weighted
// graphs with random thresholds and multiple offset sources.
func TestFragmentMatchesReference(t *testing.T) {
	f := func(seed int64, nRaw, thRaw uint8) bool {
		n := int(nRaw%40) + 4
		g := graph.RandomConnected(n, n/2, graph.UniformWeights(9, seed), seed)
		sources := map[graph.NodeID]int64{0: 0, graph.NodeID(n / 2): int64(thRaw % 7)}
		th := int64(thRaw)%40 + 1
		ref := graph.MultiSourceDijkstra(g, sources)
		d, _, err := Run(g, sources, th)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			want := ref[v]
			if want > th {
				want = graph.Inf
			}
			if d[v] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCutterGuarantees(t *testing.T) {
	f := func(seed int64, nRaw uint8, epsPick uint8) bool {
		n := int(nRaw%50) + 4
		g := graph.RandomConnected(n, n, graph.UniformWeights(50, seed), seed)
		sources := map[graph.NodeID]int64{0: 0}
		ref := graph.MultiSourceDijkstra(g, sources)
		// W around half the max distance so both branches get exercised.
		var maxd int64 = 1
		for _, d := range ref {
			if d < graph.Inf && d > maxd {
				maxd = d
			}
		}
		w := maxd/2 + 1
		epsNum := int64(epsPick%4) + 1 // 1..4 over 8
		got, _, err := RunCutter(g, sources, w, epsNum, 8)
		if err != nil {
			return false
		}
		epsW := epsNum * w / 8
		for v := 0; v < n; v++ {
			if got[v] == graph.Inf {
				if ref[v] <= 2*w {
					return false // must capture everything within 2W
				}
				continue
			}
			if got[v] < ref[v] {
				return false // never underestimates
			}
			if got[v] > ref[v]+epsW {
				return false // additive error bound εW (strict < in paper)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCutterCongestionConstant(t *testing.T) {
	// Congestion of one cutter must stay O(1) regardless of n and weights.
	for _, n := range []int{50, 200, 400} {
		g := graph.RandomConnected(n, 2*n, graph.UniformWeights(int64(n), 7), 7)
		_, met, err := RunCutter(g, srcs(0, 0), graph.WeightedDiameterUpper(g)/2, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if met.MaxEdgeMessages > 2 {
			t.Fatalf("n=%d: cutter congestion %d > 2", n, met.MaxEdgeMessages)
		}
	}
}

func TestCutterTimeLinearInEps(t *testing.T) {
	g := graph.Path(64, graph.UniformWeights(1000, 1))
	w := graph.WeightedDiameterUpper(g)
	_, metHalf, err := RunCutter(g, srcs(0, 0), w, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, metEighth, err := RunCutter(g, srcs(0, 0), w, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	// ε/4 smaller => ~4x more rounds; allow generous slack.
	if metEighth.Rounds < 2*metHalf.Rounds {
		t.Fatalf("rounds did not scale with 1/ε: %d vs %d", metHalf.Rounds, metEighth.Rounds)
	}
}

func TestRhoAndRoundWeight(t *testing.T) {
	if r := Rho(1000, 9, 1, 2); r != 50 {
		t.Fatalf("rho=%d, want 50", r)
	}
	if r := Rho(3, 100, 1, 2); r != 1 {
		t.Fatalf("small rho=%d, want 1", r)
	}
	if w := RoundWeight(0, 5); w != 1 {
		t.Fatalf("zero weight rounds to %d, want 1", w)
	}
	if w := RoundWeight(11, 5); w != 3 {
		t.Fatalf("ceil broken: %d", w)
	}
}

func TestCut(t *testing.T) {
	c := NewCut(1000, 9, 1, 2)
	if c.Rho != 50 || c.Threshold != 2*1000/50+9+1 {
		t.Fatalf("cut = %+v, want ρ=50, threshold 2W/ρ+n̂+1 = 50", c)
	}
	if small := NewCut(3, 100, 1, 2); small.Rho != 1 || small.Threshold != 6+101 {
		t.Fatalf("small cut = %+v, want ρ=1, threshold 107", small)
	}
	c = Cut{Rho: 5}
	for _, tc := range []struct{ in, want int64 }{{NotSource, NotSource}, {-3, NotSource}, {0, 0}, {11, 3}, {5, 1}} {
		if got := c.Offset(tc.in); got != tc.want {
			t.Fatalf("Offset(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	if w := c.Weight(11); w != 3 {
		t.Fatalf("Weight(11) = %d, want 3", w)
	}
	if d := c.Dist(graph.Inf); d != graph.Inf {
		t.Fatalf("Dist(Inf) = %d", d)
	}
	if d := c.Dist(7); d != 35 {
		t.Fatalf("Dist(7) = %d, want 35", d)
	}
}

func TestNewCutPanics(t *testing.T) {
	for _, tc := range []struct{ w, epsNum, epsDen int64 }{
		{10, 0, 2}, {10, 2, 2}, {10, 3, 2}, {10, -1, 2}, {10, 1, 0}, {0, 1, 2}, {-4, 1, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCut(w=%d, ε=%d/%d) did not panic", tc.w, tc.epsNum, tc.epsDen)
				}
			}()
			NewCut(tc.w, 5, tc.epsNum, tc.epsDen)
		}()
	}
	g := graph.Path(4, graph.UnitWeights)
	if _, _, err := RunCutter(g, srcs(0, 0), 10, 1, 1); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("RunCutter with ε = 1: err = %v, want a node panic", err)
	}
}

func TestFragmentZeroWeightRejected(t *testing.T) {
	g := graph.Path(3, func(int) int64 { return 0 })
	_, _, err := Run(g, srcs(0, 0), 10)
	if err == nil {
		t.Fatal("want error for non-positive fragment weight")
	}
}
