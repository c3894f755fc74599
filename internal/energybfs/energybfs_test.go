package energybfs

import (
	"math/bits"
	"testing"
	"testing/quick"

	"dsssp/internal/graph"
)

func checkBFS(t *testing.T, g *graph.Graph, sources map[graph.NodeID]int64, threshold int64) {
	t.Helper()
	got, met, err := RunBFS(g, sources, threshold)
	if err != nil {
		t.Fatal(err)
	}
	ref := graph.MultiSourceDijkstra(g.Reweight(func(graph.EdgeID, int64) int64 { return 1 }), sources)
	for v := range ref {
		want := ref[v]
		if want > threshold {
			want = graph.Inf
		}
		if got[v] != want {
			t.Fatalf("node %d: got %d, want %d", v, got[v], want)
		}
	}
	if met.LostMessages != 0 {
		t.Fatalf("energy BFS lost %d messages — activation failed to outrun the frontier", met.LostMessages)
	}
}

func TestEnergyBFSPath(t *testing.T) {
	checkBFS(t, graph.Path(16, graph.UnitWeights), map[graph.NodeID]int64{0: 0}, 15)
}

func TestEnergyBFSGrid(t *testing.T) {
	checkBFS(t, graph.Grid2D(5, 5, graph.UnitWeights), map[graph.NodeID]int64{12: 0}, 8)
}

func TestEnergyBFSThreshold(t *testing.T) {
	checkBFS(t, graph.Path(20, graph.UnitWeights), map[graph.NodeID]int64{0: 0}, 6)
}

func TestEnergyBFSMultiSourceOffsets(t *testing.T) {
	checkBFS(t, graph.Cycle(14, graph.UnitWeights), map[graph.NodeID]int64{0: 2, 7: 0}, 9)
}

func TestEnergyBFSRandom(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%24) + 4
		g := graph.RandomConnected(n, n/2, graph.UnitWeights, seed)
		th := int64(n)
		got, met, err := RunBFS(g, map[graph.NodeID]int64{0: 0}, th)
		if err != nil {
			t.Logf("err: %v", err)
			return false
		}
		if met.LostMessages != 0 {
			t.Logf("lost %d", met.LostMessages)
			return false
		}
		ref := graph.BFSDist(g, 0)
		for v := range ref {
			want := ref[v]
			if want > th {
				want = graph.Inf
			}
			if got[v] != want {
				t.Logf("n=%d seed=%d v=%d got %d want %d", n, seed, v, got[v], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyBFSDisconnected(t *testing.T) {
	g := graph.Disconnected(2, 8, 2, graph.UnitWeights, 5)
	got, met, err := RunBFS(g, map[graph.NodeID]int64{0: 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for v := 8; v < 16; v++ {
		if got[v] != graph.Inf {
			t.Fatalf("node %d reachable? got %d", v, got[v])
		}
	}
	_ = met
}

func TestEnergyBFSWeightedMetric(t *testing.T) {
	// Rounded-weight metric (the Theorem 3.15 usage): cover and BFS share
	// the weighted metric.
	g := graph.RandomConnected(18, 12, graph.UniformWeights(3, 7), 7)
	ref := graph.Dijkstra(g, 0)
	var maxd int64 = 1
	for _, d := range ref {
		if d < graph.Inf && d > maxd {
			maxd = d
		}
	}
	cv, err := buildWeighted(g, maxd)
	if err != nil {
		t.Fatal(err)
	}
	got, met := runWeighted(t, g, cv, maxd)
	for v := range ref {
		if got[v] != ref[v] {
			t.Fatalf("node %d: got %d, want %d", v, got[v], ref[v])
		}
	}
	if met.LostMessages != 0 {
		t.Fatalf("lost %d messages", met.LostMessages)
	}
}

func TestEnergyBFSEnergySublinear(t *testing.T) {
	// Theorem 3.8/3.13 shape: on a path (D = n-1) the always-awake baseline
	// needs MaxAwake = Θ(rounds); the cover-driven BFS's energy must
	// diverge from its running time as n grows (the polylog constants are
	// large at these sizes — cf. the paper's log^18-style bounds — so the
	// assertion is on the divergence, and EXPERIMENTS.md reports the raw
	// curves).
	type point struct{ awake, rounds int64 }
	pts := map[int]point{}
	for _, n := range []int{128, 512} {
		g := graph.Path(n, graph.UnitWeights)
		_, met, err := RunBFS(g, map[graph.NodeID]int64{0: 0}, int64(n-1))
		if err != nil {
			t.Fatal(err)
		}
		pts[n] = point{met.MaxAwake, met.Rounds}
	}
	if 2*pts[512].awake > pts[512].rounds {
		t.Fatalf("n=512: energy %d not well below time %d", pts[512].awake, pts[512].rounds)
	}
	// Quadrupling n (and so D, and the rounds) must far less than quadruple
	// the energy.
	if pts[512].awake > 2*pts[128].awake {
		t.Fatalf("energy grew too fast: %d -> %d for n 128 -> 512", pts[128].awake, pts[512].awake)
	}
	_ = bits.Len(0)
}

// TestEnergyBFSEnergyFlatInThreshold: once the threshold passes the
// eccentricity, a higher threshold adds steps at which nothing is left to
// relay or receive, so a node's energy must not grow with it. A reached
// node that kept waking at every step until the threshold would be awake
// Θ(threshold) rounds.
func TestEnergyBFSEnergyFlatInThreshold(t *testing.T) {
	g := graph.Make(graph.FamilyExpander, 128, graph.UnitWeights, 1)
	var awake []int64
	for _, th := range []int64{127, 1023, 4095} {
		got, met, err := RunBFS(g, map[graph.NodeID]int64{0: 0}, th)
		if err != nil {
			t.Fatal(err)
		}
		if met.LostMessages != 0 {
			t.Fatalf("threshold %d: lost %d messages", th, met.LostMessages)
		}
		for v, d := range graph.BFSDist(g, 0) {
			if got[v] != d {
				t.Fatalf("threshold %d: node %d at %d, want %d", th, v, got[v], d)
			}
		}
		awake = append(awake, met.MaxAwake)
	}
	if last := awake[len(awake)-1]; last > awake[0]+awake[0]/8 {
		t.Fatalf("max awake %v at thresholds 127/1023/4095: grows with the threshold", awake)
	}
}

func TestDurationExact(t *testing.T) {
	g := graph.Path(10, graph.UnitWeights)
	cv, err := decompBuild(g, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := Duration(cv, 9)
	got, _ := runWithRoundCheck(t, g, cv, 9)
	for v, r := range got {
		if r != want {
			t.Fatalf("node %d returned at %d, want %d", v, r, want)
		}
	}
}

// TestEnergyBFSAllocsPerResume guards the allocation-free BFS: a RunBFS on
// a path and a grid (n=64) may allocate at most 0.3 objects per awake
// resume, the bound of core's TestSleepingAllocsPerResume. The wakes run
// as Step calls on the runner, so they allocate nothing; what remains is
// mostly the cover build (about 0.08 per resume on the path, 0.18 on the
// grid). A closure or boxed state per wake would add 1.0 per resume.
func TestEnergyBFSAllocsPerResume(t *testing.T) {
	for _, fam := range []graph.Family{graph.FamilyPath, graph.FamilyGrid} {
		g := graph.Make(fam, 64, graph.UnitWeights, 1)
		var awake int64
		allocs := testing.AllocsPerRun(1, func() {
			_, met, err := RunBFS(g, map[graph.NodeID]int64{0: 0}, int64(g.N()))
			if err != nil {
				t.Fatal(err)
			}
			awake = met.TotalAwake
		})
		perResume := allocs / float64(awake)
		t.Logf("%s: %.0f allocs over %d awake resumes = %.3f per resume", fam, allocs, awake, perResume)
		if perResume > 0.3 {
			t.Errorf("%s: %.3f allocations per awake resume, want <= 0.3", fam, perResume)
		}
	}
}
