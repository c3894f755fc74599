package core

import (
	"bytes"
	"slices"
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

// TestTracedRunDeterministic: a run is a pure function of its inputs, so
// repeated traced runs must record identical send records, every directed
// edge's rounds and per-round message counts included.
func TestTracedRunDeterministic(t *testing.T) {
	g := graph.RandomConnected(48, 96, graph.UniformWeights(48, 3), 3)
	var first [][]byte
	for run := 0; run < 3; run++ {
		_, _, res, err := Run(g, map[graph.NodeID]int64{0: 0}, Options{}, simnet.Congest, true)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = res.Sends
			continue
		}
		if len(res.Sends) != 2*g.M() {
			t.Fatalf("run %d: %d send records, want %d", run, len(res.Sends), 2*g.M())
		}
		for di := range first {
			if !bytes.Equal(first[di], res.Sends[di]) {
				t.Fatalf("run %d: directed edge %d sent in rounds %v, run 0 in %v", run, di,
					slices.Collect(simnet.SendRounds(res.Sends[di])), slices.Collect(simnet.SendRounds(first[di])))
			}
		}
	}
}

// TestCongestAllocsPerResume guards the allocation-free message path: a
// CONGEST SSSP run may allocate at most half an object per awake resume
// (message bodies that do not fit an interface word still box; tags,
// mailbox queues, and forest child sets must not allocate per message).
func TestCongestAllocsPerResume(t *testing.T) {
	g := graph.RandomConnected(64, 128, graph.UniformWeights(64, 7), 7)
	var met simnet.Metrics
	allocs := testing.AllocsPerRun(1, func() {
		_, _, res, err := Run(g, map[graph.NodeID]int64{0: 0}, Options{}, simnet.Congest, false)
		if err != nil {
			t.Fatal(err)
		}
		met = res.Metrics
	})
	perResume := allocs / float64(met.TotalAwake)
	t.Logf("%.0f allocs over %d awake resumes = %.3f per resume", allocs, met.TotalAwake, perResume)
	if perResume > 0.5 {
		t.Errorf("%.3f allocations per awake resume, want <= 0.5", perResume)
	}
}

// TestSleepingAllocsPerResume guards the allocation-free sleeping-model hot
// path: a sleeping SSSP on the sim-sleeping graph may allocate at most 0.3
// objects per awake resume. Cluster duty rounds are computed, not listed,
// cluster aggregates travel as one-byte flag sets, and the cover builder
// reuses its Dijkstra scratch: the run measures 0.137 allocations per
// resume (82 089 over 600 156), against 2.18 when energybfs built a duty
// slice per membership and wake.
func TestSleepingAllocsPerResume(t *testing.T) {
	g := sleepingGraph()
	var met simnet.Metrics
	allocs := testing.AllocsPerRun(1, func() {
		_, _, res, err := Run(g, map[graph.NodeID]int64{0: 0}, Options{}, simnet.Sleeping, false)
		if err != nil {
			t.Fatal(err)
		}
		met = res.Metrics
	})
	perResume := allocs / float64(met.TotalAwake)
	t.Logf("%.0f allocs over %d awake resumes = %.3f per resume", allocs, met.TotalAwake, perResume)
	if perResume > 0.3 {
		t.Errorf("%.3f allocations per awake resume, want <= 0.3", perResume)
	}
}

// BenchmarkSleepingSSSP is one sleeping-model SSSP on the sim-sleeping
// graph (random n=64, weights 1..8), source 0.
func BenchmarkSleepingSSSP(b *testing.B) {
	g := sleepingGraph()
	b.ReportAllocs()
	var met simnet.Metrics
	for i := 0; i < b.N; i++ {
		_, _, res, err := Run(g, map[graph.NodeID]int64{0: 0}, Options{}, simnet.Sleeping, false)
		if err != nil {
			b.Fatal(err)
		}
		met = res.Metrics
	}
	b.ReportMetric(float64(met.TotalAwake), "resumes")
}
