package dsssp

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dsssp/internal/graph"
)

func TestSSSPQuickstart(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 5)
	g.SortAdj()
	res, err := SSSP(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 2, 3, 8}
	for v, d := range want {
		if res.Dist[v] != d {
			t.Fatalf("dist[%d]=%d, want %d", v, res.Dist[v], d)
		}
	}
	if res.SubproblemsMax == 0 {
		t.Fatal("missing subproblem stats")
	}
}

func TestCSSPBothModelsAgree(t *testing.T) {
	g := graph.RandomConnected(12, 8, graph.UniformWeights(4, 3), 3)
	sources := map[NodeID]int64{0: 0, 6: 1}
	a, err := CSSP(g, sources, &Options{Model: ModelCongest})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CSSP(g, sources, &Options{Model: ModelSleeping})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Dist {
		if a.Dist[v] != b.Dist[v] {
			t.Fatalf("node %d: %d vs %d", v, a.Dist[v], b.Dist[v])
		}
	}
	if b.Metrics.MaxAwake*2 > b.Metrics.Rounds {
		t.Fatalf("sleeping model energy %d not below half of %d rounds", b.Metrics.MaxAwake, b.Metrics.Rounds)
	}
}

func TestBFSBothModels(t *testing.T) {
	g := graph.Grid2D(5, 5, graph.UnitWeights)
	want := graph.BFSDist(g, 0)
	for _, m := range []Model{ModelCongest, ModelSleeping} {
		res, err := BFS(g, map[NodeID]bool{0: true}, 8, &Options{Model: m})
		if err != nil {
			t.Fatalf("model %d: %v", m, err)
		}
		for v := range want {
			w := want[v]
			if w > 8 {
				w = Inf
			}
			if res.Dist[v] != w {
				t.Fatalf("model %d node %d: got %d want %d", m, v, res.Dist[v], w)
			}
		}
	}
}

func TestAPSPEndToEnd(t *testing.T) {
	g := graph.RandomConnected(16, 16, graph.UniformWeights(5, 9), 9)
	res, err := APSP(g, nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < g.N(); s++ {
		want := graph.Dijkstra(g, NodeID(s))
		for v := range want {
			if res.Dist[s][v] != want[v] {
				t.Fatalf("dist[%d][%d]=%d, want %d", s, v, res.Dist[s][v], want[v])
			}
		}
	}
	c := res.Composition
	if c.MakespanRandom > c.MakespanSequential {
		t.Fatalf("random-delay makespan %d worse than sequential %d", c.MakespanRandom, c.MakespanSequential)
	}
	if c.Congestion <= 0 || c.Dilation <= 0 {
		t.Fatalf("bad composition %+v", c)
	}
}

// TestAPSPRecordPhases: the public APSP threads each instance's span
// ledger into the composition, merged over all sources, with the summed
// message counters conserving against the merged instances.
func TestAPSPRecordPhases(t *testing.T) {
	g := graph.RandomConnected(12, 12, graph.UniformWeights(4, 9), 9)
	res, err := APSP(g, &Options{Workers: 1}, 42)
	if err != nil {
		t.Fatal(err)
	}
	spans := res.Composition.Spans
	if len(spans) == 0 {
		t.Fatal("APSP produced no merged span ledger")
	}
	var msgs int64
	for _, s := range spans {
		msgs += s.Messages
	}
	var want, maxEdge int64
	for src := 0; src < g.N(); src++ {
		r, err := SSSP(g, NodeID(src), nil)
		if err != nil {
			t.Fatal(err)
		}
		want += r.Metrics.Messages
		maxEdge = max(maxEdge, r.Metrics.MaxEdgeMessages)
	}
	if msgs != want {
		t.Fatalf("merged span messages %d != summed instance messages %d", msgs, want)
	}
	if res.Composition.Messages != want {
		t.Fatalf("composition messages %d != summed instance messages %d", res.Composition.Messages, want)
	}
	if res.Composition.InstanceCongestion != maxEdge {
		t.Fatalf("composition instance congestion %d != heaviest instance's %d", res.Composition.InstanceCongestion, maxEdge)
	}
}

func TestUnknownModelRejected(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 1)
	g.SortAdj()
	if _, err := CSSP(g, map[NodeID]int64{0: 0}, &Options{Model: Model(99)}); err == nil {
		t.Fatal("want error")
	}
}

// TestInvalidModelErrorConsistent: SSSP, CSSP, and BFS must reject an
// invalid Options.Model with the same descriptive error (the zero value
// still defaults to ModelCongest).
func TestInvalidModelErrorConsistent(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.SortAdj()
	bad := &Options{Model: Model(99)}
	_, errS := SSSP(g, 0, bad)
	_, errC := CSSP(g, map[NodeID]int64{0: 0}, bad)
	_, errB := BFS(g, map[NodeID]bool{0: true}, 2, bad)
	_, errA := APSP(g, bad, 1)
	for name, err := range map[string]error{"SSSP": errS, "CSSP": errC, "BFS": errB, "APSP": errA} {
		if err == nil {
			t.Fatalf("%s accepted Model(99)", name)
		}
		if !strings.Contains(err.Error(), "invalid Options.Model 99") {
			t.Errorf("%s error not descriptive: %v", name, err)
		}
	}
	if errS.Error() != errC.Error() || errC.Error() != errB.Error() || errB.Error() != errA.Error() {
		t.Errorf("errors differ:\n%v\n%v\n%v\n%v", errS, errC, errB, errA)
	}
	// The zero value still means CONGEST.
	if _, err := SSSP(g, 0, &Options{}); err != nil {
		t.Fatalf("zero-value Options rejected: %v", err)
	}
	if _, err := SSSP(g, 0, nil); err != nil {
		t.Fatalf("nil Options rejected: %v", err)
	}
}

// TestAPSPParallelDeterministic: APSP fans its per-source instances over a
// worker pool; the result must be identical to a sequential run.
func TestAPSPParallelDeterministic(t *testing.T) {
	g := NewGraph(12)
	for i := 0; i < 11; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), int64(i%3+1))
	}
	g.AddEdge(0, 6, 2)
	g.AddEdge(3, 11, 5)
	g.SortAdj()
	seq, err := APSP(g, &Options{Workers: 1}, 42)
	if err != nil {
		t.Fatal(err)
	}
	par, err := APSP(g, &Options{Workers: 8}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel APSP differs:\nseq %+v\npar %+v", seq, par)
	}
}

// TestAPSPRejectsSleeping: APSP composes CONGEST instances (Section 1.1),
// so the sleeping model is a descriptive error, never a CONGEST run
// answered under the sleeping label — for the full and the partial
// fan-out alike.
func TestAPSPRejectsSleeping(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.SortAdj()
	sleeping := &Options{Model: ModelSleeping}
	for name, sources := range map[string][]NodeID{"all": nil, "partial": {1}} {
		res, err := APSPFrom(g, sources, sleeping, 1)
		if err == nil {
			t.Fatalf("%s: APSPFrom accepted ModelSleeping: %+v", name, res)
		}
		if !strings.HasPrefix(err.Error(), "dsssp: ") || !strings.Contains(err.Error(), "ModelCongest only (got sleeping)") {
			t.Errorf("%s: error not descriptive: %v", name, err)
		}
	}
	if _, err := APSP(g, &Options{Model: ModelCongest}, 1); err != nil {
		t.Fatalf("ModelCongest rejected: %v", err)
	}
}

// TestOutOfRangeSourcesRejected: a source that is not a node of the graph
// is an error naming it, in every entry and both models. It used to give
// an all-Inf answer, or a panic in an APSP worker that killed the process.
// A set with several such sources names the lowest.
func TestOutOfRangeSourcesRejected(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	calls := []struct {
		name string
		bad  NodeID
		run  func(*Options) error
	}{
		{"SSSP", 7, func(o *Options) error { _, err := SSSP(g, 7, o); return err }},
		{"CSSP", -2, func(o *Options) error { _, err := CSSP(g, map[NodeID]int64{1: 0, -2: 0, 9: 0}, o); return err }},
		{"SSSPTree", 9, func(o *Options) error { _, err := SSSPTree(g, 9, o); return err }},
		{"BFS", 6, func(o *Options) error { _, err := BFS(g, map[NodeID]bool{0: true, 6: true, 8: true}, 3, o); return err }},
		{"APSPFrom", 5, func(o *Options) error { _, err := APSPFrom(g, []NodeID{0, 5, 6}, o, 1); return err }},
	}
	for _, m := range []Model{ModelCongest, ModelSleeping} {
		for _, c := range calls {
			if c.name == "APSPFrom" && m == ModelSleeping {
				continue // CONGEST only
			}
			err := c.run(&Options{Model: m})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("source %d is not a node of the 4-node graph", c.bad)) {
				t.Errorf("%s (%s): got %v, want an error naming source %d", c.name, m, err, c.bad)
			}
		}
	}
}

// TestBFSInputsAgreeAcrossModels pins what BFS makes of its inputs, the
// same in both models, on the path 0-1-2-3: a node mapped to false is not
// a source, threshold 0 reaches the sources only, and a negative threshold
// is an error naming it.
func TestBFSInputsAgreeAcrossModels(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights)
	for _, m := range []Model{ModelCongest, ModelSleeping} {
		for _, c := range []struct {
			sources   map[NodeID]bool
			threshold int64
			want      []int64
		}{
			{map[NodeID]bool{0: true, 3: false}, 5, []int64{0, 1, 2, 3}},
			{map[NodeID]bool{0: true}, 0, []int64{0, Inf, Inf, Inf}},
			{map[NodeID]bool{0: true, 2: true}, 1, []int64{0, 1, 0, 1}},
		} {
			res, err := BFS(g, c.sources, c.threshold, &Options{Model: m})
			if err != nil || !slices.Equal(res.Dist, c.want) {
				t.Errorf("%s: BFS(%v, %d) = %v, %v; want %v", m, c.sources, c.threshold, res, err, c.want)
			}
		}
		if _, err := BFS(g, map[NodeID]bool{0: true}, -1, &Options{Model: m}); err == nil || !strings.Contains(err.Error(), "threshold -1") {
			t.Errorf("%s: threshold -1 gave %v, want an error naming it", m, err)
		}
	}
}

// TestBFSThresholdCappedAtHopBound: no hop distance exceeds n−1, so on the
// 4-node path every threshold above 3 answers, and costs, what threshold 3
// does, in both models. CONGEST at 10⁵ comes first because it fails fast
// without the cap (it runs threshold+1 rounds); the sleeping model
// overflowed its wake rounds at math.MaxInt64.
func TestBFSThresholdCappedAtHopBound(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights)
	src := map[NodeID]bool{0: true}
	for _, m := range []Model{ModelCongest, ModelSleeping} {
		ref, err := BFS(g, src, 3, &Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, th := range []int64{1e5, 1 << 40, math.MaxInt64} {
			res, err := BFS(g, src, th, &Options{Model: m})
			if err != nil {
				t.Fatalf("%s: threshold %d: %v", m, th, err)
			}
			if !slices.Equal(res.Dist, []int64{0, 1, 2, 3}) || !reflect.DeepEqual(res.Metrics, ref.Metrics) {
				t.Fatalf("%s: threshold %d gave %v in %d rounds, want [0 1 2 3] in %d like threshold 3",
					m, th, res.Dist, res.Metrics.Rounds, ref.Metrics.Rounds)
			}
		}
	}
}

// TestAPSPFromRejectsDuplicateSources: a source listed twice would run and
// compose its instance twice; it is an error naming the lowest such source.
func TestAPSPFromRejectsDuplicateSources(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights)
	for _, c := range []struct {
		sources []NodeID
		dup     NodeID
	}{
		{[]NodeID{1, 1}, 1},
		{[]NodeID{3, 2, 3, 0, 2}, 2},
	} {
		_, err := APSPFrom(g, c.sources, nil, 1)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("source %d more than once", c.dup)) {
			t.Errorf("APSPFrom(%v) = %v, want an error naming source %d", c.sources, err, c.dup)
		}
	}
	if _, err := APSPFrom(g, []NodeID{3, 1}, nil, 1); err != nil {
		t.Fatal(err)
	}
}

// TestMaxRoundsEveryEntry: every public entry honours Options.MaxRounds. A
// cap of 1 fails each with the engine's round-overflow error, and a cap of
// 0 leaves the engine's default and gives the exact answer in more than one
// round.
func TestMaxRoundsEveryEntry(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights)
	one := func(r *Result, err error) ([][]int64, Metrics, error) {
		if err != nil {
			return nil, Metrics{}, err
		}
		return [][]int64{r.Dist}, r.Metrics, nil
	}
	entries := []struct {
		name  string
		model Model
		run   func(*Options) ([][]int64, Metrics, error)
		want  [][]int64
	}{
		{"SSSP", ModelCongest, func(o *Options) ([][]int64, Metrics, error) { return one(SSSP(g, 1, o)) }, nil},
		{"SSSP", ModelSleeping, func(o *Options) ([][]int64, Metrics, error) { return one(SSSP(g, 1, o)) }, nil},
		{"CSSP", ModelCongest, func(o *Options) ([][]int64, Metrics, error) {
			return one(CSSP(g, map[NodeID]int64{1: 0}, o))
		}, nil},
		{"SSSPTree", ModelCongest, func(o *Options) ([][]int64, Metrics, error) {
			r, err := SSSPTree(g, 1, o)
			if err != nil {
				return nil, Metrics{}, err
			}
			return [][]int64{r.Dist}, r.Metrics, nil
		}, nil},
		{"BFS", ModelCongest, func(o *Options) ([][]int64, Metrics, error) {
			return one(BFS(g, map[NodeID]bool{1: true}, 3, o))
		}, nil},
		{"BFS", ModelSleeping, func(o *Options) ([][]int64, Metrics, error) {
			return one(BFS(g, map[NodeID]bool{1: true}, 3, o))
		}, nil},
		{"APSP", ModelCongest, func(o *Options) ([][]int64, Metrics, error) {
			r, err := APSP(g, o, 1)
			if err != nil {
				return nil, Metrics{}, err
			}
			return r.Dist, Metrics{Rounds: r.Composition.Dilation}, nil
		}, [][]int64{graph.Dijkstra(g, 0), graph.Dijkstra(g, 1), graph.Dijkstra(g, 2), graph.Dijkstra(g, 3)}},
	}
	for _, e := range entries {
		name := fmt.Sprintf("%s/%s", e.name, e.model)
		want := e.want
		if want == nil {
			want = [][]int64{graph.Dijkstra(g, 1)}
		}
		if _, _, err := e.run(&Options{Model: e.model, MaxRounds: 1}); err == nil || !strings.Contains(err.Error(), "exceeded MaxRounds=1") {
			t.Errorf("%s: MaxRounds 1 gave error %v, want the round-overflow error", name, err)
		}
		got, met, err := e.run(&Options{Model: e.model, MaxRounds: 0})
		if err != nil {
			t.Fatalf("%s: MaxRounds 0: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) || met.Rounds <= 1 {
			t.Errorf("%s: MaxRounds 0 gave %v in %d rounds, want %v in more than one", name, got, met.Rounds, want)
		}
	}
}
