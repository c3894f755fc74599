package dsssp

import (
	"reflect"
	"strings"
	"testing"

	"dsssp/internal/graph"
)

// TestWeightLimit pins graph.MaxSafeWeight against the engine in both
// models: at the limit the distances match Dijkstra, one over it CSSP
// returns an error instead of a wrong answer. The zero-weight edge makes
// the engine rescale by n+1, which is the case the limit is tight for.
func TestWeightLimit(t *testing.T) {
	const n = 3
	limit := graph.MaxSafeWeight(n)
	path := func(w int64) *Graph {
		g := NewGraph(n)
		g.AddEdge(0, 1, w)
		g.AddEdge(1, 2, 0)
		g.SortAdj()
		return g
	}
	for _, model := range []Model{ModelCongest, ModelSleeping} {
		t.Run(model.String(), func(t *testing.T) {
			g := path(limit)
			res, err := SSSP(g, 0, &Options{Model: model})
			if err != nil {
				t.Fatalf("at the limit %d: %v", limit, err)
			}
			if want := graph.Dijkstra(g, 0); !reflect.DeepEqual(res.Dist, want) {
				t.Fatalf("at the limit %d: dist %v, want %v", limit, res.Dist, want)
			}
			if _, err := SSSP(path(limit+1), 0, &Options{Model: model}); err == nil || !strings.Contains(err.Error(), "weights too large") {
				t.Fatalf("one over the limit: err = %v, want a weights-too-large error", err)
			}
			// Without a zero weight the same n tolerates more, but not 2^60:
			// that used to answer +Inf everywhere (CONGEST) or fail inside
			// the decomposition (sleeping).
			g = NewGraph(n)
			g.AddEdge(0, 1, 1<<60)
			g.AddEdge(1, 2, 1<<60)
			g.SortAdj()
			if _, err := SSSP(g, 0, &Options{Model: model}); err == nil {
				t.Fatal("weights 2^60 on n=3 accepted")
			}
		})
	}
	// An ε whose denominator overflows the threshold products is refused too.
	if _, err := SSSP(path(limit), 0, &Options{EpsNum: 1, EpsDen: 1 << 40}); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("ε = 1/2^40 at the weight limit: err = %v, want an overflow error", err)
	}
	// Offsets share the threshold budget with the weights.
	if _, err := CSSP(path(1), map[NodeID]int64{0: graph.MaxThreshold}, nil); err == nil {
		t.Fatal("offset 2^61 accepted")
	}
}
