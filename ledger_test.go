package dsssp

import (
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

// checkLedger asserts that m's span ledger partitions its totals: the
// rows' Rounds, Messages and AwakeRounds sum to Rounds, Messages and
// TotalAwake.
func checkLedger(t *testing.T, what string, m Metrics) {
	t.Helper()
	if m.Spans == nil {
		t.Fatalf("%s: no span ledger", what)
	}
	var rounds, msgs, awake int64
	for _, s := range m.Spans {
		rounds += s.Rounds
		msgs += s.Messages
		awake += s.AwakeRounds
	}
	if rounds != m.Rounds || msgs != m.Messages || awake != m.TotalAwake {
		t.Fatalf("%s: ledger sums rounds=%d messages=%d awake=%d, metrics have %d/%d/%d",
			what, rounds, msgs, awake, m.Rounds, m.Messages, m.TotalAwake)
	}
}

func maxOf(xs []int64) int64 {
	var top int64
	for _, x := range xs {
		top = max(top, x)
	}
	return top
}

// TestLedgerPartitionsPublicResults: with default options, every
// CSSP-pipeline result carries a span ledger that partitions its metrics,
// in both models — SSSPTree's extraction round included — while BFS, which
// runs no pipeline, carries none.
func TestLedgerPartitionsPublicResults(t *testing.T) {
	g := graph.RandomConnected(16, 12, graph.UniformWeights(16, 1), 1)
	for _, model := range []Model{ModelCongest, ModelSleeping} {
		opts := &Options{Model: model}
		res, err := SSSP(g, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkLedger(t, model.String()+" SSSP", res.Metrics)

		res, err = CSSP(g, map[NodeID]int64{0: 0, 5: 3, 11: 1}, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkLedger(t, model.String()+" CSSP", res.Metrics)

		tree, err := SSSPTree(g, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		m := tree.Metrics
		checkLedger(t, model.String()+" SSSPTree", m)
		if m.StrictRounds < m.Rounds {
			t.Errorf("%s SSSPTree: strict rounds %d below rounds %d", model, m.StrictRounds, m.Rounds)
		}
		if m.MaxAwake != maxOf(m.PerNodeAwake) || m.MaxEdgeMessages != maxOf(m.PerEdgeMessages) {
			t.Errorf("%s SSSPTree: maxima %d/%d disagree with the per-node and per-edge vectors",
				model, m.MaxAwake, m.MaxEdgeMessages)
		}
		var treeRow *simnet.SpanMetrics
		for i := range m.Spans {
			if m.Spans[i].Name == "tree" {
				treeRow = &m.Spans[i]
			}
		}
		if treeRow == nil || treeRow.Messages != int64(2*g.M()) {
			t.Errorf("%s SSSPTree: tree row %+v, want the extraction's %d messages", model, treeRow, 2*g.M())
		}

		bfs, err := BFS(g, map[NodeID]bool{0: true}, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		if bfs.Metrics.Spans != nil {
			t.Errorf("%s BFS: ledger %+v, want none", model, bfs.Metrics.Spans)
		}
	}

	apsp, err := APSP(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got, want int64
	for _, s := range apsp.Composition.Spans {
		got += s.Messages
	}
	for src := 0; src < g.N(); src++ {
		r, err := SSSP(g, NodeID(src), nil)
		if err != nil {
			t.Fatal(err)
		}
		want += r.Metrics.Messages
	}
	if got != want {
		t.Fatalf("APSP composition ledger has %d messages, instances sum to %d", got, want)
	}
}
