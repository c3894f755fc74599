package core

import (
	"strings"
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/phase"
	"dsssp/internal/simnet"
)

// checkLedgerConservation asserts the span ledger partitions the run's
// metrics exactly: per-phase rounds/messages/awake sum to the totals and
// the bit maxima agree — the invariant the BENCH `phases` breakdown rests
// on.
func checkLedgerConservation(t *testing.T, met simnet.Metrics) {
	t.Helper()
	if len(met.Spans) == 0 {
		t.Fatal("pipeline recorded no spans")
	}
	var rounds, msgs, awake, bits int64
	for _, s := range met.Spans {
		if _, known := phase.ByKey(s.Name); !known {
			t.Errorf("span %q is not a registered pipeline phase", s.Name)
		}
		rounds += s.Rounds
		msgs += s.Messages
		awake += s.AwakeRounds
		if s.MaxMessageBits > bits {
			bits = s.MaxMessageBits
		}
	}
	if rounds != met.Rounds {
		t.Errorf("phase rounds sum %d != Rounds %d", rounds, met.Rounds)
	}
	if msgs != met.Messages {
		t.Errorf("phase messages sum %d != Messages %d", msgs, met.Messages)
	}
	if awake != met.TotalAwake {
		t.Errorf("phase awake sum %d != TotalAwake %d", awake, met.TotalAwake)
	}
	if bits != met.MaxMessageBits {
		t.Errorf("phase bits max %d != MaxMessageBits %d", bits, met.MaxMessageBits)
	}
}

// TestPipelinePhasesRecorded: both recursions report every counter through
// the phase ledger, with the model-sensitive cut stage named per model.
func TestPipelinePhasesRecorded(t *testing.T) {
	g := graph.RandomConnected(24, 24, graph.UniformWeights(8, 3), 3)
	sources := map[graph.NodeID]int64{0: 0, 12: 2}

	_, _, resC, err := Run(g, sources, Options{}, simnet.Congest, false)
	if err != nil {
		t.Fatal(err)
	}
	metC := resC.Metrics
	checkLedgerConservation(t, metC)
	keysC := spanKeys(metC.Spans)
	for _, want := range []string{phase.Participate.Key, phase.Decompose.Key, phase.Cutter.Key, phase.Barrier.Key, phase.Merge.Key, phase.Base.Key} {
		if !keysC[want] {
			t.Errorf("congest run missing phase %q (got %v)", want, keysC)
		}
	}
	if keysC[phase.BFSLayers.Key] {
		t.Error("congest run reported the energy cut stage")
	}

	_, _, resE, err := Run(g, sources, Options{}, simnet.Sleeping, false)
	if err != nil {
		t.Fatal(err)
	}
	metE := resE.Metrics
	checkLedgerConservation(t, metE)
	keysE := spanKeys(metE.Spans)
	if !keysE[phase.BFSLayers.Key] {
		t.Errorf("energy run missing phase %q (got %v)", phase.BFSLayers.Key, keysE)
	}
	if keysE[phase.Cutter.Key] {
		t.Error("energy run reported the congest cut stage")
	}
}

func spanKeys(spans []simnet.SpanMetrics) map[string]bool {
	keys := make(map[string]bool)
	for _, s := range spans {
		keys[s.Name] = true
	}
	return keys
}

// TestPipelineStrictBitsInLedger: with strict CONGEST sizing on, the phase
// ledger carries per-phase bit maxima whose max is the run's.
func TestPipelineStrictBitsInLedger(t *testing.T) {
	g := graph.RandomConnected(16, 16, graph.UniformWeights(8, 7), 7)
	_, _, res, err := Run(g, map[graph.NodeID]int64{0: 0}, Options{StrictCongest: true}, simnet.Congest, false)
	if err != nil {
		t.Fatal(err)
	}
	met := res.Metrics
	checkLedgerConservation(t, met)
	if met.MaxMessageBits == 0 {
		t.Fatal("strict run measured no message bits")
	}
}

// TestPhaseRegistry: the phase descriptors renderers rely on.
func TestPhaseRegistry(t *testing.T) {
	if phase.Run.Key != simnet.RootSpanName {
		t.Fatalf("phase.Run.Key = %q must match simnet.RootSpanName %q", phase.Run.Key, simnet.RootSpanName)
	}
	seen := make(map[string]bool)
	for i, p := range phase.Pipeline() {
		if p.Key == "" || p.Title == "" || p.Ref == "" || p.Envelope == "" {
			t.Errorf("phase %d incompletely described: %+v", i, p)
		}
		if seen[p.Key] {
			t.Errorf("duplicate phase key %q", p.Key)
		}
		seen[p.Key] = true
		if got, ok := phase.ByKey(p.Key); !ok || got != p {
			t.Errorf("phase.ByKey(%q) = %+v, %v", p.Key, got, ok)
		}
		if phase.Rank(p.Key) != i {
			t.Errorf("phase.Rank(%q) = %d, want %d", p.Key, phase.Rank(p.Key), i)
		}
	}
	if _, ok := phase.ByKey("no-such-phase"); ok {
		t.Error("phase.ByKey accepted an unknown key")
	}
	if phase.Rank("no-such-phase") != len(phase.Pipeline()) {
		t.Error("unknown keys must rank last")
	}
}

// TestNegativeOffsetErrorDeterministic: source validation iterates the
// sorted source set, so with several offending sources the error always
// names the smallest node ID — map-order nondeterminism in error text (and
// in anything seeded per source) is exactly what sortedSources removes.
func TestNegativeOffsetErrorDeterministic(t *testing.T) {
	g := graph.Path(12, graph.UnitWeights)
	sources := map[graph.NodeID]int64{9: -1, 2: -7, 5: -3}
	for i := 0; i < 20; i++ {
		for name, run := range map[string]func() error{
			"congest": func() error { _, _, _, err := Run(g, sources, Options{}, simnet.Congest, false); return err },
			"energy":  func() error { _, _, _, err := Run(g, sources, Options{}, simnet.Sleeping, false); return err },
		} {
			err := run()
			if err == nil || !strings.Contains(err.Error(), "offset -7 at source 2") {
				t.Fatalf("%s: err = %v, want the smallest offending source (2)", name, err)
			}
		}
	}
}

// TestPipelineVariantsAgree: the two models must keep reporting through
// identical pipelines — same phase keys at the cut stage aside, and
// byte-identical distances.
func TestPipelineVariantsAgree(t *testing.T) {
	g := graph.Clusters(3, 5, 4, graph.UniformWeights(5, 9), 9)
	sources := map[graph.NodeID]int64{1: 0, 8: 3}
	dc, _, _, err := Run(g, sources, Options{}, simnet.Congest, false)
	if err != nil {
		t.Fatal(err)
	}
	de, _, _, err := Run(g, sources, Options{}, simnet.Sleeping, false)
	if err != nil {
		t.Fatal(err)
	}
	for v := range dc {
		if dc[v] != de[v] {
			t.Fatalf("node %d: congest %d vs energy %d", v, dc[v], de[v])
		}
	}
}
