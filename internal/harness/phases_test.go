package harness

import (
	"context"
	"reflect"
	"testing"

	"dsssp/internal/simnet"
)

// TestPhaseConservationQuickSweep runs the full quick suite and asserts the
// acceptance invariant of the phase breakdown: per-phase counters sum
// exactly to the scenario-level metrics. For the pipeline algorithms
// (sssp/cssp) every metric conserves; for APSP the phases merge over all
// composed instances, so the summed metrics (messages) and the bit maximum
// tie back to the scenario row while rounds/awake are instance sums.
func TestPhaseConservationQuickSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("quick sweep in -short mode")
	}
	scns, err := Default(true).Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Run(context.Background(), scns, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	withPhases := 0
	for _, r := range results {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Scenario, r.Err)
			continue
		}
		isPipeline := r.Alg == string(AlgSSSP) || r.Alg == string(AlgCSSP) || r.Alg == string(AlgAPSP)
		if !isPipeline {
			if len(r.Phases) != 0 {
				t.Errorf("%s: non-pipeline algorithm reports phases", r.Scenario)
			}
			continue
		}
		if len(r.Phases) == 0 {
			t.Errorf("%s: pipeline scenario has no phase breakdown", r.Scenario)
			continue
		}
		withPhases++
		var rounds, msgs, awake, bits int64
		for _, ph := range r.Phases {
			rounds += ph.Rounds
			msgs += ph.Messages
			awake += ph.AwakeRounds
			if ph.MaxMessageBits > bits {
				bits = ph.MaxMessageBits
			}
		}
		if msgs != r.Messages {
			t.Errorf("%s: phase messages sum %d != %d", r.Scenario, msgs, r.Messages)
		}
		if bits != r.MaxMessageBits {
			t.Errorf("%s: phase bits max %d != %d", r.Scenario, bits, r.MaxMessageBits)
		}
		if r.Alg != string(AlgAPSP) {
			if rounds != r.Rounds {
				t.Errorf("%s: phase rounds sum %d != %d", r.Scenario, rounds, r.Rounds)
			}
			if awake != r.TotalAwake {
				t.Errorf("%s: phase awake sum %d != %d", r.Scenario, awake, r.TotalAwake)
			}
		} else if rounds < r.Rounds {
			// Merged over n instances, the round total must cover at least
			// the heaviest instance the scenario row reports.
			t.Errorf("%s: merged phase rounds %d below heaviest instance %d", r.Scenario, rounds, r.Rounds)
		}
	}
	if withPhases == 0 {
		t.Fatal("no scenario produced a phase breakdown")
	}
}

// TestPhasesFromSpans pins the aggregation: depths merge into one row per
// phase (pipeline-ordered), RoundsByDepth keeps the per-depth split, refs
// come from the core registry, and the root span sorts first.
func TestPhasesFromSpans(t *testing.T) {
	spans := []simnet.SpanMetrics{
		{Name: "run", Depth: 0, Rounds: 2, AwakeRounds: 3},
		{Name: "cutter", Depth: 0, Rounds: 40, Messages: 9, AwakeRounds: 12, MaxMessageBits: 33},
		{Name: "participate", Depth: 0, Rounds: 1, Messages: 4, AwakeRounds: 3},
		{Name: "cutter", Depth: 1, Rounds: 20, Messages: 5, AwakeRounds: 6, MaxMessageBits: 35},
		{Name: "participate", Depth: 1, Rounds: 1, Messages: 2, AwakeRounds: 2},
	}
	got := PhasesFromSpans(spans)
	wantOrder := []string{"run", "participate", "cutter"}
	if len(got) != len(wantOrder) {
		t.Fatalf("got %d phases, want %d: %+v", len(got), len(wantOrder), got)
	}
	for i, name := range wantOrder {
		if got[i].Phase != name {
			t.Fatalf("phase %d = %q, want %q (pipeline order)", i, got[i].Phase, name)
		}
	}
	cutter := got[2]
	want := PhaseStat{
		Phase: "cutter", Ref: "Lemma 2.1", Rounds: 60, Messages: 14,
		AwakeRounds: 18, MaxMessageBits: 35, RoundsByDepth: "40/20",
	}
	if !reflect.DeepEqual(cutter, want) {
		t.Fatalf("cutter = %+v, want %+v", cutter, want)
	}
	if got[0].RoundsByDepth != "" {
		t.Errorf("run phase at a single depth must omit the depth split, got %q", got[0].RoundsByDepth)
	}
	if PhasesFromSpans(nil) != nil {
		t.Error("empty ledger must aggregate to nil")
	}
}
