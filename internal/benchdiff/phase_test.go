package benchdiff

import (
	"strings"
	"testing"

	"dsssp/internal/harness"
)

func resWithPhases(name string, roundsEnv int64, phases ...harness.PhaseStat) harness.Result {
	r := res(name, 0, roundsEnv)
	for _, p := range phases {
		r.Rounds += p.Rounds
	}
	r.Phases = phases
	return r
}

// TestPhaseGateLocalizedRegression: a slowdown confined to one phase gates
// under the +25% phase gate even when the scenario-level rounds ratio
// stays inside the +10% envelope gate (the other phases shrink to
// compensate).
func TestPhaseGateLocalizedRegression(t *testing.T) {
	old := report(resWithPhases("a", 100000,
		harness.PhaseStat{Phase: "decompose", Rounds: 9000},
		harness.PhaseStat{Phase: "cutter", Rounds: 1000},
	))
	// Total 10000 → 10000: the scenario ratio is flat, but the cutter
	// doubled at decompose's expense.
	shifted := report(resWithPhases("a", 100000,
		harness.PhaseStat{Phase: "decompose", Rounds: 8000},
		harness.PhaseStat{Phase: "cutter", Rounds: 2000},
	))
	d, err := Compare(old, shifted)
	if err != nil {
		t.Fatal(err)
	}
	if d.OK || d.Regressed != 1 {
		t.Fatalf("localized phase regression passed the gate: %+v", d)
	}
	reasons := strings.Join(d.Deltas[0].Reasons, "\n")
	if !strings.Contains(reasons, `phase "cutter"`) {
		t.Fatalf("reason does not name the phase: %q", reasons)
	}
}

// TestPhaseGateMinDelta: tiny phases move a few rounds without gating — the
// 16-round floor absorbs them (they still mark the scenario changed).
func TestPhaseGateMinDelta(t *testing.T) {
	old := report(resWithPhases("a", 100000,
		harness.PhaseStat{Phase: "decompose", Rounds: 10000},
		harness.PhaseStat{Phase: "merge", Rounds: 4},
	))
	small := report(resWithPhases("a", 100000,
		harness.PhaseStat{Phase: "decompose", Rounds: 10000},
		harness.PhaseStat{Phase: "merge", Rounds: 12},
	))
	d, err := Compare(old, small)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK {
		t.Fatalf("+8 rounds on a 4-round phase gated despite the 16-round floor: %+v", d)
	}
	if d.Changed != 1 {
		t.Fatalf("phase movement not detected as a change: %+v", d)
	}
}

// TestPhaseGateWithinThreshold: a phase whose share grows by less than 25%
// passes even though far more than 16 rounds moved (the scenario total
// moves 2%, inside its own gate).
func TestPhaseGateWithinThreshold(t *testing.T) {
	old := report(resWithPhases("a", 100000,
		harness.PhaseStat{Phase: "decompose", Rounds: 9000},
		harness.PhaseStat{Phase: "cutter", Rounds: 1000},
	))
	worse := report(resWithPhases("a", 100000,
		harness.PhaseStat{Phase: "decompose", Rounds: 9000},
		harness.PhaseStat{Phase: "cutter", Rounds: 1200},
	))
	d, err := Compare(old, worse)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK || d.Changed != 1 {
		t.Fatalf("+20%% on one phase gated under the +25%% phase gate: %+v", d)
	}
}

// TestPhaseGateNewPhase: a phase appearing from nowhere with substantial
// rounds gates (its old ratio is 0, so any growth beyond the floor trips),
// even while the scenario total stays flat.
func TestPhaseGateNewPhase(t *testing.T) {
	old := report(resWithPhases("a", 100000, harness.PhaseStat{Phase: "decompose", Rounds: 10000}))
	grown := report(resWithPhases("a", 100000,
		harness.PhaseStat{Phase: "decompose", Rounds: 7000},
		harness.PhaseStat{Phase: "bfs-layers", Rounds: 3000},
	))
	d, err := Compare(old, grown)
	if err != nil {
		t.Fatal(err)
	}
	if d.OK {
		t.Fatalf("new 3000-round phase passed the gate: %+v", d)
	}
	if got := d.Deltas[0].Reasons; len(got) != 1 || !strings.Contains(got[0], `phase "bfs-layers"`) {
		t.Fatalf("want only the bfs-layers phase reason, got %q", got)
	}
}

// TestPhaseDeltasInMetrics: phase rows surface as phase:<key> metric deltas
// so the markdown "other deltas" column carries them. The cutter moves 10%
// and the scenario total 1%, so neither gate trips.
func TestPhaseDeltasInMetrics(t *testing.T) {
	old := report(resWithPhases("a", 100000,
		harness.PhaseStat{Phase: "decompose", Rounds: 9000},
		harness.PhaseStat{Phase: "cutter", Rounds: 1000},
	))
	moved := report(resWithPhases("a", 100000,
		harness.PhaseStat{Phase: "decompose", Rounds: 9000},
		harness.PhaseStat{Phase: "cutter", Rounds: 1100},
	))
	d, err := Compare(old, moved)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK || d.Changed != 1 {
		t.Fatalf("a 10%% phase move gated: %+v", d)
	}
	found := false
	for _, m := range d.Deltas[0].Metrics {
		if m.Metric == "phase:cutter" {
			found = true
			if m.Old != 1000 || m.New != 1100 {
				t.Fatalf("phase delta = %+v, want 1000 → 1100", m)
			}
			if m.OldRatio != 0.01 || m.NewRatio != 0.011 {
				t.Fatalf("phase ratios = %+v, want 0.01 → 0.011", m)
			}
		}
	}
	if !found {
		t.Fatalf("no phase:cutter metric delta: %+v", d.Deltas[0].Metrics)
	}
}

// TestPhaseSelfDiffUnchanged: phases must not destabilize the
// baseline-currency invariant — a self-diff with phases stays unchanged.
func TestPhaseSelfDiffUnchanged(t *testing.T) {
	rep := report(resWithPhases("a", 100000,
		harness.PhaseStat{Phase: "decompose", Rounds: 9000, Messages: 50},
		harness.PhaseStat{Phase: "cutter", Rounds: 1000, Messages: 20, RoundsByDepth: "600/400"},
	))
	d, err := Compare(rep, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK || d.Unchanged != 1 {
		t.Fatalf("self-diff with phases not clean: %+v", d)
	}
}
