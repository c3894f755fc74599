package benchdiff

import (
	"context"
	"os"
	"testing"

	"dsssp/internal/harness"
)

const baselinePath = "testdata/BENCH_quick_baseline.json"

func readBaseline(t *testing.T) harness.Report {
	t.Helper()
	f, err := os.Open(baselinePath)
	if err != nil {
		t.Fatalf("checked-in baseline missing: %v (regenerate with `go run ./cmd/dsssp-bench -quick -q -json %s`)", err, baselinePath)
	}
	defer f.Close()
	rep, err := harness.ReadJSON(f)
	if err != nil {
		t.Fatalf("baseline unreadable (schema drift? regenerate it): %v", err)
	}
	return rep
}

// TestBaselineCurrent is the in-repo form of the CI gate: a fresh quick
// sweep diffed against the checked-in baseline must show zero regressions
// AND zero changes — the sweep is deterministic, so any drift means either
// the algorithms or the scenario suite changed, and the baseline has to be
// regenerated deliberately in the same commit.
func TestBaselineCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("quick sweep in -short mode")
	}
	baseline := readBaseline(t)
	scns, err := harness.Default(true).Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	results, err := harness.Run(context.Background(), scns, harness.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := harness.BuildReport("default", true, results)
	d, err := Compare(baseline, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK {
		for _, delta := range d.Deltas {
			for _, reason := range delta.Reasons {
				t.Errorf("%s: %s", delta.Scenario, reason)
			}
		}
		t.Fatal("fresh sweep regresses against the checked-in baseline")
	}
	if d.Changed+d.Added+d.Removed > 0 {
		t.Fatalf("sweep drifted from the baseline (%d changed, %d added, %d removed): regenerate %s in this commit",
			d.Changed, d.Added, d.Removed, baselinePath)
	}
}
