package dsssp

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dsssp/internal/harness"
)

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

// TestRunScenariosLibraryEntry: the library entry point drives the harness
// end to end and verifies every scenario.
func TestRunScenariosLibraryEntry(t *testing.T) {
	rep, err := RunScenarios(context.Background(), []string{"congest-bellman-ford/*"}, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios == 0 || rep.Failures != 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if names := ScenarioNames(true); len(names) == 0 {
		t.Fatal("no scenario names")
	}
	if _, err := RunScenarios(context.Background(), []string{"typo*pattern"}, true, 1); err == nil {
		t.Fatal("bogus pattern accepted")
	}
}

// TestRunScenariosEmptyFilter: a blank filter must be a descriptive error,
// never an empty report with zero failures that masquerades as a passing
// sweep (the classic mistyped-shell-variable CI hole). nil and "all" still
// mean "everything".
func TestRunScenariosEmptyFilter(t *testing.T) {
	for _, patterns := range [][]string{{}, {""}, {"  "}, {"", " "}} {
		rep, err := RunScenarios(context.Background(), patterns, true, 1)
		if err == nil {
			t.Fatalf("patterns %q: want a descriptive error, got a report with %d scenarios", patterns, rep.Scenarios)
		}
		if !strings.Contains(err.Error(), "empty scenario filter") {
			t.Errorf("patterns %q: error not descriptive: %v", patterns, err)
		}
	}
	// nil still sweeps everything (only check selection, not a full run).
	names := ScenarioNames(true)
	if len(names) == 0 {
		t.Fatal("no scenarios")
	}
	rep, err := RunScenarios(context.Background(), []string{names[0]}, true, 1)
	if err != nil || rep.Scenarios != 1 {
		t.Fatalf("single-name filter failed: %+v, %v", rep, err)
	}
}

// TestRunScenariosCancelled: a cancelled sweep returns its partial report
// (every unrun scenario skipped) with a *harness.CancelError that unwraps
// to the context's error, never a clean short report.
func TestRunScenariosCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RunScenarios(ctx, []string{"congest-bellman-ford/*"}, true, 1)
	var ce *harness.CancelError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a *harness.CancelError wrapping context.Canceled", err)
	}
	if rep.Scenarios == 0 || ce.Skipped != rep.Scenarios || rep.Failures != rep.Scenarios {
		t.Fatalf("report = %d scenarios, %d failures; cancel error = %+v", rep.Scenarios, rep.Failures, ce)
	}
}
