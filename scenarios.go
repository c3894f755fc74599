package dsssp

import (
	"context"
	"fmt"
	"strings"

	"dsssp/internal/harness"
)

// ScenarioResult is one scenario's machine-readable outcome; ScenarioReport
// is a whole sweep. They alias the internal harness types so library
// callers, tests, and the dsssp-bench CLI all consume the same schema.
type (
	ScenarioResult = harness.Result
	ScenarioReport = harness.Report
)

// ScenarioNames lists the default suite's scenario names (the values
// accepted by RunScenarios patterns and dsssp-bench -scenarios).
func ScenarioNames(quick bool) []string {
	return harness.Default(quick).Names()
}

// RunScenarios sweeps the default scenario suite: patterns select scenarios
// by exact name or glob, where '*' matches any run of characters including
// '/' and '?' exactly one — "congest-sssp/*" selects every CONGEST SSSP
// scenario, and nil or "all" selects everything. A non-nil filter that
// contains only empty/blank patterns is a descriptive error, not an empty
// sweep: an empty report with zero failures is indistinguishable from
// success, which is exactly how a mistyped shell variable would silently
// disable a CI gate. quick shrinks sizes to smoke-test scale, and parallel
// bounds the worker pool (0 = runtime.NumCPU()). Results are deterministic
// — the same arguments yield a byte-identical report at any parallelism —
// and each scenario is verified against its sequential reference, so a
// report with Failures == 0 (and Scenarios > 0) is both a benchmark and a
// correctness check. Cancelling the context stops the sweep at scenario
// granularity: the partial report is still returned (undispatched
// scenarios appear as explicitly skipped failures) together with a
// descriptive error that counts the completed and skipped scenarios and
// unwraps to the context's error, so a cancelled sweep never reads as an
// ordinary short one.
func RunScenarios(ctx context.Context, patterns []string, quick bool, parallel int) (ScenarioReport, error) {
	if patterns != nil {
		cleaned := patterns[:0:0]
		for _, p := range patterns {
			if p = strings.TrimSpace(p); p != "" {
				cleaned = append(cleaned, p)
			}
		}
		if len(cleaned) == 0 {
			return ScenarioReport{}, fmt.Errorf(
				"dsssp: empty scenario filter: pass nil or \"all\" to sweep everything, or name scenarios/globs (see ScenarioNames)")
		}
		patterns = cleaned
	}
	reg := harness.Default(quick)
	scns, err := reg.Select(patterns)
	if err != nil {
		return ScenarioReport{}, err
	}
	if len(scns) == 0 {
		return ScenarioReport{}, fmt.Errorf("dsssp: scenario filter %v selected nothing — an empty report would masquerade as success", patterns)
	}
	results, err := harness.Run(ctx, scns, harness.RunOptions{Parallel: parallel})
	return harness.BuildReport("default", quick, results), err
}
