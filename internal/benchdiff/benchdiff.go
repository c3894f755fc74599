// Package benchdiff compares two dsssp-bench JSON reports (the
// BENCH_*.json artifacts): scenarios are aligned by their stable name,
// every measured metric and measured/envelope ratio is diffed, and fixed
// thresholds turn ratio drift into a hard regression verdict — the
// machinery behind the CI gate (cmd/dsssp-diff).
//
// Because harness reports are deterministic — same scenario list ⇒ byte-
// identical results on any machine at any parallelism — every non-zero
// delta is a real behavior change, not noise; the thresholds only decide
// which changes are large enough to block a merge. Wall-time and
// allocation figures are the benchmark's job (bench/), not this package's;
// the `perf` blocks older reports carry are ignored on decode.
package benchdiff

import (
	"fmt"

	"dsssp/internal/harness"
)

// The gate. A scenario regresses when any measured/envelope ratio (rounds,
// congestion, awake, bits — wherever both reports claim the same envelope)
// grows by more than envelopeWorsen, when one pipeline phase's share of the
// rounds envelope grows by more than phaseWorsen with at least
// phaseMinDelta rounds moved (tiny phases would otherwise gate on shifts
// the scenario ratio absorbs), when it newly fails verification, or when
// it is redefined under the same name. Removed scenarios are reported but
// never gate.
const (
	envelopeWorsen = 0.10
	phaseWorsen    = 0.25
	phaseMinDelta  = 16
)

// Status classifies one aligned scenario.
type Status string

// Statuses.
const (
	// StatusUnchanged: every compared metric is identical.
	StatusUnchanged Status = "unchanged"
	// StatusChanged: metrics moved but within thresholds.
	StatusChanged Status = "changed"
	// StatusRegressed: at least one gated check failed.
	StatusRegressed Status = "regressed"
	// StatusAdded / StatusRemoved: present on only one side.
	StatusAdded   Status = "added"
	StatusRemoved Status = "removed"
)

// MetricDelta is one metric of one scenario, old vs new. Ratios are
// measured/envelope and are only compared when both sides claim an
// envelope; Ratio values are negative when no envelope applies.
type MetricDelta struct {
	Metric   string
	Old      int64
	New      int64
	OldRatio float64
	NewRatio float64
	// Regressed marks a ratio worsening beyond the gate.
	Regressed bool
}

// Delta is one scenario's comparison.
type Delta struct {
	Scenario string
	Status   Status
	// Metrics holds the per-metric movements (empty for added/removed).
	Metrics []MetricDelta
	// Reasons explains a regressed status, one line per gated check.
	Reasons []string
}

// SuiteInfo summarizes one side of the comparison.
type SuiteInfo struct {
	Suite     string
	Quick     bool
	Scenarios int
	Failures  int
}

// Diff is the full comparison of two reports.
type Diff struct {
	Old    SuiteInfo
	New    SuiteInfo
	Deltas []Delta

	Unchanged   int
	Changed     int
	Regressed   int
	Added       int
	Removed     int
	NewFailures int

	// OK is the gate verdict: no scenario regressed.
	OK bool
}

// Compare aligns two reports by scenario name and applies the gate.
// The reports must come from the same suite flavor (suite name and quick
// flag): diffing a quick sweep against a full one would compare different
// graphs and always "regress".
func Compare(old, new harness.Report) (Diff, error) {
	if old.Suite != new.Suite || old.Quick != new.Quick {
		return Diff{}, fmt.Errorf(
			"benchdiff: incomparable reports: old is suite %q (quick=%v), new is suite %q (quick=%v)",
			old.Suite, old.Quick, new.Suite, new.Quick)
	}
	d := Diff{Old: suiteInfo(old), New: suiteInfo(new), OK: true}
	oldBy := byName(old)
	newBy := byName(new)

	// Old-report order first (aligned + removed), then additions in
	// new-report order — stable and diff-friendly output.
	for _, or := range old.Results {
		nr, ok := newBy[or.Scenario]
		if !ok {
			d.add(Delta{Scenario: or.Scenario, Status: StatusRemoved})
			continue
		}
		if or.OK && !nr.OK {
			d.NewFailures++
		}
		d.add(compareOne(or, nr))
	}
	for _, nr := range new.Results {
		if _, ok := oldBy[nr.Scenario]; !ok {
			delta := Delta{Scenario: nr.Scenario, Status: StatusAdded}
			if !nr.OK {
				d.NewFailures++ // failing and previously absent = newly failing
				delta.Status = StatusRegressed
				delta.Reasons = append(delta.Reasons, fmt.Sprintf("added scenario fails verification: %s", nr.Err))
			}
			d.add(delta)
		}
	}
	return d, nil
}

func (d *Diff) add(delta Delta) {
	d.Deltas = append(d.Deltas, delta)
	switch delta.Status {
	case StatusUnchanged:
		d.Unchanged++
	case StatusChanged:
		d.Changed++
	case StatusRegressed:
		d.Regressed++
		d.OK = false
	case StatusAdded:
		d.Added++
	case StatusRemoved:
		d.Removed++
	}
}

func suiteInfo(r harness.Report) SuiteInfo {
	return SuiteInfo{Suite: r.Suite, Quick: r.Quick, Scenarios: r.Scenarios, Failures: r.Failures}
}

func byName(r harness.Report) map[string]harness.Result {
	m := make(map[string]harness.Result, len(r.Results))
	for _, res := range r.Results {
		m[res.Scenario] = res
	}
	return m
}

// compareOne diffs one aligned scenario pair.
func compareOne(or, nr harness.Result) Delta {
	delta := Delta{Scenario: or.Scenario}

	// Same name, different experiment: the ε / strict dimensions are part
	// of a scenario's identity (Result echoes them for exactly this
	// check), so a silent redefinition always gates — comparing metrics
	// across different workloads would be meaningless either way.
	if or.EpsNum != nr.EpsNum || or.EpsDen != nr.EpsDen || or.Strict != nr.Strict ||
		or.Family != nr.Family || or.Model != nr.Model || or.Alg != nr.Alg {
		delta.Status = StatusRegressed
		delta.Reasons = append(delta.Reasons, fmt.Sprintf(
			"scenario redefined under the same name: %s/%s/%s eps %d/%d strict %v → %s/%s/%s eps %d/%d strict %v — rename it or regenerate the baseline",
			or.Model, or.Alg, or.Family, or.EpsNum, or.EpsDen, or.Strict,
			nr.Model, nr.Alg, nr.Family, nr.EpsNum, nr.EpsDen, nr.Strict))
		return delta
	}

	type metricPair struct {
		name     string
		old, new int64
		oldEnv   int64
		newEnv   int64
	}
	metrics := []metricPair{
		// The enveloped (gateable) metrics, in table-column order.
		{"rounds", or.Rounds, nr.Rounds, or.Envelope.Rounds, nr.Envelope.Rounds},
		{"congestion", or.MaxEdgeMessages, nr.MaxEdgeMessages, or.Envelope.Congestion, nr.Envelope.Congestion},
		{"awake", or.MaxAwake, nr.MaxAwake, or.Envelope.MaxAwake, nr.Envelope.MaxAwake},
		{"bits", or.MaxMessageBits, nr.MaxMessageBits, or.Envelope.MessageBits, nr.Envelope.MessageBits},
		{"messages", or.Messages, nr.Messages, 0, 0},
		// Un-enveloped metrics still participate in change detection, so a
		// drifted baseline is flagged (and TestBaselineCurrent forces a
		// regeneration) even when no ratio gates: the megaround account,
		// energy totals, the +Inf population, and the whole Section 1.1
		// APSP composition (its staggered makespan is a headline claim).
		{"strict_rounds", or.StrictRounds, nr.StrictRounds, 0, 0},
		{"total_awake", or.TotalAwake, nr.TotalAwake, 0, 0},
		{"unreachable", int64(or.Unreachable), int64(nr.Unreachable), 0, 0},
		{"dilation", or.Dilation, nr.Dilation, 0, 0},
		{"apsp_congestion", or.Congestion, nr.Congestion, 0, 0},
		{"makespan_aligned", or.MakespanAligned, nr.MakespanAligned, 0, 0},
		{"makespan", or.Makespan, nr.Makespan, 0, 0},
		{"makespan_sequential", or.MakespanSequential, nr.MakespanSequential, 0, 0},
	}
	anyChange := false
	for _, m := range metrics {
		if m.old == 0 && m.new == 0 {
			continue
		}
		md := MetricDelta{Metric: m.name, Old: m.old, New: m.new, OldRatio: -1, NewRatio: -1}
		if m.oldEnv > 0 && m.newEnv > 0 {
			md.OldRatio = float64(m.old) / float64(m.oldEnv)
			md.NewRatio = float64(m.new) / float64(m.newEnv)
			if md.NewRatio > md.OldRatio*(1+envelopeWorsen) {
				md.Regressed = true
				var rel float64
				if md.OldRatio > 0 {
					rel = (md.NewRatio - md.OldRatio) / md.OldRatio
				}
				delta.Reasons = append(delta.Reasons, fmt.Sprintf(
					"%s envelope ratio worsened %.3f → %.3f (%+.1f%%, threshold %+.0f%%)",
					m.name, md.OldRatio, md.NewRatio, 100*rel, 100*envelopeWorsen))
			}
		}
		if m.old != m.new {
			anyChange = true
		}
		delta.Metrics = append(delta.Metrics, md)
	}
	comparePhases(&delta, or, nr, &anyChange)

	if or.OK && !nr.OK {
		delta.Reasons = append(delta.Reasons, fmt.Sprintf("verification newly fails: %s", nr.Err))
	}
	switch {
	case len(delta.Reasons) > 0:
		delta.Status = StatusRegressed
	case anyChange || or.DistHash != nr.DistHash:
		delta.Status = StatusChanged
	default:
		delta.Status = StatusUnchanged
	}
	return delta
}

// comparePhases diffs the per-phase round breakdowns of one aligned
// scenario pair. Each phase becomes a "phase:<key>" MetricDelta whose ratio
// is the phase's rounds against the scenario's rounds envelope — the
// per-phase ratios sum to the scenario's r(rounds), so a slowdown hiding
// inside one stage (a cutter that doubled while the barrier shrank) gates
// individually under phaseWorsen even when the total stays flat.
func comparePhases(delta *Delta, or, nr harness.Result, anyChange *bool) {
	if len(or.Phases) == 0 && len(nr.Phases) == 0 {
		return
	}
	newBy := make(map[string]harness.PhaseStat, len(nr.Phases))
	for _, p := range nr.Phases {
		newBy[p.Phase] = p
	}
	oldSeen := make(map[string]bool, len(or.Phases))
	// Old-report phase order first, then phases new to this report — the
	// same stable alignment Compare uses for scenarios.
	for _, op := range or.Phases {
		oldSeen[op.Phase] = true
		comparePhase(delta, op, newBy[op.Phase], or, nr, anyChange)
	}
	for _, np := range nr.Phases {
		if !oldSeen[np.Phase] {
			comparePhase(delta, harness.PhaseStat{Phase: np.Phase}, np, or, nr, anyChange)
		}
	}
}

func comparePhase(delta *Delta, op, np harness.PhaseStat, or, nr harness.Result, anyChange *bool) {
	if op.Rounds == 0 && np.Rounds == 0 {
		return
	}
	md := MetricDelta{Metric: "phase:" + op.Phase, Old: op.Rounds, New: np.Rounds, OldRatio: -1, NewRatio: -1}
	if or.Envelope.Rounds > 0 && nr.Envelope.Rounds > 0 {
		md.OldRatio = float64(op.Rounds) / float64(or.Envelope.Rounds)
		md.NewRatio = float64(np.Rounds) / float64(nr.Envelope.Rounds)
		if md.NewRatio > md.OldRatio*(1+phaseWorsen) && np.Rounds-op.Rounds >= phaseMinDelta {
			md.Regressed = true
			delta.Reasons = append(delta.Reasons, fmt.Sprintf(
				"phase %q round share worsened %.4f → %.4f of the rounds envelope (%d → %d rounds, threshold %+.0f%% and ≥%d rounds)",
				op.Phase, md.OldRatio, md.NewRatio, op.Rounds, np.Rounds, 100*phaseWorsen, phaseMinDelta))
		}
	}
	if op.Rounds != np.Rounds {
		*anyChange = true
	}
	delta.Metrics = append(delta.Metrics, md)
}
