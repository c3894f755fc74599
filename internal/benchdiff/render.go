package benchdiff

import (
	"fmt"
	"io"
	"strings"
)

// WriteMarkdown renders the diff as a delta table of the scenarios that
// moved; unchanged scenarios appear only in the summary count.
func WriteMarkdown(w io.Writer, d Diff) error {
	var b strings.Builder
	b.WriteString("# Bench diff\n\n")
	fmt.Fprintf(&b, "Old: suite **%s**%s · %d scenarios · %d failures\n",
		d.Old.Suite, quickMark(d.Old.Quick), d.Old.Scenarios, d.Old.Failures)
	fmt.Fprintf(&b, "New: suite **%s**%s · %d scenarios · %d failures\n\n",
		d.New.Suite, quickMark(d.New.Quick), d.New.Scenarios, d.New.Failures)
	fmt.Fprintf(&b, "%d unchanged · %d changed · %d regressed · %d added · %d removed · %d new failures\n\n",
		d.Unchanged, d.Changed, d.Regressed, d.Added, d.Removed, d.NewFailures)
	fmt.Fprintf(&b, "Gate: envelope ratios may worsen at most %+.0f%%; per-phase round shares at most %+.0f%% (≥%d rounds moved); new verification failures block.\n",
		100*envelopeWorsen, 100*phaseWorsen, phaseMinDelta)

	if d.Unchanged < len(d.Deltas) {
		b.WriteString("\n| scenario | status | rounds | congestion | awake | bits | r(rounds) | r(congestion) | r(awake) | r(bits) | other deltas |\n")
		b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|\n")
		for _, delta := range d.Deltas {
			if delta.Status == StatusUnchanged {
				continue
			}
			cell := func(name string) string { return metricCell(delta, name) }
			rcell := func(name string) string { return ratioCell(delta, name) }
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s | %s | %s | %s | %s |\n",
				delta.Scenario, statusMark(delta),
				cell("rounds"), cell("congestion"), cell("awake"), cell("bits"),
				rcell("rounds"), rcell("congestion"), rcell("awake"), rcell("bits"),
				otherDeltas(delta))
		}
	}
	var reasons []string
	for _, delta := range d.Deltas {
		for _, r := range delta.Reasons {
			reasons = append(reasons, fmt.Sprintf("- **%s**: %s", delta.Scenario, r))
		}
	}
	if len(reasons) > 0 {
		b.WriteString("\n## Regressions\n\n")
		b.WriteString(strings.Join(reasons, "\n"))
		b.WriteString("\n")
	}
	verdict := "**PASS**"
	if !d.OK {
		verdict = "**FAIL**"
	}
	fmt.Fprintf(&b, "\nVerdict: %s\n", verdict)
	_, err := io.WriteString(w, b.String())
	return err
}

func quickMark(quick bool) string {
	if quick {
		return " (quick)"
	}
	return ""
}

func statusMark(d Delta) string {
	switch d.Status {
	case StatusRegressed:
		return "✗ regressed"
	case StatusUnchanged:
		return "unchanged"
	default:
		return string(d.Status)
	}
}

// tableMetrics are the metrics with their own table columns; everything
// else that moved lands in the "other deltas" cell so a row never reads as
// unchanged while a hidden metric (say, an APSP makespan) drifted.
var tableMetrics = map[string]bool{"rounds": true, "congestion": true, "awake": true, "bits": true}

func otherDeltas(d Delta) string {
	var parts []string
	for _, m := range d.Metrics {
		if tableMetrics[m.Metric] || m.Old == m.New {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %d → %d", m.Metric, m.Old, m.New))
	}
	if len(parts) == 0 {
		return "·"
	}
	return strings.Join(parts, ", ")
}

func findMetric(d Delta, name string) (MetricDelta, bool) {
	for _, m := range d.Metrics {
		if m.Metric == name {
			return m, true
		}
	}
	return MetricDelta{}, false
}

// metricCell renders "old → new (+x%)", or "·" when the metric is absent
// or did not move.
func metricCell(d Delta, name string) string {
	m, ok := findMetric(d, name)
	if !ok {
		return "·"
	}
	if m.Old == m.New {
		return fmt.Sprintf("%d", m.Old)
	}
	pct := ""
	if m.Old > 0 {
		pct = fmt.Sprintf(" (%+.1f%%)", 100*float64(m.New-m.Old)/float64(m.Old))
	}
	return fmt.Sprintf("%d → %d%s", m.Old, m.New, pct)
}

// ratioCell renders the envelope-ratio movement, bolding a gated failure.
func ratioCell(d Delta, name string) string {
	m, ok := findMetric(d, name)
	if !ok || m.OldRatio < 0 || m.NewRatio < 0 {
		return "-"
	}
	if m.OldRatio == m.NewRatio {
		return fmt.Sprintf("%.3f", m.NewRatio)
	}
	s := fmt.Sprintf("%.3f → %.3f", m.OldRatio, m.NewRatio)
	if m.Regressed {
		return "**" + s + "**"
	}
	return s
}
