package benchdiff

import (
	"fmt"
	"io"
	"strings"

	"dsssp/internal/harness"
)

// TrendSchema versions the trend JSON.
const TrendSchema = "dsssp-trend/v1"

// Trend is the history-aware view of a chain of reports: where Compare
// answers "did this PR regress against the last baseline", Chain answers
// "where has every scenario's envelope ratio been heading" — per-scenario
// and per-phase measured/envelope time series over N reports, plus the
// pairwise gate verdicts between consecutive reports.
type Trend struct {
	Schema string `json:"schema"`
	Suite  string `json:"suite"`
	Quick  bool   `json:"quick"`
	// Labels name the reports, oldest first (timestamps, git revs, file
	// names — whatever the caller stores them under).
	Labels    []string        `json:"labels"`
	Scenarios []ScenarioTrend `json:"scenarios"`
	// Steps are the pairwise Compare verdicts between consecutive reports.
	Steps []Step `json:"steps"`
	// OK is true when every step passes its gate.
	OK bool `json:"ok"`
}

// Step summarizes one consecutive-pair comparison of the chain.
type Step struct {
	From        string `json:"from"`
	To          string `json:"to"`
	Unchanged   int    `json:"unchanged"`
	Changed     int    `json:"changed"`
	Regressed   int    `json:"regressed"`
	Added       int    `json:"added"`
	Removed     int    `json:"removed"`
	NewFailures int    `json:"new_failures"`
	OK          bool   `json:"ok"`
}

// ScenarioTrend is one scenario's series across the chain. Present/OK are
// indexed like Trend.Labels; series values at reports where the scenario is
// absent are 0 with ratio -1.
type ScenarioTrend struct {
	Scenario string `json:"scenario"`
	Present  []bool `json:"present"`
	OK       []bool `json:"ok"`
	// Metrics holds the enveloped scenario metrics (rounds, congestion,
	// awake, bits); Phases the per-phase round shares, named
	// "phase:<key>", with ratios against the scenario's rounds envelope —
	// exactly the quantities Compare gates pairwise.
	Metrics []TrendSeries `json:"metrics,omitempty"`
	Phases  []TrendSeries `json:"phases,omitempty"`
}

// TrendSeries is one metric's trajectory: Values are the measured numbers,
// Ratios the measured/envelope ratios (-1 where the report lacks the
// scenario or claims no envelope). Both are indexed like Trend.Labels.
type TrendSeries struct {
	Metric string    `json:"metric"`
	Values []int64   `json:"values"`
	Ratios []float64 `json:"ratios"`
}

// envMetric pairs a measured value with its envelope; the shared metric
// vocabulary of Compare (pairwise deltas) and Chain (N-report series).
type envMetric struct {
	name       string
	value, env int64
}

// envelopedMetrics lists the gateable metrics of a result in render order.
func envelopedMetrics(r harness.Result) []envMetric {
	return []envMetric{
		{"rounds", r.Rounds, r.Envelope.Rounds},
		{"congestion", r.MaxEdgeMessages, r.Envelope.Congestion},
		{"awake", r.MaxAwake, r.Envelope.MaxAwake},
		{"bits", r.MaxMessageBits, r.Envelope.MessageBits},
	}
}

// Chain aligns a chronological chain of reports (oldest first) by scenario
// name and builds the trend: every enveloped metric and every pipeline
// phase becomes a ratio time series, and every consecutive pair is gated
// with Compare under the thresholds. All reports must come from the same
// suite flavor. labels may be nil (reports are then labeled r0, r1, …) or
// must match len(reports).
func Chain(reports []harness.Report, labels []string, th Thresholds) (Trend, error) {
	if len(reports) < 2 {
		return Trend{}, fmt.Errorf("benchdiff: a trend needs at least 2 reports, got %d", len(reports))
	}
	if labels == nil {
		labels = make([]string, len(reports))
		for i := range labels {
			labels[i] = fmt.Sprintf("r%d", i)
		}
	}
	if len(labels) != len(reports) {
		return Trend{}, fmt.Errorf("benchdiff: %d labels for %d reports", len(labels), len(reports))
	}
	t := Trend{
		Schema: TrendSchema,
		Suite:  reports[0].Suite,
		Quick:  reports[0].Quick,
		Labels: labels,
		OK:     true,
	}
	// The pairwise comparisons double as the suite-flavor validation:
	// Compare rejects mixed suite/quick chains.
	for i := 0; i+1 < len(reports); i++ {
		d, err := Compare(reports[i], reports[i+1], th)
		if err != nil {
			return Trend{}, fmt.Errorf("%s vs %s: %w", labels[i], labels[i+1], err)
		}
		step := Step{
			From: labels[i], To: labels[i+1],
			Unchanged: d.Unchanged, Changed: d.Changed, Regressed: d.Regressed,
			Added: d.Added, Removed: d.Removed, NewFailures: d.NewFailures,
			OK: d.OK,
		}
		t.Steps = append(t.Steps, step)
		if !d.OK {
			t.OK = false
		}
	}

	// Scenario order: first appearance across the chain, so long-lived
	// scenarios lead and later additions append — stable as history grows.
	byName := make([]map[string]harness.Result, len(reports))
	var order []string
	seen := make(map[string]bool)
	for i, rep := range reports {
		byName[i] = make(map[string]harness.Result, len(rep.Results))
		for _, r := range rep.Results {
			byName[i][r.Scenario] = r
			if !seen[r.Scenario] {
				seen[r.Scenario] = true
				order = append(order, r.Scenario)
			}
		}
	}

	for _, name := range order {
		st := ScenarioTrend{
			Scenario: name,
			Present:  make([]bool, len(reports)),
			OK:       make([]bool, len(reports)),
		}
		// Metric series, aligned by the fixed enveloped-metric vocabulary.
		metricNames := []string{"rounds", "congestion", "awake", "bits"}
		series := make(map[string]*TrendSeries, len(metricNames)+4)
		for _, m := range metricNames {
			series[m] = newSeries(m, len(reports))
		}
		// Phase series in first-appearance order, like scenarios.
		var phaseOrder []string
		for i := range reports {
			r, ok := byName[i][name]
			if !ok {
				continue
			}
			st.Present[i], st.OK[i] = true, r.OK
			for _, m := range envelopedMetrics(r) {
				s := series[m.name]
				s.Values[i] = m.value
				if m.env > 0 {
					s.Ratios[i] = float64(m.value) / float64(m.env)
				}
			}
			for _, ph := range r.Phases {
				key := "phase:" + ph.Phase
				s, ok := series[key]
				if !ok {
					s = newSeries(key, len(reports))
					series[key] = s
					phaseOrder = append(phaseOrder, key)
				}
				s.Values[i] = ph.Rounds
				if r.Envelope.Rounds > 0 {
					s.Ratios[i] = float64(ph.Rounds) / float64(r.Envelope.Rounds)
				}
			}
		}
		for _, m := range metricNames {
			if s := series[m]; !s.empty() {
				st.Metrics = append(st.Metrics, *s)
			}
		}
		for _, key := range phaseOrder {
			if s := series[key]; !s.empty() {
				st.Phases = append(st.Phases, *s)
			}
		}
		t.Scenarios = append(t.Scenarios, st)
	}
	return t, nil
}

func newSeries(name string, n int) *TrendSeries {
	s := &TrendSeries{Metric: name, Values: make([]int64, n), Ratios: make([]float64, n)}
	for i := range s.Ratios {
		s.Ratios[i] = -1
	}
	return s
}

// empty reports whether the series carries no signal at all — every value
// zero and no envelope anywhere — so all-zero metrics (awake on CONGEST
// runs, bits outside strict mode) stay out of the trend.
func (s *TrendSeries) empty() bool {
	for i := range s.Values {
		if s.Values[i] != 0 || s.Ratios[i] >= 0 {
			return false
		}
	}
	return true
}

// WriteTrendMarkdown renders the trend table: one row per scenario×metric
// (and scenario×phase), ratio columns oldest → newest, and the net drift
// over the chain: the dsssp-diff -trend output.
func WriteTrendMarkdown(w io.Writer, t Trend) error {
	var b strings.Builder
	b.WriteString("# Bench trends\n\n")
	fmt.Fprintf(&b, "Suite **%s**%s · %d reports: %s\n\n",
		t.Suite, quickMark(t.Quick), len(t.Labels), strings.Join(t.Labels, " → "))
	b.WriteString("Each cell is a measured/envelope ratio (lower is better; creep toward 1\n")
	b.WriteString("is a complexity regression). `phase:*` rows are that pipeline phase's\n")
	b.WriteString("share of the scenario's rounds envelope. drift is the relative change of\n")
	b.WriteString("the ratio over the whole chain.\n\n")

	for _, step := range t.Steps {
		mark := "pass"
		if !step.OK {
			mark = fmt.Sprintf("**FAIL** (%d regressed)", step.Regressed)
		}
		extra := ""
		if step.NewFailures > 0 {
			extra = fmt.Sprintf(", %d new failures", step.NewFailures)
		}
		fmt.Fprintf(&b, "- %s → %s: %s — %d unchanged, %d changed, %d added, %d removed%s\n",
			step.From, step.To, mark, step.Unchanged, step.Changed, step.Added, step.Removed, extra)
	}

	fmt.Fprintf(&b, "\n| scenario | metric | %s | drift |\n", strings.Join(t.Labels, " | "))
	b.WriteString("|---|---|" + strings.Repeat("---|", len(t.Labels)) + "---|\n")
	rows := 0
	for _, st := range t.Scenarios {
		for _, s := range append(append([]TrendSeries(nil), st.Metrics...), st.Phases...) {
			cells := make([]string, len(s.Ratios))
			for i, r := range s.Ratios {
				switch {
				case !st.Present[i]:
					cells[i] = "·"
				case r < 0:
					cells[i] = fmt.Sprintf("%d", s.Values[i])
				default:
					cells[i] = fmt.Sprintf("%.3f", r)
				}
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", st.Scenario, s.Metric, strings.Join(cells, " | "), drift(s))
			rows++
		}
	}
	if rows == 0 {
		b.WriteString("\nNo enveloped metrics in this chain.\n")
	}
	verdict := "**PASS**"
	if !t.OK {
		verdict = "**FAIL**"
	}
	fmt.Fprintf(&b, "\nVerdict: %s\n", verdict)
	_, err := io.WriteString(w, b.String())
	return err
}

// drift summarizes a series end to end: the relative ratio change between
// the first and last reports where it applies.
func drift(s TrendSeries) string {
	first, last := -1.0, -1.0
	for _, r := range s.Ratios {
		if r >= 0 {
			if first < 0 {
				first = r
			}
			last = r
		}
	}
	switch {
	case first < 0 || last < 0:
		return "-"
	case first == 0:
		if last == 0 {
			return "→ 0%"
		}
		return "↗ new"
	}
	rel := (last - first) / first
	arrow := "→"
	if rel > 0.005 {
		arrow = "↗"
	} else if rel < -0.005 {
		arrow = "↘"
	}
	return fmt.Sprintf("%s %+.1f%%", arrow, 100*rel)
}
