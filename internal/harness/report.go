package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ReportSchema versions the JSON layout; bump it on breaking field changes
// so downstream diff tooling (internal/benchdiff, cmd/dsssp-diff) can
// refuse mixed comparisons. v2 added the ε / strict-CONGEST / unreachable
// dimensions and the per-message bit metrics; v3 added the per-phase
// `phases` breakdown. Older v3 reports may also carry a `perf` wall-time
// block, since removed; decoding ignores it.
const ReportSchema = "dsssp-bench/v3"

// Report is the machine-readable output of a sweep (the BENCH_*.json
// artifact). Every field is deterministic for a given scenario list, so two
// runs of the same suite on any machine at any parallelism produce
// identical bytes.
type Report struct {
	Schema    string   `json:"schema"`
	Suite     string   `json:"suite"`
	Quick     bool     `json:"quick"`
	Scenarios int      `json:"scenarios"`
	Failures  int      `json:"failures"`
	Results   []Result `json:"results"`
}

// BuildReport assembles a report from sweep results.
func BuildReport(suite string, quick bool, results []Result) Report {
	rep := Report{Schema: ReportSchema, Suite: suite, Quick: quick, Scenarios: len(results), Results: results}
	for _, r := range results {
		if !r.OK {
			rep.Failures++
		}
	}
	return rep
}

// WriteJSON emits the report as indented JSON.
func WriteJSON(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadJSON parses exactly one report. It rejects unknown schemas, data
// after the report, and reports that contradict themselves: duplicate
// scenario names (a diff aligns by name), duplicate phases within a
// scenario, negative counts, and scenarios/failures totals that disagree
// with the results.
func ReadJSON(r io.Reader) (Report, error) {
	dec := json.NewDecoder(r)
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("harness: parsing report: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Report{}, fmt.Errorf("harness: trailing data after the report")
	}
	if rep.Schema != ReportSchema {
		return Report{}, fmt.Errorf("harness: unsupported report schema %q (want %q)", rep.Schema, ReportSchema)
	}
	if err := rep.check(); err != nil {
		return Report{}, fmt.Errorf("harness: inconsistent report: %w", err)
	}
	return rep, nil
}

func (rep Report) check() error {
	if rep.Scenarios != len(rep.Results) {
		return fmt.Errorf("scenarios is %d but %d results are listed", rep.Scenarios, len(rep.Results))
	}
	failures := 0
	seen := make(map[string]bool, len(rep.Results))
	for _, r := range rep.Results {
		if seen[r.Scenario] {
			return fmt.Errorf("scenario %q listed twice", r.Scenario)
		}
		seen[r.Scenario] = true
		if !r.OK {
			failures++
		}
		if min(r.Rounds, r.StrictRounds, r.Messages, r.MaxEdgeMessages, r.MaxMessageBits, r.MaxAwake, r.TotalAwake,
			int64(r.Unreachable), r.Dilation, r.Congestion, r.MakespanAligned, r.Makespan, r.MakespanSequential) < 0 {
			return fmt.Errorf("scenario %q has a negative count", r.Scenario)
		}
		phases := make(map[string]bool, len(r.Phases))
		for _, p := range r.Phases {
			if phases[p.Phase] {
				return fmt.Errorf("scenario %q lists phase %q twice", r.Scenario, p.Phase)
			}
			phases[p.Phase] = true
			if min(p.Rounds, p.Messages, p.AwakeRounds, p.MaxMessageBits) < 0 {
				return fmt.Errorf("scenario %q phase %q has a negative count", r.Scenario, p.Phase)
			}
		}
	}
	if rep.Failures != failures {
		return fmt.Errorf("failures is %d but %d results fail", rep.Failures, failures)
	}
	return nil
}

// ratio formats measured/predicted, or "-" when no bound is claimed. Ratios
// are the diffable signal: they should sit well under 1 and stay put
// across PRs; creep toward 1 is a complexity regression.
func ratio(measured, predicted int64) string {
	if predicted == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", float64(measured)/float64(predicted))
}

// WriteMarkdown renders the report as the EXPERIMENTS.md tables: one table
// per (model, alg) group, measured columns next to the predicted envelopes.
func WriteMarkdown(w io.Writer, rep Report) error {
	var b strings.Builder
	b.WriteString("# Experiments\n\n")
	b.WriteString("Generated by `dsssp-bench -markdown EXPERIMENTS.md` — do not edit by hand.\n\n")
	fmt.Fprintf(&b, "Suite: **%s**", rep.Suite)
	if rep.Quick {
		b.WriteString(" (quick sizes)")
	}
	fmt.Fprintf(&b, " · %d scenarios · %d failures · schema `%s`\n\n", rep.Scenarios, rep.Failures, rep.Schema)
	b.WriteString("Each row is one deterministic scenario (same seed ⇒ same graph ⇒ same\n")
	b.WriteString("metrics). `r(x)` columns are measured/envelope ratios against the paper's\n")
	b.WriteString("polylog bounds with fixed calibrated constants; they should stay well\n")
	b.WriteString("under 1 and roughly constant across PRs.\n")

	groups := make(map[string][]Result)
	var order []string
	for _, r := range rep.Results {
		k := r.Model + "-" + r.Alg
		if r.Strict {
			k += "-strict"
		}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	sort.Strings(order)

	for _, k := range order {
		rs := groups[k]
		fmt.Fprintf(&b, "\n## %s\n\n", k)
		if rs[0].Alg == string(AlgAPSP) {
			b.WriteString("| scenario | n | m | dilation | congestion | aligned | makespan | sequential | makespan/(C+T) | r(bits) | ok |\n")
			b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|\n")
			for _, r := range rs {
				ct := r.Congestion + r.Dilation
				rct := "-"
				if ct > 0 {
					rct = fmt.Sprintf("%.2f", float64(r.Makespan)/float64(ct))
				}
				fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d | %d | %d | %s | %s | %s |\n",
					r.Scenario, r.N, r.M, r.Dilation, r.Congestion,
					r.MakespanAligned, r.Makespan, r.MakespanSequential, rct,
					ratio(r.MaxMessageBits, r.Envelope.MessageBits), okMark(r))
			}
			continue
		}
		b.WriteString("| scenario | n | m | rounds | maxEdgeMsgs | maxAwake | r(rounds) | r(congestion) | r(awake) | r(bits) | ok |\n")
		b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|\n")
		for _, r := range rs {
			fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d | %s | %s | %s | %s | %s |\n",
				r.Scenario, r.N, r.M, r.Rounds, r.MaxEdgeMessages, r.MaxAwake,
				ratio(r.Rounds, r.Envelope.Rounds),
				ratio(r.MaxEdgeMessages, r.Envelope.Congestion),
				ratio(r.MaxAwake, r.Envelope.MaxAwake),
				ratio(r.MaxMessageBits, r.Envelope.MessageBits), okMark(r))
		}
	}

	// One sample per-phase breakdown so the experiments page shows where a
	// flagship scenario's rounds go; the full per-scenario breakdown is the
	// -breakdown artifact (WriteBreakdownMarkdown).
	for _, r := range rep.Results {
		if len(r.Phases) > 1 && r.OK {
			b.WriteString("\n## Round breakdown (sample)\n\n")
			b.WriteString("Wall-clock rounds of one scenario attributed to the CSSP pipeline\n")
			b.WriteString("phases (engine span ledger; the counters partition the scenario totals\n")
			b.WriteString("exactly). Full per-scenario tables: `dsssp-bench -breakdown`.\n\n")
			writeBreakdownTable(&b, r)
			break
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeBreakdownTable renders one scenario's flamegraph-style phase table:
// phases in pipeline order, share bars proportional to their slice of the
// scenario's rounds, and the per-phase envelope ratio (phase rounds against
// the scenario's rounds envelope — the per-phase ratios sum to the
// scenario's r(rounds), so each phase's share of the budget is gateable on
// its own).
func writeBreakdownTable(b *strings.Builder, r Result) {
	var total int64
	for _, ph := range r.Phases {
		total += ph.Rounds
	}
	fmt.Fprintf(b, "### %s\n\n", r.Scenario)
	fmt.Fprintf(b, "%d rounds · %d messages", r.Rounds, r.Messages)
	if r.Alg == string(AlgAPSP) {
		fmt.Fprintf(b, " · phases merged over all composed instances (%d instance-round total)", total)
	}
	b.WriteString("\n\n| phase | ref | rounds | share | | messages | awake | r(rounds) | by depth |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, ph := range r.Phases {
		share, bar := "-", ""
		if total > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(ph.Rounds)/float64(total))
			bar = strings.Repeat("▇", int((ph.Rounds*24+total/2)/total))
		}
		byDepth := ph.RoundsByDepth
		if byDepth == "" {
			byDepth = "·"
		}
		fmt.Fprintf(b, "| %s | %s | %d | %s | %s | %d | %d | %s | %s |\n",
			ph.Phase, ph.Ref, ph.Rounds, share, bar, ph.Messages, ph.AwakeRounds,
			ratio(ph.Rounds, r.Envelope.Rounds), byDepth)
	}
	b.WriteString("\n")
}

// WriteBreakdownMarkdown renders the per-phase round breakdown of every
// scenario that ran the CSSP phase pipeline — the flamegraph-style
// companion to the summary tables (the `dsssp-bench -breakdown` artifact CI
// uploads per PR).
func WriteBreakdownMarkdown(w io.Writer, rep Report) error {
	var b strings.Builder
	b.WriteString("# Round breakdowns\n\n")
	b.WriteString("Generated by `dsssp-bench -breakdown` — do not edit by hand.\n\n")
	fmt.Fprintf(&b, "Suite: **%s**", rep.Suite)
	if rep.Quick {
		b.WriteString(" (quick sizes)")
	}
	fmt.Fprintf(&b, " · schema `%s`\n\n", rep.Schema)
	b.WriteString("Each table splits one scenario's wall-clock rounds across the CSSP\n")
	b.WriteString("pipeline phases via the engine's span ledger. Per-phase rounds, messages,\n")
	b.WriteString("and awake rounds partition the scenario totals exactly; `by depth` splits\n")
	b.WriteString("a phase's rounds over the recursion depths it ran at (depth 0 first).\n\n")
	n := 0
	for _, r := range rep.Results {
		if len(r.Phases) == 0 {
			continue
		}
		writeBreakdownTable(&b, r)
		n++
	}
	if n == 0 {
		b.WriteString("No scenario in this sweep ran the phase pipeline.\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func okMark(r Result) string {
	if r.OK {
		return "✓"
	}
	if r.Err != "" {
		return "✗ " + r.Err
	}
	return "✗"
}

// WriteSummary prints the human one-line-per-scenario view used by the CLI
// default output.
func WriteSummary(w io.Writer, rep Report) error {
	fmt.Fprintf(w, "suite %s: %d scenarios, %d failures\n", rep.Suite, rep.Scenarios, rep.Failures)
	for _, r := range rep.Results {
		status := "ok"
		if !r.OK {
			status = "FAIL " + r.Err
		}
		fmt.Fprintf(w, "  %-44s n=%-5d rounds=%-8d maxEdge=%-6d maxAwake=%-6d %s\n",
			r.Scenario, r.N, r.Rounds, r.MaxEdgeMessages, r.MaxAwake, status)
	}
	return nil
}
