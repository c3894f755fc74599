package harness

import (
	"fmt"
	"sort"
	"strings"

	"dsssp/internal/core"
	"dsssp/internal/simnet"
)

// PhaseStat is one pipeline phase of a scenario's breakdown, aggregated
// over recursion depths. The counters partition the scenario-level metrics
// exactly (the engine's span ledger is an exact partition of its Metrics;
// see internal/simnet/span.go): summing Rounds/Messages/AwakeRounds over a
// result's phases reproduces the scenario's Rounds/Messages/TotalAwake, and
// the maximum MaxMessageBits reproduces the scenario's — asserted by
// TestPhaseConservation over the full quick sweep. For APSP, phases are
// merged across the composed instances, so only the summed metrics
// (messages) and the bit maximum tie back to the scenario row (its rounds
// column reports the heaviest single instance).
type PhaseStat struct {
	// Phase is the pipeline phase key (core.PipelinePhases).
	Phase string `json:"phase"`
	// Ref cites the paper construct the phase implements.
	Ref string `json:"ref,omitempty"`
	// Rounds is the wall-clock rounds attributed to the phase.
	Rounds int64 `json:"rounds"`
	// Messages is the number of messages sent from within the phase.
	Messages int64 `json:"messages,omitempty"`
	// AwakeRounds is the summed node-awake rounds spent in the phase.
	AwakeRounds int64 `json:"awake_rounds,omitempty"`
	// MaxMessageBits is the largest single message the phase sent (strict
	// scenarios only).
	MaxMessageBits int64 `json:"max_message_bits,omitempty"`
	// RoundsByDepth splits Rounds by recursion depth as "r0/r1/…" (depth 0
	// first; omitted when the phase only ever ran at depth 0). A compact
	// string keeps the flamegraph detail without exploding the JSON.
	RoundsByDepth string `json:"rounds_by_depth,omitempty"`
}

// PhasesFromSpans aggregates an engine span ledger into the per-phase
// breakdown — the exported entry point the serving layer uses to break a
// single query's metrics down the same way sweep reports do.
func PhasesFromSpans(spans []simnet.SpanMetrics) []PhaseStat {
	return phasesFromSpans(spans)
}

// PhaseRounds sums the per-phase round attribution. Because the span
// ledger partitions the engine's metrics exactly, this equals the run's
// total rounds — the conservation law the serving layer's phase:* trace
// spans (and tests) rely on.
func PhaseRounds(phases []PhaseStat) int64 {
	var total int64
	for _, ph := range phases {
		total += ph.Rounds
	}
	return total
}

// phasesFromSpans aggregates an engine span ledger into the per-phase
// breakdown: spans sharing a phase key merge across recursion depths, with
// the depth split preserved in RoundsByDepth. Rows are ordered by pipeline
// execution order (core.PhaseRank), so reports read like the recursion
// runs.
func phasesFromSpans(spans []simnet.SpanMetrics) []PhaseStat {
	if len(spans) == 0 {
		return nil
	}
	idx := make(map[string]int)
	var out []PhaseStat
	depths := make(map[string][]int64)
	for _, sp := range spans {
		i, ok := idx[sp.Name]
		if !ok {
			i = len(out)
			idx[sp.Name] = i
			ps := PhaseStat{Phase: sp.Name}
			if ph, known := core.PhaseByKey(sp.Name); known {
				ps.Ref = ph.Ref
			}
			out = append(out, ps)
		}
		out[i].Rounds += sp.Rounds
		out[i].Messages += sp.Messages
		out[i].AwakeRounds += sp.AwakeRounds
		if sp.MaxMessageBits > out[i].MaxMessageBits {
			out[i].MaxMessageBits = sp.MaxMessageBits
		}
		d := depths[sp.Name]
		for len(d) <= sp.Depth {
			d = append(d, 0)
		}
		d[sp.Depth] += sp.Rounds
		depths[sp.Name] = d
	}
	for i := range out {
		if d := depths[out[i].Phase]; len(d) > 1 {
			parts := make([]string, len(d))
			for j, r := range d {
				parts[j] = fmt.Sprintf("%d", r)
			}
			out[i].RoundsByDepth = strings.Join(parts, "/")
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		ra, rb := core.PhaseRank(out[a].Phase), core.PhaseRank(out[b].Phase)
		if ra != rb {
			return ra < rb
		}
		return out[a].Phase < out[b].Phase
	})
	return out
}
