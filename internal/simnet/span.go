package simnet

import (
	"fmt"
	"sort"
)

// Span ledger: named, depth-indexed execution regions whose complexity
// counters the engine maintains alongside the global Metrics. Algorithms
// built as phase pipelines (internal/core) open a span around each phase;
// the engine then attributes every complexity unit it accounts globally to
// exactly one open span, so the per-span ledger is a partition of the run:
//
//   - an awake round is attributed to the span the node was in when it
//     yielded (sum over spans = Metrics.TotalAwake);
//   - a message is attributed to the sender's span at Send time (sum =
//     Metrics.Messages), and its measured bit size raises that span's
//     MaxMessageBits (max over spans = Metrics.MaxMessageBits);
//   - wall-clock rounds are attributed as intervals: when the engine
//     processes round r after previously processing round r', the r-r'
//     elapsed rounds belong to the span of the earliest-resumed node of
//     round r (sum over spans = Metrics.Rounds). Components may drift
//     through different phases concurrently; the earliest-resumed-node rule
//     is the deterministic tiebreak.
//
// The engine keeps the ledger on every run; Metrics.Spans reports it
// whenever the program opened a span.
//
// The exact-partition property is what lets downstream reports prove their
// breakdowns against the scenario totals (see the conservation tests in
// internal/harness).

// RootSpanName is the name of the implicit span every node starts in; it
// collects whatever the program does outside any explicitly opened span.
const RootSpanName = "run"

// SpanMetrics is the ledger row of one (name, depth) span, aggregated over
// all nodes. Rounds/Messages/AwakeRounds partition the corresponding global
// metrics; MaxMessageBits is a per-span maximum.
type SpanMetrics struct {
	Name  string
	Depth int
	// Rounds is the wall-clock rounds attributed to the span.
	Rounds int64
	// Messages is the number of messages sent from within the span.
	Messages int64
	// AwakeRounds is the summed node-awake rounds spent in the span.
	AwakeRounds int64
	// MaxMessageBits is the largest single message sent from within the
	// span (0 unless Config.MessageBits is set).
	MaxMessageBits int64
}

type spanKey struct {
	name  string
	depth int32
}

// internSpan returns the ledger index of the (name, depth) span, creating
// it on first use. Execution is single-goroutine, so first-open order — and
// with it the ledger order — is deterministic.
func (e *Engine) internSpan(name string, depth int) int32 {
	k := spanKey{name, int32(depth)}
	if id, ok := e.spanIDs[k]; ok {
		return id
	}
	id := int32(len(e.spans))
	e.spanIDs[k] = id
	e.spans = append(e.spans, SpanMetrics{Name: name, Depth: depth})
	return id
}

// curSpan is the node's innermost open span (the root span if none).
func (ns *nodeState) curSpan() int32 {
	if n := len(ns.spanStack); n > 0 {
		return ns.spanStack[n-1]
	}
	return 0
}

// OpenSpan opens a ledger span named name at the given recursion depth and
// makes it the node's current attribution target until the matching
// CloseSpan. Spans nest; all nodes opening the same (name, depth) share one
// ledger row.
func (c *Ctx) OpenSpan(name string, depth int) {
	c.ns.spanStack = append(c.ns.spanStack, c.eng.internSpan(name, depth))
}

// CloseSpan closes the node's innermost open span, restoring the enclosing
// one as the attribution target. Panics on an unmatched close — always a
// pipeline bug.
func (c *Ctx) CloseSpan() {
	if len(c.ns.spanStack) == 0 {
		panic(fmt.Sprintf("simnet: node %d: CloseSpan without an open span", c.ns.id))
	}
	c.ns.spanStack = c.ns.spanStack[:len(c.ns.spanStack)-1]
}

// MergeSpans sums span-metric lists by (name, depth): Rounds, Messages, and
// AwakeRounds add, MaxMessageBits takes the maximum. The result is sorted
// by (depth, name), so merging is deterministic regardless of input order —
// the aggregation the APSP composition applies across its per-source
// instances. Returns nil when no input row exists.
func MergeSpans(lists ...[]SpanMetrics) []SpanMetrics {
	byKey := make(map[spanKey]int)
	var out []SpanMetrics
	for _, list := range lists {
		for _, s := range list {
			k := spanKey{s.Name, int32(s.Depth)}
			i, ok := byKey[k]
			if !ok {
				i = len(out)
				byKey[k] = i
				out = append(out, SpanMetrics{Name: s.Name, Depth: s.Depth})
			}
			out[i].Rounds += s.Rounds
			out[i].Messages += s.Messages
			out[i].AwakeRounds += s.AwakeRounds
			if s.MaxMessageBits > out[i].MaxMessageBits {
				out[i].MaxMessageBits = s.MaxMessageBits
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Depth != out[b].Depth {
			return out[a].Depth < out[b].Depth
		}
		return out[a].Name < out[b].Name
	})
	return out
}
