package simnet

import (
	"reflect"
	"strings"
	"testing"

	"dsssp/internal/graph"
)

func spanByName(t *testing.T, spans []SpanMetrics, name string, depth int) SpanMetrics {
	t.Helper()
	for _, s := range spans {
		if s.Name == name && s.Depth == depth {
			return s
		}
	}
	t.Fatalf("span (%q, %d) missing from ledger %+v", name, depth, spans)
	return SpanMetrics{}
}

// checkSpanConservation asserts the ledger partition invariants against the
// global metrics: rounds, messages, and awake rounds sum exactly; message
// bits agree on the maximum.
func checkSpanConservation(t *testing.T, met Metrics) {
	t.Helper()
	var rounds, msgs, awake, bits int64
	for _, s := range met.Spans {
		rounds += s.Rounds
		msgs += s.Messages
		awake += s.AwakeRounds
		if s.MaxMessageBits > bits {
			bits = s.MaxMessageBits
		}
	}
	if rounds != met.Rounds {
		t.Errorf("span rounds sum %d != Metrics.Rounds %d", rounds, met.Rounds)
	}
	if msgs != met.Messages {
		t.Errorf("span messages sum %d != Metrics.Messages %d", msgs, met.Messages)
	}
	if awake != met.TotalAwake {
		t.Errorf("span awake sum %d != Metrics.TotalAwake %d", awake, met.TotalAwake)
	}
	if bits != met.MaxMessageBits {
		t.Errorf("span bits max %d != Metrics.MaxMessageBits %d", bits, met.MaxMessageBits)
	}
}

// TestSpanAttribution runs a two-phase program and checks every counter
// lands in the span that was open when the engine accounted it.
func TestSpanAttribution(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights)
	eng := New(g, Config{Model: Congest, MessageBits: func(uint64, any) int64 { return 7 }})
	res, err := eng.Run(func(c *Ctx) {
		// Round 0 (root span): everyone idles one round.
		c.Next()
		// Phase "a" at depth 0: each node messages its neighbors, then
		// receives (round 2).
		c.OpenSpan("a", 0)
		for i := 0; i < c.Degree(); i++ {
			c.Send(i, "hi")
		}
		c.Next()
		c.CloseSpan()
		// Phase "b" at depth 1: node 0 sleeps two extra rounds so the
		// elapsed interval is attributed to b (node 0 is the
		// earliest-resumed node of round 5).
		c.OpenSpan("b", 1)
		if c.ID() == 0 {
			c.SleepUntil(c.Round() + 3)
		}
		c.CloseSpan()
	})
	if err != nil {
		t.Fatal(err)
	}
	met := res.Metrics
	checkSpanConservation(t, met)

	root := spanByName(t, met.Spans, RootSpanName, 0)
	a := spanByName(t, met.Spans, "a", 0)
	b := spanByName(t, met.Spans, "b", 1)
	// Messages: all 4 (2 per inner edge direction… path of 3 has 2 edges,
	// each endpoint sends on each incident edge: degree sum = 4) sent
	// inside "a".
	if a.Messages != 4 || root.Messages != 0 || b.Messages != 0 {
		t.Errorf("message attribution: root=%d a=%d b=%d, want 0/4/0", root.Messages, a.Messages, b.Messages)
	}
	if a.MaxMessageBits != 7 || b.MaxMessageBits != 0 {
		t.Errorf("bit attribution: a=%d b=%d, want 7/0", a.MaxMessageBits, b.MaxMessageBits)
	}
	// Awake rounds attribute to the span the node yielded in — the phase
	// that scheduled the wake. Rounds 0 and 1 were scheduled from the root
	// span (round 1's wake comes from the Next() before "a" opens), round
	// 2 from inside "a", and node 0's round-5 wake from inside "b".
	if root.AwakeRounds != 6 || a.AwakeRounds != 3 || b.AwakeRounds != 1 {
		t.Errorf("awake attribution: root=%d a=%d b=%d, want 6/3/1", root.AwakeRounds, a.AwakeRounds, b.AwakeRounds)
	}
	// Round intervals: rounds 0–1 belong to root, round 2 to "a", and the
	// 3-round sleep interval ending at round 5 to "b".
	if root.Rounds != 2 || a.Rounds != 1 || b.Rounds != 3 {
		t.Errorf("round attribution: root=%d a=%d b=%d, want 2/1/3", root.Rounds, a.Rounds, b.Rounds)
	}
}

// TestSpanUnmatchedClose: closing without an open span is a program bug the
// engine must surface as a node panic, not silent corruption.
func TestSpanUnmatchedClose(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	eng := New(g, Config{Model: Congest})
	_, err := eng.Run(func(c *Ctx) { c.CloseSpan() })
	if err == nil || !strings.Contains(err.Error(), "CloseSpan without an open span") {
		t.Fatalf("err = %v, want unmatched-close panic", err)
	}
}

// TestSpanSleepingModel: the ledger works identically in the sleeping
// model, where skipped rounds (sleep intervals) dominate.
func TestSpanSleepingModel(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)
	eng := New(g, Config{Model: Sleeping})
	res, err := eng.Run(func(c *Ctx) {
		c.OpenSpan("work", 2)
		c.SleepUntil(10 + int64(c.ID()))
		c.CloseSpan()
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSpanConservation(t, res.Metrics)
	w := spanByName(t, res.Metrics.Spans, "work", 2)
	if w.Rounds == 0 || w.AwakeRounds != 2 {
		t.Errorf("work span = %+v, want the sleep interval and 2 awake rounds", w)
	}
}

func TestMergeSpans(t *testing.T) {
	a := []SpanMetrics{
		{Name: "cutter", Depth: 1, Rounds: 10, Messages: 5, AwakeRounds: 3, MaxMessageBits: 40},
		{Name: "run", Depth: 0, Rounds: 1},
	}
	b := []SpanMetrics{
		{Name: "cutter", Depth: 1, Rounds: 7, Messages: 2, AwakeRounds: 1, MaxMessageBits: 55},
		{Name: "barrier", Depth: 0, Rounds: 4},
	}
	got := MergeSpans(a, b)
	want := []SpanMetrics{
		{Name: "barrier", Depth: 0, Rounds: 4},
		{Name: "run", Depth: 0, Rounds: 1},
		{Name: "cutter", Depth: 1, Rounds: 17, Messages: 7, AwakeRounds: 4, MaxMessageBits: 55},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MergeSpans = %+v, want %+v", got, want)
	}
	if MergeSpans() != nil || MergeSpans(nil, nil) != nil {
		t.Fatal("MergeSpans of nothing must be nil")
	}
}

// TestMetricsAppend: appending a second run on the same graph sums the
// counters and vectors, recomputes the maxima from the sums, and merges the
// ledgers, so the result still partitions its totals.
func TestMetricsAppend(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights)
	run := func(span string, bits int64) Metrics {
		cfg := Config{Model: Congest, MessageBits: func(uint64, any) int64 { return bits }}
		res, err := New(g, cfg).Run(func(c *Ctx) {
			c.OpenSpan(span, 0)
			if c.ID() == 1 {
				c.Send(0, "x")
			}
			c.Next()
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	a, b := run("a", 5), run("b", 9)
	m := run("a", 5)
	m.Append(b)
	checkSpanConservation(t, m)
	if m.Rounds != a.Rounds+b.Rounds || m.StrictRounds != a.StrictRounds+b.StrictRounds ||
		m.Messages != a.Messages+b.Messages || m.TotalAwake != a.TotalAwake+b.TotalAwake {
		t.Errorf("appended totals %v, want the sums of %v and %v", &m, &a, &b)
	}
	if m.MaxEdgeMessages != 2 || m.MaxAwake != 4 || m.MaxMessageBits != 9 {
		t.Errorf("maxima edge=%d awake=%d bits=%d, want 2/4/9", m.MaxEdgeMessages, m.MaxAwake, m.MaxMessageBits)
	}
	var names []string
	for _, s := range m.Spans {
		names = append(names, s.Name)
	}
	if want := []string{"a", "b", RootSpanName}; !reflect.DeepEqual(names, want) {
		t.Errorf("ledger order %v, want %v", names, want)
	}
	if r := spanByName(t, m.Spans, RootSpanName, 0); r.Rounds != 2 || r.AwakeRounds != 6 {
		t.Errorf("root row %+v, want both runs' first round and wakes", r)
	}
}
