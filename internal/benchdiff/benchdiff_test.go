package benchdiff

import (
	"bytes"
	"strings"
	"testing"

	"dsssp/internal/harness"
)

func report(results ...harness.Result) harness.Report {
	return harness.BuildReport("default", true, results)
}

func res(name string, rounds, roundsEnv int64) harness.Result {
	return harness.Result{
		Scenario: name, Family: "random", Model: "congest", Alg: "sssp",
		N: 32, M: 64, Rounds: rounds, MaxEdgeMessages: 10, Messages: 100,
		Envelope: harness.Envelope{Rounds: roundsEnv, Congestion: 100},
		DistHash: "abc", OK: true,
	}
}

func TestCompareUnchanged(t *testing.T) {
	old := report(res("a", 1000, 10000), res("b", 2000, 10000))
	d, err := Compare(old, old, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK || d.Unchanged != 2 || d.Changed+d.Regressed+d.Added+d.Removed != 0 {
		t.Fatalf("self-diff not clean: %+v", d)
	}
}

func TestCompareRegression(t *testing.T) {
	old := report(res("a", 1000, 10000))
	// +5% rounds: within the 10% gate.
	within, err := Compare(old, report(res("a", 1050, 10000)), DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !within.OK || within.Changed != 1 || within.Regressed != 0 {
		t.Fatalf("+5%% should pass the 10%% gate: %+v", within)
	}
	// +25% rounds: regression.
	beyond, err := Compare(old, report(res("a", 1250, 10000)), DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if beyond.OK || beyond.Regressed != 1 {
		t.Fatalf("+25%% should fail the 10%% gate: %+v", beyond)
	}
	if len(beyond.Deltas) != 1 || beyond.Deltas[0].Status != StatusRegressed {
		t.Fatalf("bad delta: %+v", beyond.Deltas)
	}
	if !strings.Contains(strings.Join(beyond.Deltas[0].Reasons, "\n"), "rounds envelope ratio worsened") {
		t.Fatalf("missing reason: %+v", beyond.Deltas[0].Reasons)
	}
	// Disabled gate tolerates anything.
	loose, err := Compare(old, report(res("a", 9000, 10000)), Thresholds{EnvelopeWorsen: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !loose.OK {
		t.Fatalf("disabled gate still regressed: %+v", loose)
	}
}

// TestCompareEnvelopeRecalibration: when the envelope itself changes (a
// deliberate recalibration), the gate compares ratios, not raw metrics —
// the same measurement under a doubled envelope halves the ratio and must
// pass even though rounds moved.
func TestCompareEnvelopeRecalibration(t *testing.T) {
	old := report(res("a", 5000, 10000))
	d, err := Compare(old, report(res("a", 5500, 20000)), DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK {
		t.Fatalf("ratio improved 0.50→0.275 yet gate failed: %+v", d)
	}
}

func TestCompareNewFailure(t *testing.T) {
	old := report(res("a", 1000, 10000))
	bad := res("a", 1000, 10000)
	bad.OK = false
	bad.Err = "distances disagree with the sequential reference"
	d, err := Compare(old, report(bad), DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if d.OK || d.NewFailures != 1 || d.Regressed != 1 {
		t.Fatalf("new failure must gate: %+v", d)
	}
	tolerant, err := Compare(old, report(bad), Thresholds{EnvelopeWorsen: 0.10, AllowNewFailures: true})
	if err != nil {
		t.Fatal(err)
	}
	if !tolerant.OK || tolerant.NewFailures != 1 {
		t.Fatalf("AllowNewFailures should pass but still count: %+v", tolerant)
	}
}

func TestCompareAddedRemoved(t *testing.T) {
	old := report(res("a", 1000, 10000), res("gone", 500, 10000))
	new := report(res("a", 1000, 10000), res("fresh", 700, 10000))
	d, err := Compare(old, new, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK || d.Added != 1 || d.Removed != 1 {
		t.Fatalf("added/removed miscounted: %+v", d)
	}
	strict, err := Compare(old, new, Thresholds{EnvelopeWorsen: 0.10, FailOnRemoved: true})
	if err != nil {
		t.Fatal(err)
	}
	if strict.OK || strict.Regressed != 1 {
		t.Fatalf("FailOnRemoved should gate: %+v", strict)
	}
	// An added scenario that fails verification gates even as an addition.
	badNew := res("fresh", 700, 10000)
	badNew.OK = false
	badNew.Err = "boom"
	d2, err := Compare(report(res("a", 1000, 10000)), report(res("a", 1000, 10000), badNew), DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if d2.OK {
		t.Fatalf("failing added scenario must gate: %+v", d2)
	}
	if d2.NewFailures != 1 {
		t.Fatalf("failing added scenario must count as a new failure: %+v", d2)
	}
}

// TestCompareCompositionMetrics: the APSP composition columns (and other
// un-enveloped metrics) have no ratio gate, but any drift must surface as
// StatusChanged — that is what keeps the checked-in baseline honest.
func TestCompareCompositionMetrics(t *testing.T) {
	mk := func(makespan int64) harness.Result {
		r := res("apsp", 1000, 10000)
		r.Alg = "apsp"
		r.Dilation, r.Congestion = 500, 300
		r.MakespanRandom = makespan
		return r
	}
	d, err := Compare(report(mk(700)), report(mk(900)), DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK || d.Changed != 1 {
		t.Fatalf("makespan drift must be StatusChanged (and pass the ratio gate): %+v", d)
	}
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, d, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "makespan_random 700 → 900") {
		t.Errorf("markdown hides the drifted composition metric:\n%s", buf.String())
	}
}

// TestCompareRedefinedScenario: changing a scenario's ε/strict (or
// family/model/alg) without renaming it must gate — the two rows are
// different experiments and their metrics are incomparable.
func TestCompareRedefinedScenario(t *testing.T) {
	old := res("a", 1000, 10000)
	redefined := res("a", 1000, 10000)
	redefined.Strict = true
	redefined.EpsNum, redefined.EpsDen = 1, 4
	d, err := Compare(report(old), report(redefined), DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if d.OK || d.Regressed != 1 {
		t.Fatalf("silent redefinition must gate: %+v", d)
	}
	if !strings.Contains(strings.Join(d.Deltas[0].Reasons, ";"), "redefined under the same name") {
		t.Fatalf("missing redefinition reason: %+v", d.Deltas[0].Reasons)
	}
}

func TestCompareRefusesMixedSuites(t *testing.T) {
	old := harness.BuildReport("default", true, nil)
	new := harness.BuildReport("default", false, nil)
	if _, err := Compare(old, new, DefaultThresholds()); err == nil {
		t.Fatal("quick vs full comparison accepted")
	}
	other := harness.BuildReport("custom", true, nil)
	if _, err := Compare(old, other, DefaultThresholds()); err == nil {
		t.Fatal("mixed suite names accepted")
	}
}

func TestWriteMarkdown(t *testing.T) {
	old := report(res("a", 1000, 10000), res("same", 10, 100))
	d, err := Compare(old, report(res("a", 1300, 10000), res("same", 10, 100)), DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, d, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"a", "regressed", "0.100 → 0.130", "Verdict: **FAIL**", "## Regressions"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "| same |") {
		t.Errorf("changedOnly table lists an unchanged scenario:\n%s", out)
	}
	var all bytes.Buffer
	if err := WriteMarkdown(&all, d, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(all.String(), "| same |") {
		t.Errorf("full table misses unchanged scenario:\n%s", all.String())
	}
	var js bytes.Buffer
	if err := WriteJSON(&js, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), DiffSchema) {
		t.Errorf("JSON missing schema: %s", js.String())
	}
}

// TestCompareBitsRatio: the strict-CONGEST message-bits envelope takes part
// in the gate like every other ratio.
func TestCompareBitsRatio(t *testing.T) {
	mk := func(bits int64) harness.Result {
		r := res("strict", 1000, 10000)
		r.Strict = true
		r.MaxMessageBits = bits
		r.Envelope.MessageBits = 100
		return r
	}
	d, err := Compare(report(mk(40)), report(mk(60)), DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if d.OK {
		t.Fatalf("bits ratio 0.4→0.6 must gate at 10%%: %+v", d)
	}
	if !strings.Contains(strings.Join(d.Deltas[0].Reasons, ";"), "bits envelope ratio") {
		t.Fatalf("missing bits reason: %+v", d.Deltas[0].Reasons)
	}
}

// TestComparePerfSidecarIgnored: reports written by older dsssp-bench
// -perf runs carry machine-dependent wall_ns/allocs blocks, per result and
// per sweep. They must still decode and diff as unchanged against a plain
// report, in both directions.
func TestComparePerfSidecarIgnored(t *testing.T) {
	old := report(res("a", 1000, 10000))
	var buf bytes.Buffer
	if err := harness.WriteJSON(&buf, old); err != nil {
		t.Fatal(err)
	}
	raw := strings.Replace(buf.String(), `"ok": true`,
		`"ok": true, "perf": {"wall_ns": 123456789, "allocs": 42, "alloc_bytes": 4096}`, 1)
	raw = strings.Replace(raw, `"quick": true`,
		`"quick": true, "perf": {"wall_ns": 987654321, "scenarios_per_sec": 3.5}`, 1)
	if raw == buf.String() || strings.Count(raw, `"perf"`) != 2 {
		t.Fatalf("failed to annotate the report:\n%s", raw)
	}
	annotated, err := harness.ReadJSON(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compare(old, annotated, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK || d.Unchanged != 1 || d.Changed+d.Regressed != 0 {
		t.Fatalf("perf sidecar leaked into the diff: %+v", d)
	}
	d, err = Compare(annotated, old, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK || d.Unchanged != 1 {
		t.Fatalf("perf sidecar removal gated: %+v", d)
	}
}
