package harness

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dsssp/internal/graph"
)

func quickSubset(t *testing.T, patterns ...string) []Scenario {
	t.Helper()
	scns, err := Default(true).Select(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if len(scns) == 0 {
		t.Fatal("empty selection")
	}
	return scns
}

// TestParallelMatchesSequential is the harness's core guarantee: a sweep
// over the worker pool produces byte-identical results — distances (via
// DistHash) and every metric — to a sequential run.
func TestParallelMatchesSequential(t *testing.T) {
	scns := quickSubset(t,
		"congest-sssp/path/*", "congest-sssp/random/*", "congest-cssp/*",
		"sleeping-bfs/path/*", "congest-apsp/random/*", "congest-bellman-ford/*")
	seq, err := Run(context.Background(), scns, RunOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), scns, RunOptions{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	var bseq, bpar bytes.Buffer
	if err := WriteJSON(&bseq, BuildReport("test", true, seq)); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&bpar, BuildReport("test", true, par)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bseq.Bytes(), bpar.Bytes()) {
		t.Fatalf("parallel run differs from sequential run:\n--- seq ---\n%s\n--- par ---\n%s",
			bseq.String(), bpar.String())
	}
	for _, r := range seq {
		if !r.OK {
			t.Errorf("%s failed verification: %s", r.Scenario, r.Err)
		}
	}
}

// TestDefaultSuiteValidates: every registered scenario must pass its own
// validation and build a non-trivial graph.
func TestDefaultSuiteValidates(t *testing.T) {
	for _, quick := range []bool{true, false} {
		reg := Default(quick)
		if reg.Len() == 0 {
			t.Fatal("empty default suite")
		}
		for _, name := range reg.Names() {
			s, ok := reg.Get(name)
			if !ok {
				t.Fatalf("Get(%q) failed", name)
			}
			if err := s.Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			g := s.BuildGraph()
			if g.N() < 4 || g.M() == 0 {
				t.Errorf("%s: degenerate graph n=%d m=%d", name, g.N(), g.M())
			}
		}
	}
}

func TestRegistryRejectsDuplicatesAndInvalid(t *testing.T) {
	r := NewRegistry()
	s := Scenario{
		Name: "x", Family: graph.FamilyPath, N: 8,
		Weights: WeightSpec{Kind: WeightUnit}, Model: ModelCongest, Alg: AlgSSSP,
	}
	if err := r.Register(s); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(s); err == nil {
		t.Error("duplicate name accepted")
	}
	bad := []Scenario{
		{Name: "", Family: graph.FamilyPath, N: 8, Weights: WeightSpec{Kind: WeightUnit}, Model: ModelCongest, Alg: AlgSSSP},
		{Name: "a", Family: graph.FamilyPath, N: 2, Weights: WeightSpec{Kind: WeightUnit}, Model: ModelCongest, Alg: AlgSSSP},
		{Name: "b", Family: "nope", N: 8, Weights: WeightSpec{Kind: WeightUnit}, Model: ModelCongest, Alg: AlgSSSP},
		{Name: "c", Family: graph.FamilyPath, N: 8, Weights: WeightSpec{Kind: "gauss"}, Model: ModelCongest, Alg: AlgSSSP},
		{Name: "d", Family: graph.FamilyPath, N: 8, Weights: WeightSpec{Kind: WeightUnit}, Model: "half-awake", Alg: AlgSSSP},
		{Name: "e", Family: graph.FamilyPath, N: 8, Weights: WeightSpec{Kind: WeightUnit}, Model: ModelCongest, Alg: "a-star"},
		{Name: "f", Family: graph.FamilyPath, N: 8, Weights: WeightSpec{Kind: WeightUnit}, Model: ModelSleeping, Alg: AlgAPSP},
		{Name: "g", Family: graph.FamilyPath, N: 8, Weights: WeightSpec{Kind: WeightUniform}, Model: ModelCongest, Alg: AlgSSSP},
	}
	for _, s := range bad {
		if err := r.Register(s); err == nil {
			t.Errorf("scenario %+v accepted, want validation error", s)
		}
	}
}

func TestSelectPatterns(t *testing.T) {
	reg := Default(true)
	all, err := reg.Select(nil)
	if err != nil || len(all) != reg.Len() {
		t.Fatalf("Select(nil) = %d scenarios, err %v; want all %d", len(all), err, reg.Len())
	}
	sssp, err := reg.Select([]string{"congest-sssp/*"})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sssp {
		if s.Alg != AlgSSSP || s.Model != ModelCongest {
			t.Errorf("pattern leaked %s", s.Name)
		}
	}
	if _, err := reg.Select([]string{"no-such-thing"}); err == nil {
		t.Error("bogus pattern accepted")
	}
	exact := all[0].Name
	one, err := reg.Select([]string{exact})
	if err != nil || len(one) != 1 || one[0].Name != exact {
		t.Errorf("exact-name select failed: %v %v", one, err)
	}
}

// TestRunCancellation: a cancelled context stops dispatching and marks the
// remaining scenarios as skipped instead of hanging.
func TestRunCancellation(t *testing.T) {
	scns := quickSubset(t, "all")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep starts: everything skips
	results, err := Run(ctx, scns, RunOptions{Parallel: 2})
	if err == nil {
		t.Fatal("want ctx error")
	}
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CancelError, got %T: %v", err, err)
	}
	if ce.Completed != 0 || ce.Skipped != len(scns) || ce.Total != len(scns) {
		t.Fatalf("CancelError counts = %+v, want 0 completed / %d skipped", ce, len(scns))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CancelError should unwrap to context.Canceled, got %v", err)
	}
	if len(results) != len(scns) {
		t.Fatalf("got %d results, want %d", len(results), len(scns))
	}
	for _, r := range results {
		if r.OK || !strings.HasPrefix(r.Err, "skipped:") {
			t.Fatalf("scenario %s should be skipped, got %+v", r.Scenario, r)
		}
	}
}

// TestRunCancellationMidSweep: cancelling between scenarios yields a
// partial set of real results plus explicitly skipped rows, and the
// CancelError accounts for both — a cancelled sweep is distinguishable
// from an ordinarily short one.
func TestRunCancellationMidSweep(t *testing.T) {
	scns := quickSubset(t, "all")
	if len(scns) < 3 {
		t.Skip("need at least 3 scenarios")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results, err := Run(ctx, scns, RunOptions{
		Parallel: 1,
		Progress: func(done, total int, r Result) {
			if done == 1 {
				cancel() // after the first scenario completes
			}
		},
	})
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CancelError, got %T: %v", err, err)
	}
	if ce.Completed < 1 || ce.Skipped < 1 || ce.Completed+ce.Skipped != ce.Total || ce.Total != len(scns) {
		t.Fatalf("inconsistent CancelError counts: %+v (n=%d)", ce, len(scns))
	}
	completed, skippedRows := 0, 0
	for _, r := range results {
		if strings.HasPrefix(r.Err, "skipped:") {
			skippedRows++
		} else {
			completed++
		}
	}
	if completed != ce.Completed || skippedRows != ce.Skipped {
		t.Fatalf("rows (completed=%d skipped=%d) disagree with CancelError %+v", completed, skippedRows, ce)
	}
	// The partial report the caller would build from these results carries
	// the skipped rows as failures — it cannot read as a clean short sweep.
	if rep := BuildReport("default", true, results); rep.Failures < skippedRows {
		t.Fatalf("report failures = %d, want >= %d skipped", rep.Failures, skippedRows)
	}
}

// TestExecuteNeverCrashes: a broken workload must produce an error Result,
// not take down the sweep — whether Validate catches it up front or the
// recover() in Execute converts a deeper panic.
func TestExecuteNeverCrashes(t *testing.T) {
	// Caught by Validate inside Execute.
	r := Execute(Scenario{
		Name: "broken", Family: graph.FamilyCycle, N: 8,
		Weights: WeightSpec{Kind: WeightUniform, MaxW: -1},
		Model:   ModelCongest, Alg: AlgSSSP,
	})
	if r.OK || r.Err == "" {
		t.Fatalf("want an error result, got %+v", r)
	}
	// Defense in depth: the recover path turns generator panics into Err.
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("Execute let a panic escape: %v", p)
			}
		}()
		r = executeUnvalidated(Scenario{
			Name: "panics", Family: graph.FamilyCycle, N: 8,
			Weights: WeightSpec{Kind: WeightUniform, MaxW: -1},
			Model:   ModelCongest, Alg: AlgSSSP,
		})
	}()
	if r.OK || !strings.HasPrefix(r.Err, "panic:") {
		t.Fatalf("want a panic-derived error result, got %+v", r)
	}
}

func TestProgressReporting(t *testing.T) {
	scns := quickSubset(t, "congest-bellman-ford/*", "congest-dijkstra/*")
	var calls int
	_, err := Run(context.Background(), scns, RunOptions{
		Parallel: 4,
		Progress: func(done, total int, r Result) {
			calls++
			if total != len(scns) || done < 1 || done > total {
				t.Errorf("bad progress (%d,%d)", done, total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(scns) {
		t.Errorf("progress called %d times, want %d", calls, len(scns))
	}
}

// TestReportRoundTrip: WriteJSON output parses back unchanged and the
// markdown writer renders every scenario row.
func TestReportRoundTrip(t *testing.T) {
	scns := quickSubset(t, "congest-bfs/*", "sleeping-bfs/*")
	results, err := Run(context.Background(), scns, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport("test", true, results)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Scenarios != rep.Scenarios || back.Failures != rep.Failures || len(back.Results) != len(rep.Results) {
		t.Fatalf("round trip changed the report: %+v vs %+v", back, rep)
	}
	var md bytes.Buffer
	if err := WriteMarkdown(&md, rep); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !strings.Contains(md.String(), r.Scenario) {
			t.Errorf("markdown missing scenario %s", r.Scenario)
		}
	}
	if _, err := ReadJSON(strings.NewReader(`{"schema":"other/v9"}`)); err == nil {
		t.Error("foreign schema accepted")
	}
}

// TestReadJSONRejects: ReadJSON accepts one self-consistent report (plus
// trailing whitespace) and rejects everything a diff could misread.
func TestReadJSONRejects(t *testing.T) {
	good := BuildReport("test", true, []Result{
		{Scenario: "a", Rounds: 10, OK: true, Phases: []PhaseStat{{Phase: "cutter", Rounds: 4}, {Phase: "merge", Rounds: 6}}},
		{Scenario: "b", Rounds: 20, Err: "boom"},
	})
	encode := func(edit func(*Report)) string {
		rep := good
		rep.Results = append([]Result(nil), good.Results...)
		edit(&rep)
		var buf bytes.Buffer
		if err := WriteJSON(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	valid := encode(func(*Report) {})
	if _, err := ReadJSON(strings.NewReader(valid + " \n\t")); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	for _, c := range []struct{ name, in, want string }{
		{"trailing garbage", valid + "xyz", "trailing data"},
		{"second report", valid + valid, "trailing data"},
		{"duplicate scenario", encode(func(r *Report) { r.Results[1].Scenario = "a" }), `scenario "a" listed twice`},
		{"scenarios count", encode(func(r *Report) { r.Scenarios = 3 }), "scenarios is 3 but 2 results"},
		{"failures count", encode(func(r *Report) { r.Failures = 0 }), "failures is 0 but 1 results fail"},
		{"negative count", encode(func(r *Report) { r.Results[1].MaxAwake = -1 }), `scenario "b" has a negative count`},
		{"duplicate phase", encode(func(r *Report) {
			r.Results[0].Phases = []PhaseStat{{Phase: "cutter", Rounds: 4}, {Phase: "cutter", Rounds: 6}}
		}), `lists phase "cutter" twice`},
		{"negative phase", encode(func(r *Report) {
			r.Results[0].Phases = []PhaseStat{{Phase: "cutter", Rounds: -4}}
		}), `phase "cutter" has a negative count`},
	} {
		_, err := ReadJSON(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.want)
		}
	}
}

// TestEnvelopesHold: the calibrated envelopes are the regression baseline —
// every quick scenario must sit inside its predicted bounds.
func TestEnvelopesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	results, err := Run(context.Background(), Default(true).mustAll(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.OK {
			t.Errorf("%s failed: %s", r.Scenario, r.Err)
			continue
		}
		if e := r.Envelope.Rounds; e > 0 && r.Rounds > e {
			t.Errorf("%s: rounds %d exceed envelope %d", r.Scenario, r.Rounds, e)
		}
		if e := r.Envelope.Congestion; e > 0 && r.MaxEdgeMessages > e {
			t.Errorf("%s: congestion %d exceeds envelope %d", r.Scenario, r.MaxEdgeMessages, e)
		}
		if e := r.Envelope.MaxAwake; e > 0 && r.MaxAwake > e {
			t.Errorf("%s: awake %d exceeds envelope %d", r.Scenario, r.MaxAwake, e)
		}
	}
}

func (r *Registry) mustAll() []Scenario {
	s, err := r.Select(nil)
	if err != nil {
		panic(err)
	}
	return s
}

// TestAPSPInnerPoolDeterministic: the APSP scenario with an inner worker
// pool (the same pool machinery that parallelizes dsssp.APSP) must agree
// with the sequential execution bit for bit.
func TestAPSPInnerPoolDeterministic(t *testing.T) {
	base := Scenario{
		Name: "apsp-inner", Family: graph.FamilyRandom, N: 16,
		Weights: WeightSpec{Kind: WeightUniform, MaxW: 16},
		Model:   ModelCongest, Alg: AlgAPSP, Seed: 42,
	}
	seqS := base
	seqS.Workers = 1
	parS := base
	parS.Workers = 8
	seq := Execute(seqS)
	par := Execute(parS)
	if seq.Err != "" || par.Err != "" {
		t.Fatalf("errors: %q %q", seq.Err, par.Err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("inner pool changed the result:\nseq: %+v\npar: %+v", seq, par)
	}
}
