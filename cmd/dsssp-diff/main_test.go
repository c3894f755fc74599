package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsssp/internal/harness"
)

const baseline = "../../internal/benchdiff/testdata/BENCH_quick_baseline.json"

func runDiff(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// writeEdited writes a copy of the baseline with edit applied.
func writeEdited(t *testing.T, edit func(*harness.Report)) string {
	t.Helper()
	f, err := os.Open(baseline)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := harness.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	edit(&rep)
	var buf bytes.Buffer
	if err := harness.WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "edited.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSelfDiffPasses(t *testing.T) {
	code, out, errOut := runDiff(baseline, baseline)
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{"# Bench diff\n", " unchanged · 0 changed · 0 regressed · 0 added · 0 removed · 0 new failures\n", "Verdict: **PASS**\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}

// TestRegressionExits1 raises one scenario's rounds by 25%, which must trip
// the +10% envelope-ratio gate with the gate's usual row and reason text.
func TestRegressionExits1(t *testing.T) {
	var first harness.Result
	regressed := writeEdited(t, func(r *harness.Report) {
		first = r.Results[0]
		r.Results[0].Rounds += first.Rounds / 4
	})
	raised := first.Rounds + first.Rounds/4
	oldR := float64(first.Rounds) / float64(first.Envelope.Rounds)
	newR := float64(raised) / float64(first.Envelope.Rounds)
	code, out, errOut := runDiff(baseline, regressed)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	for _, want := range []string{
		fmt.Sprintf("| %s | ✗ regressed | %d → %d (+25.0%%) |", first.Scenario, first.Rounds, raised),
		fmt.Sprintf("- **%s**: rounds envelope ratio worsened %.3f → %.3f (%+.1f%%, threshold +10%%)\n",
			first.Scenario, oldR, newR, 100*(newR-oldR)/oldR),
		"Verdict: **FAIL**\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	if want := "dsssp-diff: 1 scenario(s) regressed between " + baseline + " and " + regressed + "\n"; errOut != want {
		t.Errorf("stderr = %q, want %q", errOut, want)
	}
}

func TestUsageAndInputErrorsExit2(t *testing.T) {
	full := writeEdited(t, func(r *harness.Report) { r.Quick = false })
	garbled := filepath.Join(t.TempDir(), "garbled.json")
	raw, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(garbled, append(raw, "xyz"...), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"no args", nil, "usage: dsssp-diff old.json new.json"},
		{"one arg", []string{baseline}, "usage:"},
		{"three args", []string{baseline, baseline, baseline}, "usage:"},
		{"a flag", []string{"-threshold", "0.10", baseline, baseline}, "usage:"},
		{"missing file", []string{baseline, "no-such-report.json"}, "no-such-report.json"},
		{"trailing data", []string{baseline, garbled}, "trailing data after the report"},
		{"quick vs full", []string{baseline, full}, "incomparable reports"},
	} {
		code, out, errOut := runDiff(c.args...)
		if code != 2 || out != "" || !strings.Contains(errOut, c.want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want 2, no stdout, stderr mentioning %q",
				c.name, code, out, errOut, c.want)
		}
	}
}
