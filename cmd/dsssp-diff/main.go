// Command dsssp-diff is the regression gate over dsssp-bench JSON reports:
// it aligns the scenarios of two BENCH_*.json reports by name and prints a
// markdown table of the scenarios that moved — rounds, per-edge
// congestion, awake rounds, message bits and their measured/envelope
// ratios. A scenario regresses when one of those ratios worsens by more
// than 10%, when one pipeline phase's share of the rounds envelope worsens
// by more than 25% with at least 16 rounds moved, when it newly fails
// verification, or when it is redefined under the same name. Scenarios
// missing from the newer report are listed but do not gate; reports of
// different suites (quick vs full) are refused.
//
// Usage:
//
//	dsssp-diff old.json new.json
//
// CI runs it against internal/benchdiff/testdata/BENCH_quick_baseline.json,
// which is regenerated in the same commit as any metric change, so the
// gate's history is that file's: git log -p on it.
//
// Exit status: 0 when the comparison passes, 1 on a regression, 2 on a
// usage or input error.
package main

import (
	"fmt"
	"io"
	"os"

	"dsssp/internal/benchdiff"
	"dsssp/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: dsssp-diff old.json new.json")
		return 2
	}
	var reports [2]harness.Report
	for i, path := range args {
		rep, err := readReport(path)
		if err != nil {
			fmt.Fprintln(stderr, "dsssp-diff:", err)
			return 2
		}
		reports[i] = rep
	}
	diff, err := benchdiff.Compare(reports[0], reports[1])
	if err != nil {
		fmt.Fprintf(stderr, "dsssp-diff: %s vs %s: %v\n", args[0], args[1], err)
		return 2
	}
	if err := benchdiff.WriteMarkdown(stdout, diff); err != nil {
		fmt.Fprintln(stderr, "dsssp-diff:", err)
		return 2
	}
	if !diff.OK {
		fmt.Fprintf(stderr, "dsssp-diff: %d scenario(s) regressed between %s and %s\n",
			diff.Regressed, args[0], args[1])
		return 1
	}
	return 0
}

func readReport(path string) (harness.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return harness.Report{}, err
	}
	defer f.Close()
	rep, err := harness.ReadJSON(f)
	if err != nil {
		return harness.Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
