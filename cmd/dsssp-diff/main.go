// Command dsssp-diff is the regression gate over dsssp-bench JSON reports:
// it aligns the scenarios of two (or a chain of) BENCH_*.json artifacts by
// name, prints a delta table of rounds / per-edge congestion / awake rounds
// / message bits and their measured/envelope ratios, and exits nonzero
// when any scenario regresses beyond the configured thresholds — so CI can
// compare a fresh sweep against a checked-in baseline and block the merge.
// The per-phase round breakdowns gate individually too (-phase-threshold):
// a slowdown localized in one pipeline stage blocks even when the scenario
// total stays inside -threshold.
//
// Usage:
//
//	dsssp-diff old.json new.json                  # delta table, gate at +10%
//	dsssp-diff -threshold 0.05 old.json new.json  # tighter ratio gate
//	dsssp-diff -all old.json new.json             # include unchanged rows
//	dsssp-diff -json - old.json new.json          # machine-readable diff
//	dsssp-diff a.json b.json c.json               # chain: a→b, then b→c
//	dsssp-diff -trend trend.md a.json b.json c.json  # + ratio time series
//
// A chain writes one labeled markdown section per pair; -json emits a
// single Diff object for one pair and a JSON array for a chain. -trend
// renders the whole chain as one history-aware table — per-scenario and
// per-phase measured/envelope ratio series with end-to-end drift.
//
// Exit status: 0 when every comparison passes, 1 on a regression, 2 on a
// usage or input error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dsssp/internal/benchdiff"
	"dsssp/internal/harness"
)

func main() {
	var (
		threshold     = flag.Float64("threshold", 0.10, "max tolerated relative worsening of any envelope ratio (negative disables)")
		phaseWorsen   = flag.Float64("phase-threshold", 0.25, "max tolerated relative worsening of any per-phase rounds/envelope ratio (negative disables)")
		phaseMinDelta = flag.Int64("phase-min-delta", 16, "minimum absolute per-phase rounds movement before -phase-threshold gates")
		allowFail     = flag.Bool("allow-new-failures", false, "do not gate on scenarios that newly fail verification")
		failRemoved   = flag.Bool("fail-removed", false, "treat scenarios missing from the newer report as regressions")
		showAll       = flag.Bool("all", false, "list unchanged scenarios too")
		jsonOut       = flag.String("json", "", "write the machine-readable diff to this file ('-' for stdout)")
		mdOut         = flag.String("markdown", "-", "write the delta table to this file ('-' for stdout, '' to suppress)")
		trendOut      = flag.String("trend", "", "write the chain's trend table (ratio time series over all reports) to this file ('-' for stdout)")
		quiet         = flag.Bool("q", false, "suppress the delta table (same as -markdown '')")
	)
	flag.Parse()
	// When stdout carries the machine-readable diff, drop the *default*
	// markdown-to-stdout target so the stream stays parseable; an explicit
	// `-markdown -` still wins (the user asked for both).
	if *jsonOut == "-" {
		mdExplicit := false
		flag.Visit(func(f *flag.Flag) { mdExplicit = mdExplicit || f.Name == "markdown" })
		if !mdExplicit {
			*mdOut = ""
		}
	}
	paths := flag.Args()
	if len(paths) < 2 {
		fmt.Fprintln(os.Stderr, "dsssp-diff: need at least two report files (old.json new.json ...)")
		flag.Usage()
		os.Exit(2)
	}

	th := benchdiff.Thresholds{
		EnvelopeWorsen:   *threshold,
		PhaseWorsen:      *phaseWorsen,
		PhaseMinDelta:    *phaseMinDelta,
		AllowNewFailures: *allowFail,
		FailOnRemoved:    *failRemoved,
	}

	reports := make([]harness.Report, len(paths))
	for i, p := range paths {
		rep, err := readReport(p)
		if err != nil {
			die(2, err)
		}
		reports[i] = rep
	}

	// Compare every consecutive pair first, then write: a chained -json
	// target gets one valid document (an array), never concatenated
	// objects, and a chained -markdown target gets a labeled section per
	// pair.
	diffs := make([]benchdiff.Diff, 0, len(paths)-1)
	ok := true
	for i := 0; i+1 < len(paths); i++ {
		diff, err := benchdiff.Compare(reports[i], reports[i+1], th)
		if err != nil {
			die(2, fmt.Errorf("%s vs %s: %w", paths[i], paths[i+1], err))
		}
		diffs = append(diffs, diff)
		if !diff.OK {
			ok = false
		}
	}

	if !*quiet && *mdOut != "" {
		if err := writeTo(*mdOut, func(f *os.File) error {
			for i, diff := range diffs {
				if len(diffs) > 1 {
					fmt.Fprintf(f, "<!-- %s → %s -->\n", paths[i], paths[i+1])
				}
				if err := benchdiff.WriteMarkdown(f, diff, !*showAll); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			die(2, err)
		}
	}
	if *trendOut != "" {
		// The trend is the thin chaining view: the same reports, rendered
		// as ratio time series instead of pairwise deltas. Report paths
		// double as the column labels.
		trend, err := benchdiff.Chain(reports, paths, th)
		if err != nil {
			die(2, err)
		}
		if err := writeTo(*trendOut, func(f *os.File) error {
			return benchdiff.WriteTrendMarkdown(f, trend)
		}); err != nil {
			die(2, err)
		}
	}
	if *jsonOut != "" {
		if err := writeTo(*jsonOut, func(f *os.File) error {
			if len(diffs) == 1 {
				return benchdiff.WriteJSON(f, diffs[0])
			}
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(diffs)
		}); err != nil {
			die(2, err)
		}
	}
	for i, diff := range diffs {
		if !diff.OK {
			fmt.Fprintf(os.Stderr, "dsssp-diff: %d scenario(s) regressed between %s and %s\n",
				diff.Regressed, paths[i], paths[i+1])
		}
	}
	if !ok {
		os.Exit(1)
	}
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

func writeTo(path string, write func(*os.File) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func die(code int, err error) {
	fmt.Fprintln(os.Stderr, "dsssp-diff:", err)
	os.Exit(code)
}
