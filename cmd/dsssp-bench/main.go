// Command dsssp-bench sweeps the scenario registry of internal/harness: it
// runs named graph workloads (family × weights × model × algorithm) over a
// parallel worker pool, verifies every distance vector against a sequential
// reference, and reports the measured rounds / per-edge congestion / awake
// rounds next to the paper's predicted polylog envelopes.
//
// The tables in EXPERIMENTS.md are generated by this command's -markdown
// flag; the -json reports (BENCH_*.json) are the machine-readable artifact
// CI diffs across PRs.
//
// Usage:
//
//	dsssp-bench                               # full suite, summary to stdout
//	dsssp-bench -quick                        # smoke-test sizes (CI)
//	dsssp-bench -list                         # print scenario names
//	dsssp-bench -scenarios 'congest-sssp/*'   # glob subset
//	dsssp-bench -parallel 4                   # bound the worker pool
//	dsssp-bench -quick -json BENCH_quick.json # machine-readable report
//	dsssp-bench -markdown EXPERIMENTS.md      # regenerate the tables
//	dsssp-bench -breakdown BREAKDOWN.md       # per-phase round breakdowns
//	dsssp-bench -quick -cpuprofile cpu.pprof  # profile a sweep's hot spots
//	dsssp-bench -quick -memprofile mem.pprof  # heap profile on exit
//
// Reports are deterministic, so cmd/dsssp-diff can gate regressions by
// comparing two of them (CI diffs each PR's quick report against the
// checked-in baseline under internal/benchdiff/testdata). Reports carry no
// wall times: those are the benchmark's (bench/). -quick prints the
// sweep's total wall time and scenarios/sec to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"dsssp/internal/harness"
)

func main() {
	var (
		scenarios  = flag.String("scenarios", "all", "comma-separated scenario names or globs (see -list)")
		parallel   = flag.Int("parallel", 0, "worker pool size (0 = NumCPU)")
		quick      = flag.Bool("quick", false, "smaller sizes (used for smoke tests)")
		jsonOut    = flag.String("json", "", "write the JSON report to this file ('-' for stdout)")
		mdOut      = flag.String("markdown", "", "write the markdown tables to this file ('-' for stdout)")
		breakdown  = flag.String("breakdown", "", "write the per-phase round breakdown markdown to this file ('-' for stdout)")
		list       = flag.Bool("list", false, "list scenario names and exit")
		quiet      = flag.Bool("q", false, "suppress the per-scenario summary")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file (chase phase hot spots found in -breakdown)")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile on exit to this file (pairs with -cpuprofile; chase allocation hot spots)")
	)
	flag.Parse()

	reg := harness.Default(*quick)
	if *list {
		for _, name := range reg.Names() {
			s, _ := reg.Get(name)
			fmt.Printf("%-44s %s\n", name, s.Description)
		}
		return
	}

	scns, err := selectScenarios(reg, *scenarios)
	if err != nil {
		die(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opt := harness.RunOptions{Parallel: *parallel}
	if !*quiet {
		opt.Progress = func(done, total int, r harness.Result) {
			status := "ok"
			if !r.OK {
				status = "FAIL " + r.Err
			}
			fmt.Fprintf(os.Stderr, "[%3d/%3d] %-44s %s\n", done, total, r.Scenario, status)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			die(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			die(err)
		}
		// die exits through os.Exit, which skips defers — route the flush
		// through the cleanup hooks so an interrupted or failed sweep still
		// leaves a parseable profile.
		defer onExit(func() {
			pprof.StopCPUProfile()
			f.Close()
		})()
	}
	if *memprofile != "" {
		// Written at exit (even a die exit), so the profile reflects what
		// the sweep left behind, after a GC pass settles live objects.
		path := *memprofile
		defer onExit(func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dsssp-bench: -memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "dsssp-bench: -memprofile:", err)
			}
			f.Close()
		})()
	}
	sweepStart := time.Now()
	results, err := harness.Run(ctx, scns, opt)
	if err != nil {
		die(err)
	}
	elapsed := time.Since(sweepStart)
	if *quick {
		// Local quick runs are how speedups get eyeballed; surface the
		// sweep's wall time without making anyone open the JSON.
		fmt.Fprintf(os.Stderr, "quick sweep: %d scenarios in %s (%.1f scenarios/sec)\n",
			len(results), elapsed.Round(time.Millisecond), float64(len(results))/elapsed.Seconds())
	}
	rep := harness.BuildReport("default", *quick, results)

	if *jsonOut != "" {
		if err := writeTo(*jsonOut, func(f *os.File) error { return harness.WriteJSON(f, rep) }); err != nil {
			die(err)
		}
	}
	if *mdOut != "" {
		if err := writeTo(*mdOut, func(f *os.File) error { return harness.WriteMarkdown(f, rep) }); err != nil {
			die(err)
		}
	}
	if *breakdown != "" {
		if err := writeTo(*breakdown, func(f *os.File) error { return harness.WriteBreakdownMarkdown(f, rep) }); err != nil {
			die(err)
		}
	}
	// The summary goes to stdout unless -q, or unless stdout is already
	// carrying a machine-readable report.
	if !*quiet && *jsonOut != "-" && *mdOut != "-" && *breakdown != "-" {
		if err := harness.WriteSummary(os.Stdout, rep); err != nil {
			die(err)
		}
	}
	if rep.Failures > 0 {
		die(fmt.Errorf("%d of %d scenarios failed verification", rep.Failures, rep.Scenarios))
	}
}

// selectScenarios resolves the -scenarios filter, a comma-separated list
// of names or globs, against reg. A filter that is blank or selects
// nothing is an error: an empty sweep would emit an empty report that
// reads as success — the classic way a mistyped shell variable silently
// disables a CI gate.
func selectScenarios(reg *harness.Registry, filter string) ([]harness.Scenario, error) {
	var patterns []string
	for _, p := range strings.Split(filter, ",") {
		if p = strings.TrimSpace(p); p != "" {
			patterns = append(patterns, p)
		}
	}
	if len(patterns) == 0 {
		return nil, fmt.Errorf("empty -scenarios filter: use 'all' (the default) or name scenarios/globs (see -list)")
	}
	scns, err := reg.Select(patterns)
	if err != nil {
		return nil, err
	}
	if len(scns) == 0 {
		return nil, fmt.Errorf("-scenarios %q selected nothing", filter)
	}
	return scns, nil
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

// cleanups run before a die exit (os.Exit skips defers); used to flush
// the CPU and heap profiles when a sweep fails or is interrupted.
var cleanups []func()

// onExit registers fn for the die path and returns it (wrapped in a Once
// so defer + die cannot run it twice) for the normal-return path.
func onExit(fn func()) func() {
	var once sync.Once
	wrapped := func() { once.Do(fn) }
	cleanups = append(cleanups, wrapped)
	return wrapped
}

func die(err error) {
	for _, fn := range cleanups {
		fn()
	}
	fmt.Fprintln(os.Stderr, "dsssp-bench:", err)
	os.Exit(1)
}
