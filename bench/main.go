// Command bench is the repository's benchmark: four workloads — two run
// the simulator as a library (sim-congest, sim-sleeping), two drive the
// shipped dsssp-serve over HTTP (serve-hot, serve-dynamic) — that verify
// every answer and print the metrics named in BENCHMARK.json at the
// repository root. End-to-end times are scaled to the reference host's
// speed (hostspeed.go).
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload sim-congest --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --seed 1                      # all four workloads
//	bash bench/run.sh --seed 1 --trace 1            # the per-layer pass
//	bash bench/run.sh --repeat 5 --trace 1 --out a.json --against b.json
//
// A single workload prints `workload metric value unit` lines and, as its
// last line, one JSON object {"correct","attempted","failed","metrics"}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Without --workload (or with --repeat/--out/--against) the
// command re-executes itself once per workload, so every workload starts
// in a fresh process with its own heap, and reports medians and quartiles.
// See bench/README.md for the catalogue of workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"

	"dsssp/bench/internal/stats"
)

// config is what one workload run needs.
type config struct {
	workload string
	seed     int64
	seconds  float64
	smoke    bool
	root     string // repository root (holds BENCHMARK.json and cmd/)
	work     string // per-process scratch directory under .bench_build
	build    string // .bench_build: binaries, scratch, span files
	spans    string // where traced runs write span JSONL
}

// result is one workload run: named metric values plus the verification
// tally. info lines are printed but not part of BENCHMARK.json.
type result struct {
	metrics map[string]float64
	info    []infoLine
	tally   *tally
}

type infoLine struct {
	name  string
	value float64
	unit  string
}

func newResult() *result {
	return &result{metrics: make(map[string]float64), tally: &tally{}}
}

func (r *result) addInfo(name string, value float64, unit string) {
	r.info = append(r.info, infoLine{name, value, unit})
}

// workloads maps each BENCHMARK.json workload to its runner.
var workloads = map[string]func(config) (*result, error){
	"sim-congest":   runSimCongest,
	"sim-sleeping":  runSimSleeping,
	"serve-hot":     runServeHot,
	"serve-dynamic": runServeDynamic,
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func (s *spec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			return nil, fmt.Errorf("BENCHMARK.json names workload %q, which the benchmark does not implement", w.Name)
		}
	}
	return &s, nil
}

// findRoot locates the repository root from the working directory: the
// root itself (bench/run.sh) or bench/ (go run .).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if fileExists(filepath.Join(dir, "BENCHMARK.json")) && fileExists(filepath.Join(dir, "cmd", "dsssp-serve")) {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repository root: BENCHMARK.json and cmd/dsssp-serve not found")
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

func main() {
	if spec := os.Getenv(setupChildEnv); spec != "" {
		os.Exit(setupChild(spec))
	}
	var (
		workload = flag.String("workload", "", "run one workload (default: all, each in a child process)")
		seed     = flag.Int64("seed", 1, "seed every graph, source, query mix and PATCH is derived from")
		seconds  = flag.Float64("seconds", 0, "measured seconds per workload (default: run_seconds from BENCHMARK.json)")
		traceFl  = flag.Int("trace", 0, "0: end-to-end metrics; 1: the per-layer pass")
		smoke    = flag.Bool("smoke", false, "tiny inputs and one-second runs")
		repeat   = flag.Int("repeat", 1, "run every workload this many interleaved rounds (seed, seed+1, …) and report medians and quartiles")
		out      = flag.String("out", "", "write the aggregated results as JSON to this file")
		against  = flag.String("against", "", "compare end-to-end medians with this results file and exit 1 past any BENCHMARK.json bound")
	)
	flag.Parse()
	if *traceFl != 0 && *traceFl != 1 {
		die(fmt.Errorf("-trace must be 0 or 1, got %d", *traceFl))
	}
	root, err := findRoot()
	if err != nil {
		die(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		die(err)
	}
	secs := *seconds
	switch {
	case secs > 0:
	case *smoke:
		secs = 1
	default:
		secs = float64(sp.RunSeconds)
	}

	if *workload == "" || *repeat > 1 || *out != "" || *against != "" {
		os.Exit(orchestrate(sp, root, *workload, *seed, secs, *smoke, *traceFl == 1, *repeat, *out, *against))
	}
	run := workloads[*workload]
	if run == nil {
		die(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(sp.workloadNames(), ", ")))
	}
	build := filepath.Join(root, ".bench_build")
	work := filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		die(err)
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: secs, smoke: *smoke,
		root: root, work: work, build: build, spans: filepath.Join(build, "spans"),
	}
	var res *result
	want := sp.EndToEnd
	if *traceFl == 1 {
		res, err = runTraced(cfg)
		want = sp.PerLayer
	} else {
		res, err = run(cfg)
	}
	os.RemoveAll(work)
	if err != nil {
		die(fmt.Errorf("%s: %w", *workload, err))
	}
	code, err := report(os.Stdout, *workload, res, want)
	if err != nil {
		die(fmt.Errorf("%s: %w", *workload, err))
	}
	os.Exit(code)
}

// resultLine is the last line of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable lines and the result line, and returns
// the exit code. Every metric in want must have been measured and none
// outside it — the spec and the benchmark cannot drift apart silently.
func report(w io.Writer, workload string, res *result, want []metricSpec) (int, error) {
	line := resultLine{
		Attempted: res.tally.attempted,
		Failed:    res.tally.failed,
		Correct:   res.tally.failed == 0 && res.tally.attempted > 0,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	known := make(map[string]bool, len(want))
	for _, m := range want {
		known[m.Name] = true
		v, ok := res.metrics[m.Name]
		if !ok {
			return 1, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 1, fmt.Errorf("metric %s = %v", m.Name, v)
		}
		line.Metrics[m.Name] = metricValue{v, m.Unit}
		fmt.Fprintf(w, "%s %s %s %s\n", workload, m.Name, formatValue(v), m.Unit)
	}
	for name := range res.metrics {
		if !known[name] {
			return 1, fmt.Errorf("metric %s is measured but not listed in BENCHMARK.json", name)
		}
	}
	for _, in := range res.info {
		fmt.Fprintf(w, "%s %s %s %s\n", workload, in.name, formatValue(in.value), in.unit)
	}
	fmt.Fprintf(w, "%s error_rate %s ratio\n", workload, formatValue(res.tally.errorRate()))
	if res.tally.firstErr != "" {
		fmt.Fprintf(w, "%s first_error %q\n", workload, res.tally.firstErr)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "%s\n", b)
	return res.tally.exitCode(), nil
}

func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// --- orchestration: every workload in a child process, repeated ---

// aggregate is the results file written by -out and read by -against.
type aggregate struct {
	NProc     int                                  `json:"nproc"`
	GoVersion string                               `json:"go_version"`
	Seed      int64                                `json:"seed"`
	Repeat    int                                  `json:"repeat"`
	Seconds   float64                              `json:"seconds"`
	EndToEnd  map[string]map[string]*aggregateStat `json:"end_to_end"`
	PerLayer  map[string]metricValue               `json:"per_layer,omitempty"`
}

type aggregateStat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
	Values []float64 `json:"values"`
}

func orchestrate(sp *spec, root, only string, seed int64, secs float64, smoke, traced bool, repeat int, outPath, againstPath string) int {
	names := sp.workloadNames()
	if only != "" {
		if workloads[only] == nil {
			die(fmt.Errorf("unknown workload %q", only))
		}
		names = []string{only}
	}
	if repeat < 1 {
		repeat = 1
	}
	self, err := os.Executable()
	if err != nil {
		die(err)
	}
	agg := &aggregate{
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Seed: seed, Repeat: repeat, Seconds: secs,
		EndToEnd: make(map[string]map[string]*aggregateStat),
	}
	code := 0
	for round := 0; round < repeat; round++ {
		// Rotate the order every round so no workload always runs first
		// on a cold machine.
		for k := range names {
			name := names[(k+round)%len(names)]
			line, err := runChild(self, root, name, seed+int64(round), secs, smoke, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s round %d: %v\n", name, round, err)
				code = 1
				continue
			}
			if !line.Correct {
				code = 1
			}
			if agg.EndToEnd[name] == nil {
				agg.EndToEnd[name] = make(map[string]*aggregateStat)
			}
			for m, v := range line.Metrics {
				st := agg.EndToEnd[name][m]
				if st == nil {
					st = &aggregateStat{Unit: v.Unit}
					agg.EndToEnd[name][m] = st
				}
				st.Values = append(st.Values, v.Value)
			}
		}
	}
	for _, name := range names {
		for _, m := range sp.EndToEnd {
			st := agg.EndToEnd[name][m.Name]
			if st == nil {
				continue
			}
			st.Q1, st.Median, st.Q3 = stats.Quartiles(st.Values)
			st.Spread = (st.Q3 - st.Q1) / st.Median
			fmt.Printf("%s %s %s %s q1=%s q3=%s spread=%.3f bound=%.2f n=%d\n", name, m.Name,
				formatValue(st.Median), m.Unit, formatValue(st.Q1), formatValue(st.Q3), st.Spread, m.Bound, len(st.Values))
		}
	}
	if traced {
		line, err := runChild(self, root, names[0], seed, secs, smoke, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: per-layer pass: %v\n", err)
			code = 1
		} else {
			agg.PerLayer = line.Metrics
			if !line.Correct {
				code = 1
			}
			keys := make([]string, 0, len(line.Metrics))
			for k := range line.Metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Printf("layers %s %s %s\n", k, formatValue(line.Metrics[k].Value), line.Metrics[k].Unit)
			}
		}
	}
	if outPath != "" {
		b, err := json.MarshalIndent(agg, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", outPath, err)
			code = 1
		}
	}
	if againstPath != "" {
		prev, err := readAggregate(againstPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		if !compare(os.Stdout, sp, prev, agg) {
			code = 1
		}
	}
	return code
}

// runChild re-executes the benchmark for one workload and parses its
// result line; the child's stderr passes through.
func runChild(self, root, workload string, seed int64, secs float64, smoke, traced bool) (*resultLine, error) {
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(secs)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	last := lastLine(stdout.Bytes())
	var line resultLine
	if err := json.Unmarshal(last, &line); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &line, nil
}

// lastLine is the last non-empty line of a process's output.
func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

func readAggregate(path string) (*aggregate, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a aggregate
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &a, nil
}

// compare checks every end-to-end median of cur against prev: a metric
// regresses when it is worse by more than its BENCHMARK.json bound (a
// share of prev's median). When either side's spread is wider than the
// bound the gate cannot tell a change from noise, and the row reads
// "unresolved" — unless every run of cur is better than every run of
// prev. It prints one row per workload × metric and reports whether no
// row regressed.
func compare(w io.Writer, sp *spec, prev, cur *aggregate) bool {
	ok := true
	for _, name := range sp.workloadNames() {
		for _, m := range sp.EndToEnd {
			p, c := prev.EndToEnd[name][m.Name], cur.EndToEnd[name][m.Name]
			if p == nil || c == nil {
				continue
			}
			change := (c.Median - p.Median) / p.Median
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			var verdict string
			switch {
			case allBetter(m, p.Values, c.Values):
				verdict = "ok, every run better"
			case p.Spread > m.Bound || c.Spread > m.Bound:
				verdict = "unresolved, spread above bound"
			case worse > m.Bound:
				verdict = "REGRESSION"
				ok = false
			default:
				verdict = "ok"
			}
			fmt.Fprintf(w, "against %s %s %s -> %s %+.1f%% spread %.3f/%.3f bound %.0f%% %s\n", name, m.Name,
				formatValue(p.Median), formatValue(c.Median), 100*change, p.Spread, c.Spread, 100*m.Bound, verdict)
		}
	}
	return ok
}

// allBetter reports whether every value of cur is better than every value
// of prev.
func allBetter(m metricSpec, prev, cur []float64) bool {
	if len(prev) == 0 || len(cur) == 0 {
		return false
	}
	pLo, pHi := slices.Min(prev), slices.Max(prev)
	if m.Better == "higher" {
		return slices.Min(cur) > pHi
	}
	return slices.Max(cur) < pLo
}
