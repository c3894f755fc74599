package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dsssp"
	"dsssp/bench/internal/inputs"
	"dsssp/bench/internal/stats"
	"dsssp/internal/graph"
)

// sim-congest is ROADMAP's reference point: the CONGEST-model SSSP on
// random n=256, engine-bound (coroutine switches and forest.Build).
func runSimCongest(cfg config) (*result, error) {
	return runSim(cfg, simCase(cfg.workload, cfg.smoke))
}

// sim-sleeping drives the same engine awake-sparse: SleepUntil, the
// far-future wake heap, and energybfs/decomp instead of the cutter.
func runSimSleeping(cfg config) (*result, error) {
	return runSim(cfg, simCase(cfg.workload, cfg.smoke))
}

// simInput is a simulator workload's model and graph size.
type simInput struct {
	model dsssp.Model
	n     int
	maxW  int64
}

func simCase(workload string, smoke bool) simInput {
	sz := inputs.For(smoke)
	if workload == "sim-sleeping" {
		return simInput{dsssp.ModelSleeping, sz.SleepingN, sz.SleepingMaxW}
	}
	return simInput{dsssp.ModelCongest, sz.CongestN, int64(sz.CongestN)}
}

func (in simInput) options() *dsssp.Options {
	return &dsssp.Options{Model: in.model, IntraWorkers: 1}
}

// simSetup is what a library caller waits for before its first answer:
// building the graph and the first simulation, cold. It returns the graph,
// that time, and an error when the answer is wrong.
func simSetup(in simInput, src graph.NodeID) (*graph.Graph, time.Duration, error) {
	t0 := time.Now()
	g := inputs.SimGraph(in.n, in.maxW)
	out, err := dsssp.SSSP(g, src, in.options())
	d := time.Since(t0)
	if err == nil {
		err = checkDist(out.Dist, graph.Dijkstra(g, src))
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%s SSSP from %d: %w", in.model, src, err)
	}
	return g, d, nil
}

// setupChildEnv, when set to "<workload> <seed> <smoke>", makes the
// benchmark process run only a simulator workload's set-up, print its
// time as JSON and exit: the two extra set-up samples of a sim run each
// need a process that has done nothing else.
const setupChildEnv = "DSSSP_BENCH_SETUP_CHILD"

// setupChild is the process setupChildEnv asks for; it returns the exit
// code.
func setupChild(spec string) int {
	var workload string
	var seed int64
	var smoke bool
	if _, err := fmt.Sscan(spec, &workload, &seed, &smoke); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s=%q: %v\n", setupChildEnv, spec, err)
		return 2
	}
	in := simCase(workload, smoke)
	_, d, err := simSetup(in, inputs.SimSources(in.n, seed)[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: wrong output:", err)
		return 1
	}
	fmt.Printf("{\"seconds\":%s}\n", strconv.FormatFloat(d.Seconds(), 'g', -1, 64))
	return 0
}

// childSetup runs one set-up in a fresh copy of this executable.
func childSetup(cfg config) (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d %t", setupChildEnv, cfg.workload, cfg.seed, cfg.smoke))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	var r struct{ Seconds float64 }
	if err := json.Unmarshal(lastLine(out), &r); err != nil {
		return 0, fmt.Errorf("set-up child: %w: %q", err, strings.TrimSpace(string(out)))
	}
	return time.Duration(r.Seconds * float64(time.Second)), nil
}

// simSetupReps is how many set-ups a sim run times: its own and, past the
// first, one per child process.
const simSetupReps = 3

func runSim(cfg config, in simInput) (*result, error) {
	res := newResult()
	sources := inputs.SimSources(in.n, cfg.seed)
	hs := newHostSpeed()

	// The run's own set-up comes first, before the process has simulated
	// anything; it also warms the heap for the timed simulations.
	hs.mark()
	g, d, err := simSetup(in, sources[0])
	if err != nil {
		return nil, err
	}
	res.tally.ok()
	setups := []time.Duration{d}
	for len(setups) < simSetupReps {
		hs.mark()
		d, err := childSetup(cfg)
		if err != nil {
			return nil, err
		}
		res.tally.ok()
		setups = append(setups, d)
	}
	hs.mark()
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = hs.ms(i, d) / 1000
	}

	rss := sampleRSS("self")
	refs := make(map[graph.NodeID][]int64)
	opts := in.options()
	var lats []float64 // ms on the reference host
	var cpuMs float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		src := sources[i%in.n]
		slice := hs.next()
		c0, t0 := selfCPU(), time.Now()
		out, err := dsssp.SSSP(g, src, opts)
		lat := time.Since(t0)
		cpu := selfCPU() - c0
		hs.mark()
		if err != nil {
			res.tally.fail("%s SSSP from %d: %v", in.model, src, err)
			continue
		}
		if refs[src] == nil {
			refs[src] = graph.Dijkstra(g, src)
		}
		if err := checkDist(out.Dist, refs[src]); err != nil {
			res.tally.fail("%s SSSP from %d: %v", in.model, src, err)
			continue
		}
		res.tally.ok()
		lats = append(lats, hs.ms(slice, lat))
		cpuMs += hs.ms(slice, cpu)
	}
	mem, err := rss.median()
	if err != nil {
		return nil, err
	}
	if len(lats) == 0 {
		return nil, fmt.Errorf("every simulation failed: %s", res.tally.firstErr)
	}
	var total float64
	for _, ms := range lats {
		total += ms
	}
	res.metrics["setup_s"] = stats.Median(setupS)
	res.metrics["op_p50_ms"] = stats.Median(lats)
	res.metrics["ops_per_s"] = float64(len(lats)) / (total / 1000)
	res.metrics["cpu_ms_per_op"] = cpuMs / float64(len(lats))
	res.metrics["rss_mb"] = mem
	res.addInfo("op_p90_ms", stats.Quantile(lats, 0.9), "ms")
	res.addInfo("op_samples", float64(len(lats)), "count")
	res.addInfo("host_slowdown", hs.slowdown(), "ratio")
	return res, nil
}
