package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"dsssp/bench/internal/stats"
)

// buildServer compiles the shipped daemon, cmd/dsssp-serve, from the
// checkout's source into the benchmark's build directory.
func buildServer(cfg config) (string, error) {
	out := filepath.Join(cfg.build, "bin", "dsssp-serve")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/dsssp-serve")
	cmd.Dir = cfg.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/dsssp-serve: %w", err)
	}
	return out, nil
}

// server is one dsssp-serve subprocess.
type server struct {
	cmd     *exec.Cmd
	url     string // API base URL
	debug   string // debug-listener base URL, "" unless requested
	logs    *tailBuffer
	exited  chan struct{}
	waitErr error
}

// startServer launches the daemon on a free loopback port with the given
// extra flags and returns once /healthz answers. With debug set it also
// opens the private debug listener (flight recorder, pprof).
func startServer(bin string, cfg config, debug bool, flags ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", "127.0.0.1:" + port,
		"-history", filepath.Join(cfg.work, "history"),
		"-rev", "bench",
	}
	s := &server{url: "http://127.0.0.1:" + port, logs: &tailBuffer{max: 64 << 10}, exited: make(chan struct{})}
	if debug {
		dport, err := freePort()
		if err != nil {
			return nil, err
		}
		args = append(args, "-debug-addr", "127.0.0.1:"+dport)
		s.debug = "http://127.0.0.1:" + dport
	}
	s.cmd = exec.Command(bin, append(args, flags...)...)
	s.cmd.Dir = cfg.work
	s.cmd.Stdout, s.cmd.Stderr = s.logs, s.logs
	// If the benchmark dies, the daemon must not outlive it. Linux sends
	// the signal when the forking OS thread exits, which Go does only for a
	// goroutine that exits while locked to its thread: nothing in the
	// benchmark may call runtime.LockOSThread.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{Proxy: nil}}
	defer probe.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("dsssp-serve exited during start-up (%v):\n%s", s.waitErr, s.logs)
		default:
		}
		if resp, err := probe.Get(s.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && (!debug || s.debugUp(probe)) {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("dsssp-serve not healthy after 60 s:\n%s", s.logs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// boot starts the daemon reps times (once with -smoke), each start
// followed by warm when it is set; start plus warm-up is the workload's
// set-up, timed per boot in seconds on the reference host. Every daemon
// but the last is stopped; the last is returned running.
func boot(cfg config, hs *hostSpeed, bin string, debug bool, reps int, flags []string, warm func(*server) error) (*server, []float64, error) {
	if cfg.smoke {
		reps = 1
	}
	var (
		srv   *server
		ds    []time.Duration
		slice []int
	)
	for rep := 1; rep <= reps; rep++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, nil, err
			}
		}
		hs.mark()
		slice = append(slice, hs.next())
		t0 := time.Now()
		var err error
		if srv, err = startServer(bin, cfg, debug, flags...); err != nil {
			return nil, nil, err
		}
		if warm != nil {
			err = warm(srv)
		}
		ds = append(ds, time.Since(t0))
		if err != nil {
			srv.stop()
			return nil, nil, err
		}
	}
	hs.mark()
	setups := make([]float64, len(ds))
	for k, d := range ds {
		setups[k] = hs.ms(slice[k], d) / 1000
	}
	return srv, setups, nil
}

func (s *server) debugUp(c *http.Client) bool {
	resp, err := c.Get(s.debug + "/debug/traces?limit=1")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// cpu is the daemon's CPU time so far.
func (s *server) cpu() (time.Duration, error) { return procCPU(s.pid()) }

// stop sends SIGTERM — the daemon drains, flushes its registry and exits
// 0 — and waits for the process, killing it if it hangs.
func (s *server) stop() error {
	select {
	case <-s.exited:
		return s.waitErr
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("dsssp-serve ignored SIGTERM for 30 s")
	}
	if s.waitErr != nil {
		return fmt.Errorf("dsssp-serve: %v:\n%s", s.waitErr, s.logs)
	}
	return nil
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return fmt.Sprint(l.Addr().(*net.TCPAddr).Port), nil
}

// tailBuffer keeps the last max bytes written to it: the daemon's log,
// shown when it fails.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// clients is the closed-loop client count: one per CPU, so the load never
// asks for more parallelism than the machine has.
func clients() int { return runtime.NumCPU() }

// newClient returns a keep-alive HTTP client for conns concurrent callers.
// Proxy is nil: the benchmark only ever talks to loopback.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			Proxy:               nil,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// call sends one request and reads the whole response body into buf.
// A non-200 status is an error carrying the body.
func call(c *http.Client, method, url string, body []byte, buf *bytes.Buffer) (http.Header, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.Header, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return resp.Header, nil
}

// servePass is one timed pass of a serve workload against a running
// daemon, which the caller stops. The timed part is cut into slices of
// about a second with the host's speed marked between them; the daemon is
// idle while the mark is taken.
type servePass struct {
	srv    *server
	hs     *hostSpeed
	setups []float64 // seconds per boot (+ warm-up), on the reference host
	slices []serveSlice
	rss    float64 // daemon's median resident set over the timed part
}

// serveSlice is what one slice of the timed part measured, in wall time.
type serveSlice struct {
	index     int             // the slice's index in hostSpeed
	lats      []time.Duration // query latencies
	sssp      []time.Duration // the /v1/sssp subset of lats
	patchLats []time.Duration
	ops       int // queries and PATCHes completed
	wall, cpu time.Duration
}

// sliceCount is how many slices a timed part of the given length is cut
// into: about one per second.
func sliceCount(seconds float64) int { return max(1, int(math.Round(seconds))) }

// timeSlices runs body once per slice, taking the daemon's CPU time
// around it and a host-speed mark after it, then samples the daemon's
// resident set over the whole timed part.
func (p *servePass) timeSlices(seconds float64, body func(s *serveSlice, until time.Time) error) error {
	n := sliceCount(seconds)
	dur := time.Duration(seconds * float64(time.Second) / float64(n))
	rss := sampleRSS(fmt.Sprint(p.srv.pid()))
	for range n {
		s := serveSlice{index: p.hs.next()}
		cpu0, err := p.srv.cpu()
		if err != nil {
			rss.median()
			return err
		}
		t0 := time.Now()
		if err := body(&s, t0.Add(dur)); err != nil {
			rss.median()
			return err
		}
		s.wall = time.Since(t0)
		cpu1, err := p.srv.cpu()
		if err != nil {
			rss.median()
			return err
		}
		s.cpu = cpu1 - cpu0
		p.hs.mark()
		p.slices = append(p.slices, s)
	}
	var err error
	p.rss, err = rss.median()
	return err
}

// scaledMs is every query latency in milliseconds on the reference host.
func (p *servePass) scaledMs() []float64 {
	var out []float64
	for _, s := range p.slices {
		for _, d := range s.lats {
			out = append(out, p.hs.ms(s.index, d))
		}
	}
	return out
}

// scaledPatchMs is every PATCH latency in milliseconds on the reference
// host.
func (p *servePass) scaledPatchMs() []float64 {
	var out []float64
	for _, s := range p.slices {
		for _, d := range s.patchLats {
			out = append(out, p.hs.ms(s.index, d))
		}
	}
	return out
}

// metrics fills the end-to-end metrics every serve workload shares:
// latency over queries, throughput and CPU over every operation (queries
// and PATCHes), memory of the daemon. Times are on the reference host.
func (p *servePass) metrics(res *result) error {
	ms := p.scaledMs()
	if len(ms) == 0 {
		return fmt.Errorf("no request succeeded: %s", res.tally.firstErr)
	}
	var rates []float64
	var cpu float64
	ops := 0
	for _, s := range p.slices {
		rates = append(rates, float64(s.ops)/s.wall.Seconds()/p.hs.scale(s.index))
		cpu += p.hs.ms(s.index, s.cpu)
		ops += s.ops
	}
	res.metrics["setup_s"] = stats.Median(p.setups)
	res.metrics["op_p50_ms"] = stats.Median(ms)
	res.metrics["ops_per_s"] = stats.Median(rates)
	res.metrics["cpu_ms_per_op"] = cpu / float64(ops)
	res.metrics["rss_mb"] = p.rss
	res.addInfo("op_p90_ms", stats.Quantile(ms, 0.9), "ms")
	res.addInfo("op_samples", float64(len(ms)), "count")
	res.addInfo("host_slowdown", p.hs.slowdown(), "ratio")
	return nil
}

// hotSetupReps and dynamicSetupReps are how often a serve workload boots
// (and warms) the daemon; the median boot is reported and the last one
// is measured. serve-dynamic boots in a fifth of a second, serve-hot's
// cache fill takes seconds.
const (
	hotSetupReps     = 3
	dynamicSetupReps = 5
)
