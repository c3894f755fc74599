package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dsssp/internal/graph"
)

func testServer(t *testing.T) *Server { return testServerBodyCap(t, 0) }

// testServerBodyCap is testServer with request bodies capped at bodyCap
// bytes (0 = the default cap).
func testServerBodyCap(t *testing.T, bodyCap int64) *Server {
	t.Helper()
	s, err := New(Config{Workers: 4, maxBodyBytes: bodyCap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// do issues one request against the handler and returns the recorder.
func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// wantErrorJSON asserts a 4xx/5xx response with a well-formed JSON error
// body: prose in "error", a stable machine-readable "code", and a
// "request_id" matching the response header.
func wantErrorJSON(t *testing.T, w *httptest.ResponseRecorder, status int, substr string) {
	t.Helper()
	if w.Code != status {
		t.Fatalf("status = %d, want %d (body %s)", w.Code, status, w.Body.String())
	}
	var e ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("non-JSON error body %q: %v", w.Body.String(), err)
	}
	if e.Error == "" || !strings.Contains(e.Error, substr) {
		t.Fatalf("error %q does not mention %q", e.Error, substr)
	}
	if e.Code == "" {
		t.Fatalf("error body %s lacks a machine-readable code", w.Body.String())
	}
	hdr := w.Header().Get(RequestIDHeader)
	if hdr == "" || e.RequestID != hdr {
		t.Fatalf("request id: body %q vs header %q", e.RequestID, hdr)
	}
}

// testBodyCap is the request-body cap of the error-vocabulary tests, and
// oversizedBody a well-formed SSSP request just over it.
const testBodyCap = 1 << 10

var oversizedBody = `{"graph":{"n":4,"edges":[` + strings.Repeat(`[0,1,1],`, testBodyCap/8) + `[1,2,1]]}}`

func TestBadInputsAre4xxJSON(t *testing.T) {
	s := testServerBodyCap(t, testBodyCap)
	cases := []struct {
		name, method, path, body string
		status                   int
		substr                   string
	}{
		{"malformed-json", "POST", "/v1/sssp", `{"graph": nope}`, 400, "parsing request body"},
		{"unknown-field", "POST", "/v1/sssp", `{"grap": {}}`, 400, "unknown field"},
		{"trailing-garbage", "POST", "/v1/sssp", `{"graph":{"family":"path","n":8}} trailing`, 400, "trailing data"},
		{"body-too-large", "POST", "/v1/sssp", oversizedBody, 413, "request body too large"},
		{"no-edges", "POST", "/v1/sssp", `{"graph":{"n":4}}`, 400, "no edges"},
		{"unknown-family", "POST", "/v1/sssp", `{"graph":{"family":"hypercube","n":8}}`, 400, "unknown graph family"},
		{"n-too-small", "POST", "/v1/sssp", `{"graph":{"family":"path","n":2}}`, 400, "n in [4,"},
		{"n-too-big", "POST", "/v1/sssp", `{"graph":{"family":"path","n":999999}}`, 400, "n in [4,"},
		{"self-loop", "POST", "/v1/sssp", `{"graph":{"n":4,"edges":[[1,1,1]]}}`, 400, "self-loop"},
		{"edge-range", "POST", "/v1/sssp", `{"graph":{"n":4,"edges":[[0,9,1]]}}`, 400, "out of range"},
		{"negative-weight", "POST", "/v1/sssp", `{"graph":{"n":4,"edges":[[0,1,-5]]}}`, 400, "negative weight"},
		{"family-and-edges", "POST", "/v1/sssp", `{"graph":{"family":"path","n":8,"edges":[[0,1,1]]}}`, 400, "mutually exclusive"},
		{"bad-weights", "POST", "/v1/sssp", `{"graph":{"family":"random","n":8,"weights":{"kind":"gaussian"}}}`, 400, "unknown weight kind"},
		{"source-range", "POST", "/v1/sssp", `{"graph":{"family":"path","n":8},"source":42}`, 400, "source 42 out of range"},
		{"bad-model", "POST", "/v1/sssp", `{"graph":{"family":"path","n":8},"options":{"model":"quantum"}}`, 400, "unknown model"},
		{"bad-eps", "POST", "/v1/sssp", `{"graph":{"family":"path","n":8},"options":{"eps_num":3,"eps_den":2}}`, 400, "ε must be in (0,1)"},
		{"path-target-range", "POST", "/v1/path", `{"graph":{"family":"path","n":8},"target":-1}`, 400, "target -1 out of range"},
		{"workers-removed", "POST", "/v1/sssp", `{"graph":{"family":"path","n":8},"options":{"workers":4}}`, 400, "unknown field"},
		{"record-phases-removed", "POST", "/v1/sssp", `{"graph":{"family":"path","n":8},"options":{"record_phases":true}}`, 400, "unknown field"},
		{"strict-sleeping", "POST", "/v1/sssp", `{"graph":{"family":"path","n":8},"options":{"model":"sleeping","strict_congest":true}}`, 422, "StrictCongest"},
		{"apsp-sleeping", "POST", "/v1/apsp", `{"graph":{"n":4,"edges":[[0,1,1],[1,2,1],[2,3,1]]},"options":{"model":"sleeping"}}`, 422, "ModelCongest only"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantErrorJSON(t, do(t, s, tc.method, tc.path, tc.body), tc.status, tc.substr)
		})
	}
}

func TestSSSPQuery(t *testing.T) {
	s := testServer(t)
	// 0 -2- 1 -1- 2 -5- 3, plus a disconnected pair {4,5}.
	body := `{"graph":{"n":6,"edges":[[0,1,2],[1,2,1],[2,3,5],[4,5,1]]},"source":0}`
	w := do(t, s, "POST", "/v1/sssp", body)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Dsssp-Cache"); got != "miss" {
		t.Fatalf("first query cache header = %q", got)
	}
	var resp SSSPResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 2, 3, 8, graph.Inf, graph.Inf}
	if len(resp.Dist) != len(want) {
		t.Fatalf("dist = %v", resp.Dist)
	}
	for i := range want {
		if resp.Dist[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, resp.Dist[i], want[i])
		}
	}
	if resp.Unreachable != 2 || resp.N != 6 || resp.M != 4 {
		t.Fatalf("resp header fields = %+v", resp)
	}
	if resp.Metrics.Rounds <= 0 || resp.Metrics.Messages <= 0 {
		t.Fatalf("metrics = %+v", resp.Metrics)
	}

	// A permutation of the same edge set (and a duplicated heavier edge)
	// is the same canonical graph — it must be a cache hit with the exact
	// same bytes.
	perm := `{"graph":{"n":6,"edges":[[4,5,1],[2,1,1],[3,2,5],[1,0,2],[0,1,7]]},"source":0}`
	w2 := do(t, s, "POST", "/v1/sssp", perm)
	if w2.Code != 200 || w2.Header().Get("X-Dsssp-Cache") != "hit" {
		t.Fatalf("permuted graph: status %d, cache %q", w2.Code, w2.Header().Get("X-Dsssp-Cache"))
	}
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("cache hit bytes differ from the original response")
	}

	// A different source is a different computation.
	w3 := do(t, s, "POST", "/v1/sssp", `{"graph":{"n":6,"edges":[[0,1,2],[1,2,1],[2,3,5],[4,5,1]]},"source":3}`)
	if w3.Code != 200 || w3.Header().Get("X-Dsssp-Cache") != "miss" {
		t.Fatalf("different source: status %d, cache %q", w3.Code, w3.Header().Get("X-Dsssp-Cache"))
	}
}

// TestSSSPGeneratorSpecAndPhases: a generator-spec query answers, its
// per-phase breakdown is in its trace (phase:* rounds partition the
// response's total), and ?trace=1 is an ignored query parameter — the same
// cached bytes as the plain query.
func TestSSSPGeneratorSpecAndPhases(t *testing.T) {
	s := testServer(t)
	body := `{"graph":{"family":"random","n":32,"seed":7,"weights":{"kind":"uniform","max_w":32}}}`
	w, traceID := doTraced(t, s, "POST", "/v1/sssp", body)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp SSSPResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != 32 || len(resp.Dist) != 32 || resp.Dist[0] != 0 {
		t.Fatalf("resp = %+v", resp)
	}
	var phaseRounds int64
	phases := 0
	for _, sp := range getTrace(t, s, traceID).Spans {
		if strings.HasPrefix(sp.Name, "phase:") {
			phases++
			v, _ := sp.Attrs["rounds"].(float64)
			phaseRounds += int64(v)
		}
	}
	if phases == 0 {
		t.Fatal("the query's trace has no phase:* spans")
	}
	if phaseRounds != resp.Metrics.Rounds {
		t.Fatalf("phase rounds %d do not partition total %d", phaseRounds, resp.Metrics.Rounds)
	}

	traced := do(t, s, "POST", "/v1/sssp?trace=1", body)
	if traced.Header().Get("X-Dsssp-Cache") != "hit" || !bytes.Equal(traced.Body.Bytes(), w.Body.Bytes()) {
		t.Fatalf("?trace=1: cache=%s body %s, want a hit on the plain query's bytes",
			traced.Header().Get("X-Dsssp-Cache"), traced.Body.Bytes())
	}
}

func TestPathQuery(t *testing.T) {
	s := testServer(t)
	base := `{"graph":{"n":5,"edges":[[0,1,2],[1,2,1],[0,2,9],[3,4,1]]},"source":0,"target":%s}`
	w := do(t, s, "POST", "/v1/path", strings.Replace(base, "%s", "2", 1))
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp PathResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Dist != 3 {
		t.Fatalf("dist = %d, want 3", resp.Dist)
	}
	// PathTo returns target-first, source-last.
	if len(resp.Path) != 3 || resp.Path[0] != 2 || resp.Path[2] != 0 {
		t.Fatalf("path = %v", resp.Path)
	}
	// Unreachable target: an answer, not an error.
	w = do(t, s, "POST", "/v1/path", strings.Replace(base, "%s", "4", 1))
	if w.Code != 200 {
		t.Fatalf("unreachable target: status %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Dist != graph.Inf || len(resp.Path) != 0 {
		t.Fatalf("unreachable: dist=%d path=%v", resp.Dist, resp.Path)
	}
}

func TestAPSPQuery(t *testing.T) {
	s := testServer(t)
	w := do(t, s, "POST", "/v1/apsp", `{"graph":{"family":"random","n":12,"seed":3},"seed":42}`)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp APSPResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != 12 || len(resp.Dist) != 12 || len(resp.Dist[0]) != 12 {
		t.Fatalf("resp = %+v", resp)
	}
	for i := 0; i < 12; i++ {
		if resp.Dist[i][i] != 0 {
			t.Fatalf("dist[%d][%d] = %d", i, i, resp.Dist[i][i])
		}
	}
	if resp.Composition.Makespan <= 0 || resp.Composition.Congestion <= 0 {
		t.Fatalf("composition = %+v", resp.Composition)
	}
	// Same request → cached bytes.
	w2 := do(t, s, "POST", "/v1/apsp", `{"graph":{"family":"random","n":12,"seed":3},"seed":42}`)
	if w2.Header().Get("X-Dsssp-Cache") != "hit" || !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("identical APSP request did not hit the cache byte-identically")
	}
}

// TestAPSPSeedIgnored: "seed" is still accepted on /v1/apsp but no longer
// part of the computation, so a request that differs only in it is a cache
// hit with the same bytes.
func TestAPSPSeedIgnored(t *testing.T) {
	s := testServer(t)
	w := do(t, s, "POST", "/v1/apsp", `{"graph":{"family":"random","n":12,"seed":3},"seed":1}`)
	if w.Code != 200 || w.Header().Get("X-Dsssp-Cache") != "miss" {
		t.Fatalf("status %d, cache %q: %s", w.Code, w.Header().Get("X-Dsssp-Cache"), w.Body.String())
	}
	w2 := do(t, s, "POST", "/v1/apsp", `{"graph":{"family":"random","n":12,"seed":3},"seed":2}`)
	if w2.Code != 200 || w2.Header().Get("X-Dsssp-Cache") != "hit" || !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatalf("a request differing only in seed: status %d, cache %q, bodies equal %v",
			w2.Code, w2.Header().Get("X-Dsssp-Cache"), bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()))
	}
}

func TestStatsAndHealthz(t *testing.T) {
	s := testServer(t)
	if w := do(t, s, "GET", "/healthz", ""); w.Code != 200 || !strings.Contains(w.Body.String(), "true") {
		t.Fatalf("healthz: %d %s", w.Code, w.Body.String())
	}
	do(t, s, "POST", "/v1/sssp", `{"graph":{"family":"path","n":8}}`)
	do(t, s, "POST", "/v1/sssp", `{"graph":{"family":"path","n":8}}`)
	if st := s.cache.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
	if busy, queued := s.metrics.poolBusy.Value(), s.metrics.queueDepth.Value(); busy != 0 || queued != 0 {
		t.Fatalf("pool: busy %d queued %d, want both 0", busy, queued)
	}
	if st := s.registry.Stats(); st != (RegistryStats{}) {
		t.Fatalf("registry stats = %+v, want zero", st)
	}
}

// scrapeMetrics fetches /metrics through the instrumented handler and
// parses sample lines into name{labels} → value.
func scrapeMetrics(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	w := do(t, s, "GET", "/metrics", "")
	if w.Code != 200 {
		t.Fatalf("/metrics: %d %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[line[:idx]] = v
	}
	return out
}

// TestMetricsEndpoint drives queries through the full handler and asserts
// the Prometheus rendering reflects them: request counters by endpoint
// and code, cache hit/miss counters, pool gauges, and per-phase round
// histograms that conserve against the scenario totals.
func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	body := `{"graph":{"family":"random","n":24,"seed":9},"source":1}`
	do(t, s, "POST", "/v1/sssp", body)
	do(t, s, "POST", "/v1/sssp", body) // cache hit
	do(t, s, "POST", "/v1/sssp", `{"graph": nope}`)

	m := scrapeMetrics(t, s)
	for name, want := range map[string]float64{
		`dsssp_http_requests_total{endpoint="sssp",code="200"}`: 2,
		`dsssp_http_requests_total{endpoint="sssp",code="400"}`: 1,
		"dsssp_cache_hits_total":                                1,
		"dsssp_cache_misses_total":                              1,
		"dsssp_cache_singleflight_dedup_total":                  0,
		"dsssp_cache_entries":                                   1,
		"dsssp_query_pool_workers":                              4,
		"dsssp_query_queue_depth":                               0,
		"dsssp_query_pool_busy":                                 0,
		"dsssp_query_queue_wait_seconds_count":                  1,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
	if m[`dsssp_http_request_duration_seconds_count{endpoint="sssp"}`] != 3 {
		t.Errorf("latency count = %v, want 3", m[`dsssp_http_request_duration_seconds_count{endpoint="sssp"}`])
	}
	// Per-phase round histograms: one observation per phase for the single
	// computed query, and the _sum over phases conserves to the query's
	// total rounds (the span ledger is an exact partition).
	var resp SSSPResponse
	w := do(t, s, "POST", "/v1/sssp", body)
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var phaseSum float64
	found := 0
	for name, v := range m {
		if strings.HasPrefix(name, "dsssp_phase_rounds_sum{") {
			phaseSum += v
			found++
		}
	}
	if found == 0 {
		t.Fatal("no dsssp_phase_rounds series after a computed query")
	}
	if int64(phaseSum) != resp.Metrics.Rounds {
		t.Errorf("phase rounds sum %v != query rounds %d", phaseSum, resp.Metrics.Rounds)
	}
	// The /metrics scrape itself is instrumented, and counters are
	// monotonic scrape-over-scrape.
	m2 := scrapeMetrics(t, s)
	if m2[`dsssp_http_requests_total{endpoint="metrics",code="200"}`] < 1 {
		t.Error("the /metrics endpoint does not count itself")
	}
	for name, v := range m {
		if strings.Contains(name, "_total") && m2[name] < v {
			t.Errorf("counter %s went backwards: %v -> %v", name, v, m2[name])
		}
	}
}

// TestRequestLogging asserts the middleware emits exactly one structured
// completion line per request with the load-bearing fields, and a
// slow-query warning above the threshold.
func TestRequestLogging(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	s, err := New(Config{
		Workers: 2,
		Logger:  logger, SlowQueryThreshold: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	w := do(t, s, "POST", "/v1/sssp", `{"graph":{"family":"path","n":8}}`)
	if w.Code != 200 {
		t.Fatalf("query failed: %d %s", w.Code, w.Body.String())
	}
	id := w.Header().Get(RequestIDHeader)

	var completion, slow map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		switch rec["msg"] {
		case "request":
			if completion != nil {
				t.Fatalf("more than one completion line: %s", buf.String())
			}
			completion = rec
		case "slow query":
			slow = rec
		}
	}
	if completion == nil {
		t.Fatalf("no completion log line in %s", buf.String())
	}
	for key, want := range map[string]any{
		"method": "POST", "path": "/v1/sssp", "endpoint": "sssp",
		"status": float64(200), "cache": "miss", "request_id": id,
	} {
		if completion[key] != want {
			t.Errorf("completion[%q] = %v, want %v", key, completion[key], want)
		}
	}
	if _, ok := completion["latency"]; !ok {
		t.Error("completion line lacks latency")
	}
	if slow == nil {
		t.Error("no slow-query warning despite the 1ns threshold")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer (slog handlers may be called
// from any goroutine).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestMuxErrorsAreJSON asserts the mux-generated replies (wrong method,
// unknown route) are converted into the same JSON error shape as handler
// errors — every non-2xx body is machine-readable. The retired sweep,
// trend and stats routes are unknown routes like any other.
func TestMuxErrorsAreJSON(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		method, path string
		status       int
		substr, code string
	}{
		{"GET", "/v1/sssp", http.StatusMethodNotAllowed, "Method Not Allowed", "method_not_allowed"},
		{"GET", "/no/such/route", http.StatusNotFound, "Not Found", "not_found"},
		{"POST", "/v1/sweeps", http.StatusNotFound, "Not Found", "not_found"},
		{"GET", "/v1/sweeps/x", http.StatusNotFound, "Not Found", "not_found"},
		{"GET", "/v1/trends", http.StatusNotFound, "Not Found", "not_found"},
		{"GET", "/v1/stats", http.StatusNotFound, "Not Found", "not_found"},
	}
	for _, tc := range cases {
		w := do(t, s, tc.method, tc.path, "")
		wantErrorJSON(t, w, tc.status, tc.substr)
		var e ErrorResponse
		json.Unmarshal(w.Body.Bytes(), &e)
		if e.Code != tc.code {
			t.Fatalf("%s %s: code = %q, want %q", tc.method, tc.path, e.Code, tc.code)
		}
	}
}

// TestErrorCodes pins the stable machine-readable code per status class.
func TestErrorCodes(t *testing.T) {
	s := testServerBodyCap(t, testBodyCap)
	cases := []struct {
		method, path, body, code string
	}{
		{"POST", "/v1/sssp", `{"graph": nope}`, "bad_request"},
		{"GET", "/v1/graphs/g-00000000", "", "not_found"},
		{"POST", "/v1/sssp", oversizedBody, "body_too_large"},
		{"POST", "/v1/sssp", `{"graph":{"family":"path","n":8},"options":{"model":"sleeping","strict_congest":true}}`, "unprocessable"},
	}
	for _, tc := range cases {
		w := do(t, s, tc.method, tc.path, tc.body)
		var e ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s %s: non-JSON body %q", tc.method, tc.path, w.Body.String())
		}
		if e.Code != tc.code {
			t.Errorf("%s %s: code = %q, want %q", tc.method, tc.path, e.Code, tc.code)
		}
	}
}

// TestRequestIDEcho asserts a sane client-supplied ID is echoed and a
// junk one is replaced.
func TestRequestIDEcho(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set(RequestIDHeader, "client-chosen-42")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if got := w.Header().Get(RequestIDHeader); got != "client-chosen-42" {
		t.Fatalf("echoed id = %q", got)
	}
	req = httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set(RequestIDHeader, "bad\nid")
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	// A minted ID is the request's 32-hex trace ID, so logs, exemplars,
	// and the flight recorder join on one key.
	if got := w.Header().Get(RequestIDHeader); got == "bad\nid" || len(got) != 32 {
		t.Fatalf("junk inbound id not replaced with the trace ID: %q", got)
	}
}
