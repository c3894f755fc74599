package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dsssp/internal/obs/trace"
)

// tracingServer builds a server with tracing-relevant knobs under test
// control; everything else matches testServer.
func tracingServer(t *testing.T, sampleRate float64, recent, retained int) *Server {
	t.Helper()
	s, err := New(Config{
		Workers:         4,
		TraceSampleRate: sampleRate, TraceRecent: recent, TraceRetained: retained,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// doTraced issues one request with a freshly minted traceparent and
// returns the recorder plus the minted trace ID.
func doTraced(t *testing.T, s *Server, method, path, body string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	sc := trace.MintContext()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	var req *http.Request
	if rd != nil {
		req = httptest.NewRequest(method, path, rd)
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	req.Header.Set(trace.TraceparentHeader, sc.Traceparent())
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w, sc.TraceID.String()
}

// getTrace fetches one trace from the flight recorder by ID.
func getTrace(t *testing.T, s *Server, traceID string) trace.Trace {
	t.Helper()
	dw := httptest.NewRecorder()
	s.TraceHandler().ServeHTTP(dw, httptest.NewRequest("GET", "/debug/traces/"+traceID, nil))
	if dw.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s: status %d: %s", traceID, dw.Code, dw.Body.String())
	}
	var tr trace.Trace
	if err := json.Unmarshal(dw.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

const tracingBody = `{"graph":{"family":"random","n":64,"seed":7,"weights":{"kind":"uniform","max_w":64}}}`

func TestTraceparentEchoValid(t *testing.T) {
	s := tracingServer(t, 1.0, 0, 0)
	sc := trace.MintContext()
	req := httptest.NewRequest("POST", "/v1/sssp", strings.NewReader(tracingBody))
	req.Header.Set(trace.TraceparentHeader, sc.Traceparent())
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	echo := w.Header().Get(TraceparentHeader)
	esc, ok := trace.ParseTraceparent(echo)
	if !ok {
		t.Fatalf("echoed traceparent %q does not parse", echo)
	}
	if esc.TraceID != sc.TraceID {
		t.Fatalf("echo trace ID = %s, want the client's %s", esc.TraceID, sc.TraceID)
	}
	if !esc.Sampled {
		t.Fatalf("echo %q not marked sampled at sample rate 1.0", echo)
	}
	// The span ID half must be the server root's, not a byte-for-byte
	// replay of what the client sent: a downstream joiner would otherwise
	// parent onto the wrong span.
	if esc.SpanID == sc.SpanID {
		t.Fatalf("echo %q replays the client's span ID instead of the server root's", echo)
	}
	if got := w.Header().Get(RequestIDHeader); got != sc.TraceID.String() {
		t.Fatalf("request ID %q not unified with trace ID %s", got, sc.TraceID)
	}
}

func TestTraceparentMalformedMintsFresh(t *testing.T) {
	s := tracingServer(t, 1.0, 0, 0)
	for _, bad := range []string{
		"not-a-traceparent",
		"00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01", // uppercase hex
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // forbidden version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace ID
	} {
		req := httptest.NewRequest("POST", "/v1/sssp", strings.NewReader(tracingBody))
		req.Header.Set(trace.TraceparentHeader, bad)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%q: status = %d: %s", bad, w.Code, w.Body.String())
		}
		echo := w.Header().Get(TraceparentHeader)
		esc, ok := trace.ParseTraceparent(echo)
		if !ok {
			t.Fatalf("%q: minted echo %q does not parse", bad, echo)
		}
		if strings.Contains(bad, esc.TraceID.String()) {
			t.Fatalf("%q: server adopted a trace ID from a malformed header", bad)
		}
		if got := w.Header().Get(RequestIDHeader); got != esc.TraceID.String() {
			t.Fatalf("%q: request ID %q != minted trace ID %s", bad, got, esc.TraceID.String())
		}
	}
}

func TestTraceUnsampledNoEcho(t *testing.T) {
	s := tracingServer(t, -1, 0, 0)
	w := do(t, s, "POST", "/v1/sssp", tracingBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	if echo := w.Header().Get(TraceparentHeader); echo != "" {
		t.Fatalf("unsampled request without inbound traceparent echoed %q", echo)
	}
	if got := w.Header().Get(RequestIDHeader); len(got) != 32 {
		t.Fatalf("request ID %q is not a 32-hex trace ID", got)
	}
}

// TestSingleflightTraceShared pins the trace semantics of deduplicated
// cache misses: every concurrent waiter gets its own root span tree, but
// only the singleflight leader carries an engine span — the followers'
// cache.lookup spans are marked result=shared (or hit, if they arrived
// after completion). Run under -race this also exercises the recorder's
// and span tree's concurrency.
func TestSingleflightTraceShared(t *testing.T) {
	s := tracingServer(t, 1.0, 0, 0)
	const waiters = 8
	for attempt := 0; attempt < 5; attempt++ {
		body := fmt.Sprintf(
			`{"graph":{"family":"random","n":384,"seed":%d,"weights":{"kind":"uniform","max_w":384}}}`,
			100+attempt)
		ids := make([]string, waiters)
		var wg sync.WaitGroup
		gate := make(chan struct{})
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sc := trace.MintContext()
				ids[i] = sc.TraceID.String()
				req := httptest.NewRequest("POST", "/v1/sssp", strings.NewReader(body))
				req.Header.Set(trace.TraceparentHeader, sc.Traceparent())
				<-gate
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("waiter %d: status %d: %s", i, w.Code, w.Body.String())
				}
			}(i)
		}
		close(gate)
		wg.Wait()
		if t.Failed() {
			return
		}

		rec := s.tracer.Recorder()
		engines, shared := 0, 0
		for _, id := range ids {
			tr := rec.Get(id)
			if tr == nil {
				t.Fatalf("trace %s missing from the flight recorder", id)
			}
			hasEngine := false
			for _, sp := range tr.Spans {
				if sp.Name == "engine" {
					hasEngine = true
				}
				if sp.Name == "cache.lookup" && sp.Attrs["result"] == "shared" {
					shared++
				}
			}
			if hasEngine {
				engines++
			}
		}
		// One key, so at most one simulation ever ran — regardless of how
		// the requests interleaved.
		if engines != 1 {
			t.Fatalf("%d engine spans across %d identical requests, want exactly 1", engines, waiters)
		}
		if shared > 0 {
			return // observed genuine singleflight sharing; all invariants held
		}
		// Every follower landed after completion (pure cache hits): valid,
		// but not the interleaving under test. Retry with a fresh key.
	}
	t.Skip("never observed singleflight sharing in 5 attempts; dedup invariant (1 engine) held each time")
}

// TestTraceTreeRoundsConservation is the acceptance criterion: for a
// computed query, GET /debug/traces/{id} returns one connected span tree
// rooted at the HTTP request, the engine-phase leaf spans' rounds sum
// exactly to the response's metrics.rounds, and under strict CONGEST their
// largest max_message_bits is the response's.
func TestTraceTreeRoundsConservation(t *testing.T) {
	s := tracingServer(t, 1.0, 0, 0)
	w, traceID := doTraced(t, s, "POST", "/v1/sssp", tracingBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	var resp SSSPResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Metrics.Rounds <= 0 {
		t.Fatalf("computed response lacks metrics.rounds: %s", w.Body.String())
	}

	tr := getTrace(t, s, traceID)
	if tr.TraceID != traceID {
		t.Fatalf("trace ID = %s, want %s", tr.TraceID, traceID)
	}

	// Connectivity: exactly one root, every other span's parent present.
	byID := make(map[string]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		byID[sp.SpanID] = true
	}
	roots := 0
	for _, sp := range tr.Spans {
		if sp.ParentID == "" {
			roots++
			if sp.Name != "HTTP sssp" {
				t.Fatalf("root span is %q, want %q", sp.Name, "HTTP sssp")
			}
		} else if !byID[sp.ParentID] {
			t.Fatalf("span %s (%s) has dangling parent %s", sp.SpanID, sp.Name, sp.ParentID)
		}
	}
	if roots != 1 {
		t.Fatalf("%d roots in the span tree, want 1", roots)
	}

	// Conservation: phase rounds sum to the response's total.
	var phaseSum, engineRounds int64
	phaseSpans := 0
	for _, sp := range tr.Spans {
		if strings.HasPrefix(sp.Name, "phase:") {
			phaseSpans++
			v, ok := sp.Attrs["rounds"].(float64)
			if !ok {
				t.Fatalf("phase span %q lacks a numeric rounds attr: %#v", sp.Name, sp.Attrs)
			}
			phaseSum += int64(v)
		}
		if sp.Name == "engine" {
			if v, ok := sp.Attrs["rounds"].(float64); ok {
				engineRounds = int64(v)
			}
		}
	}
	if phaseSpans == 0 {
		t.Fatal("no engine-phase spans in the trace")
	}
	if phaseSum != resp.Metrics.Rounds {
		t.Fatalf("phase spans sum to %d rounds, response metrics.rounds = %d", phaseSum, resp.Metrics.Rounds)
	}
	if engineRounds != resp.Metrics.Rounds {
		t.Fatalf("engine span rounds attr = %d, want %d", engineRounds, resp.Metrics.Rounds)
	}

	// A strict-CONGEST run measures message sizes: the largest phase's
	// max_message_bits is the response's.
	strict := strings.TrimSuffix(tracingBody, "}") + `,"options":{"strict_congest":true}}`
	w, traceID = doTraced(t, s, "POST", "/v1/sssp", strict)
	if w.Code != http.StatusOK {
		t.Fatalf("strict query: status = %d: %s", w.Code, w.Body.String())
	}
	resp = SSSPResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Metrics.MaxMessageBits <= 0 {
		t.Fatalf("strict response lacks metrics.max_message_bits: %s", w.Body.String())
	}
	var maxBits int64
	for _, sp := range getTrace(t, s, traceID).Spans {
		if v, ok := sp.Attrs["max_message_bits"].(float64); ok && strings.HasPrefix(sp.Name, "phase:") {
			maxBits = max(maxBits, int64(v))
		}
	}
	if maxBits != resp.Metrics.MaxMessageBits {
		t.Fatalf("max phase max_message_bits = %d, response metrics.max_message_bits = %d", maxBits, resp.Metrics.MaxMessageBits)
	}
}

// TestFlightRecorderRetainsErrorAfterFlood pins the retention bias at the
// service level: an errored request survives a flood of fast successes
// that overflows the recent ring many times over.
func TestFlightRecorderRetainsErrorAfterFlood(t *testing.T) {
	s := tracingServer(t, 1.0, 4, 4)
	w, errID := doTraced(t, s, "POST", "/v1/sssp", `{"graph": nope}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad body: status = %d, want 400", w.Code)
	}
	for i := 0; i < 50; i++ {
		if w := do(t, s, "POST", "/v1/sssp", tracingBody); w.Code != http.StatusOK {
			t.Fatalf("flood %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	tr := s.tracer.Recorder().Get(errID)
	if tr == nil {
		t.Fatalf("errored trace %s evicted by %d fast successes (recent=4, retained=4)", errID, 50)
	}
	if tr.Status != http.StatusBadRequest {
		t.Fatalf("retained trace status = %d, want 400", tr.Status)
	}

	// And it is reachable through the errors filter on the list endpoint.
	dreq := httptest.NewRequest("GET", "/debug/traces?status=400", nil)
	dw := httptest.NewRecorder()
	s.TraceHandler().ServeHTTP(dw, dreq)
	var list []*trace.Trace
	if err := json.Unmarshal(dw.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, lt := range list {
		if lt.TraceID == errID {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s not in the status=400 list (%d traces)", errID, len(list))
	}
}

// TestUnsampledCachedHitCheaper pins that sampling, not tracing's mere
// presence, is what costs: the cached-hit fast path allocates strictly
// less per request when the request is unsampled. The zero-allocation
// floor of the tracing kernel itself is pinned in the trace package
// (TestUnsampledZeroAlloc); here the comparison runs through the full
// handler stack.
func TestUnsampledCachedHitCheaper(t *testing.T) {
	measure := func(s *Server) float64 {
		// Warm the cache so every measured request is a pure hit.
		if w := do(t, s, "POST", "/v1/sssp", tracingBody); w.Code != http.StatusOK {
			t.Fatalf("warmup: status %d: %s", w.Code, w.Body.String())
		}
		h := s.Handler()
		return testing.AllocsPerRun(200, func() {
			req := httptest.NewRequest("POST", "/v1/sssp", strings.NewReader(tracingBody))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				panic(w.Body.String())
			}
		})
	}
	unsampled := measure(tracingServer(t, -1, 0, 0))
	sampled := measure(tracingServer(t, 1.0, 0, 0))
	if unsampled >= sampled {
		t.Fatalf("unsampled cached hit allocates %.1f/run, sampled %.1f/run — tracing is not free when disabled",
			unsampled, sampled)
	}
}

// BenchmarkCachedHit is the benchmark pin for the fast path: compare
// ns/op and allocs/op between unsampled and sampled serving of a pure
// cache hit, and time serve-hot's shape (a random n=128 generator spec
// with unit weights, unsampled).
func BenchmarkCachedHit(b *testing.B) {
	for _, bc := range []struct {
		name string
		rate float64
		body string
	}{
		{"unsampled", -1, tracingBody},
		{"sampled", 1.0, tracingBody},
		{"generator-spec", -1, hotSpecBody},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := New(Config{
				Workers:         4,
				TraceSampleRate: bc.rate,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			h := s.Handler()
			req := httptest.NewRequest("POST", "/v1/sssp", strings.NewReader(bc.body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("warmup: %d: %s", w.Code, w.Body.String())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/v1/sssp", strings.NewReader(bc.body))
				h.ServeHTTP(httptest.NewRecorder(), req)
			}
		})
	}
}
