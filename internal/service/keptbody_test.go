package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"dsssp/internal/graph"
)

// registerTraced registers a random n-node graph with uniform weights up to
// n and records an exact trace of each source from graph.Dijkstra, as a
// warm start from a spill leaves them. It returns the handle and the graph.
func registerTraced(tb testing.TB, s *Server, n int, sources ...graph.NodeID) (string, *graph.Graph) {
	tb.Helper()
	g := graph.Make(graph.FamilyRandom, n, graph.UniformWeights(int64(n), 1), 1)
	info, _ := s.registry.Register(g)
	_, digest, _, err := s.registry.Resolve(info.ID)
	if err != nil {
		tb.Fatal(err)
	}
	for _, src := range sources {
		d := graph.Dijkstra(g, src)
		s.registry.Record(info.ID, digest, src, d, graph.WitnessParents(g, src, d), "")
	}
	return info.ID, g
}

func ssspQuery(id string, src graph.NodeID) string {
	return fmt.Sprintf(`{"graph":{"graph_id":%q},"source":%d}`, id, src)
}

// repairedReply is the /v1/sssp reply of src on g served by a repair that
// rebuilt affected vertices, rendered afresh from graph.Dijkstra; affected
// 0 is the reply of an exact trace.
func repairedReply(tb testing.TB, g *graph.Graph, src graph.NodeID, affected int) []byte {
	tb.Helper()
	b := mustRender(tb, renderSSSP, ssspResponse(g, row{dist: graph.Dijkstra(g, src), served: rowRepaired, affected: affected}, nil))
	return append(b, '\n')
}

// sinkWriter is a ResponseWriter that keeps the status, the headers and
// the first body write (the reply's body, not copied) and discards the
// rest.
type sinkWriter struct {
	h      http.Header
	status int
	first  []byte
}

func (w *sinkWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}

func (w *sinkWriter) WriteHeader(status int) { w.status = status }

func (w *sinkWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.first == nil {
		w.first = p
	}
	return len(p), nil
}

// leafEdge is the tree edge {u,v} of a leaf v of src's witness tree on g
// that reaches v by no other shortest path, the highest such v: a change
// of its weight dirties src's trace and moves v's distance alone.
func leafEdge(g *graph.Graph, src graph.NodeID) (u, v graph.NodeID, w int64) {
	d := graph.Dijkstra(g, src)
	parent := graph.WitnessParents(g, src, d)
	inner := make([]bool, g.N())
	for _, p := range parent {
		if p >= 0 {
			inner[p] = true
		}
	}
	for v = graph.NodeID(g.N() - 1); v >= 0; v-- {
		tight := 0
		for _, h := range g.Adj(v) {
			if d[h.To]+h.W == d[v] {
				tight++
				u, w = h.To, h.W
			}
		}
		if !inner[v] && v != src && tight == 1 {
			return u, v, w
		}
	}
	panic("service: no leaf with a single shortest path")
}

// TestExactTraceBodyKept follows one source's kept /v1/sssp body through
// the events that may change it. Every reply must equal a fresh render of
// the revision it was served at, and the body is kept only where the
// trace is exact: a repeat query writes the kept bytes without allocating
// a row-sized buffer; an insert that leaves the trace clean and a
// reweight that dirties it each drop the body, and a body offered for an
// old m or for a replaced row is refused; the repair that makes the trace
// exact again keeps the zero-change body derived from its reply, which
// the next query writes as it is; a restart from the spill keeps none.
func TestExactTraceBodyKept(t *testing.T) {
	const n, src = 10_000, graph.NodeID(0)
	dir := t.TempDir()
	s, err := New(Config{Workers: 2, RegistryDir: dir, TraceSampleRate: -1})
	if err != nil {
		t.Fatal(err)
	}
	id, g := registerTraced(t, s, n, src)
	q := ssspQuery(id, src)

	trace := func() *sourceTrace {
		t.Helper()
		rg := s.registry.graphs[id]
		checkLogInvariants(t, rg)
		return rg.traces[src]
	}
	head := func() *graph.Graph {
		g, _, _, err := s.registry.Resolve(id)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// query requires the reply of an exact trace on g and the body kept.
	query := func(step string, g *graph.Graph) {
		t.Helper()
		w := do(t, s, "POST", "/v1/sssp", q)
		want := repairedReply(t, g, src, 0)
		switch {
		case w.Code != http.StatusOK || w.Header().Get("X-Dsssp-Incr") != "repaired" || w.Header().Get("X-Dsssp-Cache") != "miss":
			t.Fatalf("%s: %d, incr %q, cache %q", step, w.Code, w.Header().Get("X-Dsssp-Incr"), w.Header().Get("X-Dsssp-Cache"))
		case !bytes.Equal(w.Body.Bytes(), want):
			t.Fatalf("%s: the reply differs from a fresh render at m=%d", step, g.M())
		case !bytes.Equal(trace().body, want[:len(want)-1]):
			t.Fatalf("%s: kept %d bytes, want the %d-byte reply", step, len(trace().body), len(want)-1)
		}
	}
	dropped := func(step string) {
		t.Helper()
		if tr := trace(); tr.body != nil {
			t.Fatalf("%s: the trace still keeps a %d-byte body", step, len(tr.body))
		}
	}
	patch := func(step string, delta string) PatchInfo {
		t.Helper()
		var pi PatchInfo
		decodeBody(t, do(t, s, "PATCH", "/v1/graphs/"+id+"/edges", `{"deltas":[`+delta+`]}`), http.StatusOK, &pi)
		return pi
	}

	query("first query", g)
	// A repeat writes the kept bytes: no row-sized buffer, not even the
	// recorder's, which the sink replaces.
	kept := trace().body
	h := s.Handler()
	var before, after runtime.MemStats
	const reps = 10
	runtime.ReadMemStats(&before)
	for range reps {
		w := &sinkWriter{}
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/sssp", strings.NewReader(q)))
		if w.status != http.StatusOK || &w.first[0] != &kept[0] {
			t.Fatalf("repeat query: %d, or its body is not the kept one", w.status)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reps; per >= uint64(len(kept))/4 {
		t.Fatalf("a repeat query allocates %d bytes against a %d-byte body", per, len(kept))
	}

	// An insert that cannot shorten a path leaves the trace clean but
	// changes m: the body goes, and one rendered before the insert is
	// refused.
	d := graph.Dijkstra(g, src)
	v := graph.NodeID(n - 1)
	for ; g.HasEdge(src, v); v-- {
	}
	pi := patch("insert", fmt.Sprintf(`{"op":"insert","u":%d,"v":%d,"w":%d}`, src, v, d[v]+1))
	if pi.SourcesKept != 1 || pi.M != g.M()+1 {
		t.Fatalf("insert: %+v, want the trace kept and m=%d", pi, g.M()+1)
	}
	dropped("insert")
	s.registry.keepBody(id, src, trace().dist, g.M(), kept)
	dropped("a body for the old m")
	query("after the insert", head())

	// A reweight of a leaf's tree edge dirties the trace: the body goes.
	// The repair keeps the body of the exact trace it leaves, derived from
	// its own reply, and a body rendered from the row it replaced is
	// refused.
	lu, lv, lw := leafEdge(g, src)
	old := trace().dist
	pi = patch("reweight", fmt.Sprintf(`{"op":"reweight","u":%d,"v":%d,"w":%d}`, lu, lv, lw+1))
	if pi.SourcesDropped != 1 {
		t.Fatalf("reweight: %+v, want the trace dirty", pi)
	}
	dropped("reweight")
	w := do(t, s, "POST", "/v1/sssp", q)
	var resp SSSPResponse
	decodeBody(t, w, http.StatusOK, &resp)
	if resp.Incr == nil || resp.Incr.AffectedVertices == 0 {
		t.Fatalf("repair: incr %+v, want a rebuilt region", resp.Incr)
	}
	if want := repairedReply(t, head(), src, resp.Incr.AffectedVertices); !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatal("repair: the reply differs from a fresh render")
	}
	exact := repairedReply(t, head(), src, 0)
	kept = trace().body
	if !bytes.Equal(kept, exact[:len(exact)-1]) {
		t.Fatalf("repair: kept %d bytes, want the %d-byte reply of the exact trace", len(kept), len(exact)-1)
	}
	stale := mustRender(t, renderSSSP, ssspResponse(head(), row{dist: old, served: rowRepaired}, nil))
	s.registry.keepBody(id, src, old, head().M(), stale)
	if &trace().body[0] != &kept[0] {
		t.Fatal("a body for the replaced row displaced the repair's")
	}
	sink := &sinkWriter{}
	h.ServeHTTP(sink, httptest.NewRequest("POST", "/v1/sssp", strings.NewReader(q)))
	if sink.status != http.StatusOK || &sink.first[0] != &kept[0] || !bytes.Equal(sink.first, exact[:len(exact)-1]) {
		t.Fatalf("after the repair: %d, or the body is not the kept one", sink.status)
	}
	query("after the repair", head())

	// Kept bodies are derived state: the spill holds none.
	s.Close()
	if s, err = New(Config{Workers: 2, RegistryDir: dir, TraceSampleRate: -1}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rg := s.registry.graphs[id]; rg == nil || rg.bodyBytes != 0 {
		t.Fatal("the restarted registry lost the graph or kept a body")
	}
	dropped("restart")
	query("after the restart", head())
}

// TestQueryReplyContentLength: a query reply states its length, so an
// n=10⁴ row goes out whole rather than chunked.
func TestQueryReplyContentLength(t *testing.T) {
	s := testServer(t)
	id, g := registerTraced(t, s, 10_000, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, step := range []string{"render", "kept body"} {
		res, err := http.Post(ts.URL+"/v1/sssp", "application/json", strings.NewReader(ssspQuery(id, 0)))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		switch {
		case err != nil:
			t.Fatal(err)
		case res.StatusCode != http.StatusOK || !bytes.Equal(body, repairedReply(t, g, 0, 0)):
			t.Fatalf("%s: %d, or the reply differs from a fresh render", step, res.StatusCode)
		case res.ContentLength != int64(len(body)) || res.TransferEncoding != nil:
			t.Fatalf("%s: Content-Length %d and transfer encoding %v for a %d-byte reply", step, res.ContentLength, res.TransferEncoding, len(body))
		}
	}
}

// TestKeptBodyBudget: kept bodies live in the budget's slack. A registry
// whose budget is exactly its snapshot plus its traces answers from them
// but keeps no body and evicts nothing; when a body has found room, a new
// trace still fits, and the body is shed for it.
func TestKeptBodyBudget(t *testing.T) {
	const n = 2_000
	g := graph.Make(graph.FamilyRandom, n, graph.UniformWeights(n, 1), 1)
	body := len(repairedReply(t, g, 0, 0)) - 1
	for _, tc := range []struct {
		name   string
		budget int64
		traced []graph.NodeID // recorded before the queries
		late   graph.NodeID   // recorded after them; -1 for none
		kept   int64          // the kept bytes after the queries
	}{
		{"snapshot-and-traces", graphBytes(g) + 4*traceBytes(n), []graph.NodeID{0, 1, 2, 3}, -1, 0},
		{"one-body-of-slack", graphBytes(g) + 2*traceBytes(n) + int64(body) - 1, []graph.NodeID{0}, 1, int64(body)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Workers: 2, GraphBytes: tc.budget, TraceSampleRate: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			id, _ := registerTraced(t, s, n, tc.traced...)
			rg := s.registry.graphs[id]
			for range 2 {
				for _, src := range tc.traced {
					if w := do(t, s, "POST", "/v1/sssp", ssspQuery(id, src)); !bytes.Equal(w.Body.Bytes(), repairedReply(t, g, src, 0)) {
						t.Fatalf("source %d: %d, or the reply differs from a fresh render", src, w.Code)
					}
				}
			}
			if rg.bodyBytes != tc.kept {
				t.Fatalf("kept %d body bytes, want %d", rg.bodyBytes, tc.kept)
			}
			if tc.late >= 0 {
				d := graph.Dijkstra(g, tc.late)
				s.registry.Record(id, rg.digest, tc.late, d, graph.WitnessParents(g, tc.late, d), "")
				if _, ok := rg.traces[tc.late]; !ok || rg.bodyBytes != 0 {
					t.Fatalf("late trace admitted %v with %d body bytes kept, want it admitted and the body shed", ok, rg.bodyBytes)
				}
			}
			checkLogInvariants(t, rg)
			if st := s.registry.Stats(); st.Graphs != 1 || st.Evictions != 0 || st.BytesUsed > tc.budget {
				t.Fatalf("stats %+v under a %d-byte budget", st, tc.budget)
			}
		})
	}
}

// BenchmarkServeSSSPTraced times a /v1/sssp query through the handler, in
// process, on a registered random n=10⁴ graph (uniform weights up to n)
// with an exact trace of the source, as serve-dynamic's queries are
// served. exact repeats the query on the unchanged trace. repaired first
// raises or restores, untimed, the weight of a leaf's edge in the source's
// tree (see leafEdge), so that every query repairs a stale trace.
func BenchmarkServeSSSPTraced(b *testing.B) {
	const n, src = 10_000, graph.NodeID(0)
	s, err := New(Config{Workers: 2, TraceSampleRate: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	id, g := registerTraced(b, s, n, src)
	h, q := s.Handler(), ssspQuery(id, src)
	serve := func(b *testing.B) *sinkWriter {
		w := &sinkWriter{}
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/sssp", strings.NewReader(q)))
		if w.status != http.StatusOK || w.Header().Get("X-Dsssp-Incr") != "repaired" {
			b.Fatalf("query: %d, incr %q", w.status, w.Header().Get("X-Dsssp-Incr"))
		}
		return w
	}
	b.Run("exact", func(b *testing.B) {
		serve(b)
		b.ReportAllocs()
		for b.Loop() {
			serve(b)
		}
	})
	u, v, w := leafEdge(g, src)
	raised := false // the toggle outlives each run of b.N
	b.Run("repaired", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			weight := w
			if raised = !raised; raised {
				weight++
			}
			delta := fmt.Sprintf(`{"deltas":[{"op":"reweight","u":%d,"v":%d,"w":%d}]}`, u, v, weight)
			w := httptest.NewRecorder()
			if h.ServeHTTP(w, httptest.NewRequest("PATCH", "/v1/graphs/"+id+"/edges", strings.NewReader(delta))); w.Code != http.StatusOK {
				b.Fatalf("patch: %d %s", w.Code, w.Body.Bytes())
			}
			b.StartTimer()
			reply := serve(b)
			b.StopTimer()
			var resp SSSPResponse
			if err := json.Unmarshal(reply.first, &resp); err != nil || resp.Incr == nil || resp.Incr.AffectedVertices == 0 {
				b.Fatalf("query %d was not a repair of a stale trace: %v %+v", i, err, resp.Incr)
			}
			b.StartTimer()
		}
	})
}
