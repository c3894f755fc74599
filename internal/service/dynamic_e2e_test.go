package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"dsssp/internal/graph"
)

// ciGraphJSON is ciGraph() as an inline wire spec (see registry_test.go
// for the classification story: reweighting {0,2} down to 1 dirties
// source 0, leaves source 1 untouched).
const ciGraphJSON = `{"n":4,"edges":[[0,1,1],[1,2,1],[2,3,1],[0,3,1],[0,2,10]]}`

func decodeBody(t *testing.T, w *httptest.ResponseRecorder, status int, into any) {
	t.Helper()
	if w.Code != status {
		t.Fatalf("status %d, want %d: %s", w.Code, status, w.Body.Bytes())
	}
	if err := json.Unmarshal(w.Body.Bytes(), into); err != nil {
		t.Fatalf("decoding %s: %v", w.Body.Bytes(), err)
	}
}

// TestDynamicGraphLifecycle walks the registered-graph serving path over
// the wire in both models: register → query (miss, then hit) → PATCH →
// the untouched source is still a hit with byte-identical distances, the
// dirty source recomputes with the improved ones.
func TestDynamicGraphLifecycle(t *testing.T) {
	for _, model := range []string{"congest", "sleeping"} {
		t.Run(model, func(t *testing.T) {
			s := testServer(t)
			w := do(t, s, "POST", "/v1/graphs", `{"graph":`+ciGraphJSON+`}`)
			var info GraphInfo
			decodeBody(t, w, http.StatusCreated, &info)
			if info.Revision != 1 || info.N != 4 || info.M != 5 {
				t.Fatalf("register info = %+v", info)
			}

			// Re-registering identical content is idempotent: 200, same handle.
			w = do(t, s, "POST", "/v1/graphs", `{"graph":`+ciGraphJSON+`}`)
			var again GraphInfo
			decodeBody(t, w, http.StatusOK, &again)
			if again.ID != info.ID {
				t.Fatalf("idempotent register minted %q, want %q", again.ID, info.ID)
			}

			query := func(src int) (*httptest.ResponseRecorder, SSSPResponse) {
				body := fmt.Sprintf(`{"graph":{"graph_id":%q},"source":%d,"options":{"model":%q}}`, info.ID, src, model)
				w := do(t, s, "POST", "/v1/sssp", body)
				var resp SSSPResponse
				decodeBody(t, w, http.StatusOK, &resp)
				return w, resp
			}

			w, r0 := query(0)
			if w.Header().Get("X-Dsssp-Cache") != "miss" || w.Header().Get("X-Dsssp-Graph-Revision") != "1" {
				t.Fatalf("first query: cache=%s rev=%s", w.Header().Get("X-Dsssp-Cache"), w.Header().Get("X-Dsssp-Graph-Revision"))
			}
			if !reflect.DeepEqual(r0.Dist, []int64{0, 1, 2, 1}) {
				t.Fatalf("dist from 0 = %v", r0.Dist)
			}
			_, r1 := query(1)
			if !reflect.DeepEqual(r1.Dist, []int64{1, 0, 1, 2}) {
				t.Fatalf("dist from 1 = %v", r1.Dist)
			}
			if w, _ := query(0); w.Header().Get("X-Dsssp-Cache") != "hit" {
				t.Fatal("repeat query missed the cache")
			}

			// PATCH: the chord drops to 1 — source 0 improves, source 1 cannot.
			w = do(t, s, "PATCH", "/v1/graphs/"+info.ID+"/edges",
				`{"deltas":[{"op":"reweight","u":0,"v":2,"w":1}]}`)
			var pi PatchInfo
			decodeBody(t, w, http.StatusOK, &pi)
			if pi.Revision != 2 || pi.SourcesKept != 1 || pi.SourcesDropped != 1 {
				t.Fatalf("patch info = %+v", pi)
			}

			w, r1b := query(1)
			if w.Header().Get("X-Dsssp-Cache") != "hit" {
				t.Fatal("untouched source recomputed after PATCH (entry not migrated)")
			}
			if w.Header().Get("X-Dsssp-Graph-Revision") != "2" {
				t.Fatalf("revision header = %s, want 2", w.Header().Get("X-Dsssp-Graph-Revision"))
			}
			if !reflect.DeepEqual(r1b.Dist, r1.Dist) {
				t.Fatalf("untouched source's distances changed: %v vs %v", r1b.Dist, r1.Dist)
			}
			w, r0b := query(0)
			if w.Header().Get("X-Dsssp-Cache") != "miss" {
				t.Fatal("dirty source served from cache after PATCH")
			}
			if !reflect.DeepEqual(r0b.Dist, []int64{0, 1, 1, 1}) {
				t.Fatalf("dist from 0 after patch = %v, want [0 1 1 1]", r0b.Dist)
			}

			// Registry surfaces in listing, stats, and delete.
			var list GraphListResponse
			decodeBody(t, do(t, s, "GET", "/v1/graphs", ""), http.StatusOK, &list)
			if len(list.Graphs) != 1 || list.Graphs[0].Revision != 2 {
				t.Fatalf("list = %+v", list)
			}
			var st StatsResponse
			decodeBody(t, do(t, s, "GET", "/v1/stats", ""), http.StatusOK, &st)
			if st.Registry.Graphs != 1 || st.Registry.Revisions != 2 {
				t.Fatalf("stats registry = %+v", st.Registry)
			}
			if w := do(t, s, "DELETE", "/v1/graphs/"+info.ID, ""); w.Code != http.StatusOK {
				t.Fatalf("delete: %d %s", w.Code, w.Body.Bytes())
			}
			if w := do(t, s, "GET", "/v1/graphs/"+info.ID, ""); w.Code != http.StatusNotFound {
				t.Fatalf("get after delete: %d", w.Code)
			}
		})
	}
}

func TestDynamicGraphValidation(t *testing.T) {
	s := testServer(t)
	var info GraphInfo
	decodeBody(t, do(t, s, "POST", "/v1/graphs", `{"graph":`+ciGraphJSON+`}`), http.StatusCreated, &info)

	for name, tc := range map[string]struct {
		method, path, body string
		status             int
	}{
		"query-unknown-handle": {"POST", "/v1/sssp", `{"graph":{"graph_id":"g-nope"},"source":0}`, http.StatusNotFound},
		"patch-unknown-handle": {"PATCH", "/v1/graphs/g-nope/edges", `{"deltas":[{"op":"delete","u":0,"v":1}]}`, http.StatusNotFound},
		"handle-plus-inline":   {"POST", "/v1/sssp", `{"graph":{"graph_id":"` + info.ID + `","n":4,"edges":[[0,1,1]]},"source":0}`, http.StatusBadRequest},
		"register-with-handle": {"POST", "/v1/graphs", `{"graph":{"graph_id":"` + info.ID + `"}}`, http.StatusBadRequest},
		"patch-empty-batch":    {"PATCH", "/v1/graphs/" + info.ID + "/edges", `{"deltas":[]}`, http.StatusBadRequest},
		"patch-bad-op":         {"PATCH", "/v1/graphs/" + info.ID + "/edges", `{"deltas":[{"op":"upsert","u":0,"v":1,"w":1}]}`, http.StatusBadRequest},
		"patch-delete-missing": {"PATCH", "/v1/graphs/" + info.ID + "/edges", `{"deltas":[{"op":"delete","u":1,"v":3}]}`, http.StatusBadRequest},
		"patch-out-of-range":   {"PATCH", "/v1/graphs/" + info.ID + "/edges", `{"deltas":[{"op":"insert","u":0,"v":9,"w":1}]}`, http.StatusBadRequest},
	} {
		t.Run(name, func(t *testing.T) {
			if w := do(t, s, tc.method, tc.path, tc.body); w.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.status, w.Body.Bytes())
			}
		})
	}
	// Failed patches must not have advanced the revision.
	var got GraphInfo
	decodeBody(t, do(t, s, "GET", "/v1/graphs/"+info.ID, ""), http.StatusOK, &got)
	if got.Revision != 1 {
		t.Fatalf("failed patches advanced revision to %d", got.Revision)
	}
}

// TestDynamicAPSPIncremental: after single-source queries have traced some
// rows, an APSP over the handle recomputes only the missing sources and
// reports the split — and the assembled distances are byte-identical to a
// from-scratch APSP of the same content posted inline.
func TestDynamicAPSPIncremental(t *testing.T) {
	s := testServer(t)
	var info GraphInfo
	decodeBody(t, do(t, s, "POST", "/v1/graphs", `{"graph":`+ciGraphJSON+`}`), http.StatusCreated, &info)

	// Trace rows for sources 0 and 1.
	for src := 0; src < 2; src++ {
		body := fmt.Sprintf(`{"graph":{"graph_id":%q},"source":%d}`, info.ID, src)
		if w := do(t, s, "POST", "/v1/sssp", body); w.Code != 200 {
			t.Fatalf("sssp: %d %s", w.Code, w.Body.Bytes())
		}
	}

	w := do(t, s, "POST", "/v1/apsp", fmt.Sprintf(`{"graph":{"graph_id":%q}}`, info.ID))
	var incremental APSPResponse
	decodeBody(t, w, http.StatusOK, &incremental)
	if incremental.Incr == nil || incremental.Incr.SourcesReused != 2 || incremental.Incr.SourcesRecomputed != 2 {
		t.Fatalf("incr split = %+v", incremental.Incr)
	}
	if got := w.Header().Get("X-Dsssp-Incr"); got != "reused=2 recomputed=2" {
		t.Fatalf("X-Dsssp-Incr = %q", got)
	}

	var scratch APSPResponse
	decodeBody(t, do(t, s, "POST", "/v1/apsp", `{"graph":`+ciGraphJSON+`}`), http.StatusOK, &scratch)
	if !reflect.DeepEqual(incremental.Dist, scratch.Dist) {
		t.Fatalf("incremental APSP distances differ from scratch:\nincr  %v\nfresh %v", incremental.Dist, scratch.Dist)
	}

	// Cache keys are content-addressed: the inline from-scratch run above
	// has the same digest as the registered graph, so its (history-free)
	// body now serves the handle query as a plain cache hit.
	var shared APSPResponse
	w = do(t, s, "POST", "/v1/apsp", fmt.Sprintf(`{"graph":{"graph_id":%q}}`, info.ID))
	decodeBody(t, w, http.StatusOK, &shared)
	if w.Header().Get("X-Dsssp-Cache") != "hit" || shared.Incr != nil {
		t.Fatalf("content-shared APSP: cache=%s incr=%+v", w.Header().Get("X-Dsssp-Cache"), shared.Incr)
	}

	// A different seed misses the body cache but finds every row traced:
	// the pure all-reused path (distances are seed-independent).
	var full APSPResponse
	w = do(t, s, "POST", "/v1/apsp", fmt.Sprintf(`{"graph":{"graph_id":%q},"seed":5}`, info.ID))
	decodeBody(t, w, http.StatusOK, &full)
	if full.Incr == nil || full.Incr.SourcesReused != 4 || full.Incr.SourcesRecomputed != 0 {
		t.Fatalf("all-reused APSP split = %+v", full.Incr)
	}
	if !reflect.DeepEqual(full.Dist, scratch.Dist) {
		t.Fatal("fully-reused APSP distances differ from scratch")
	}
}

// ciGraphPatchedJSON is ciGraph() after the chord reweight {0,2}: 10 → 1,
// as an inline wire spec — the from-scratch oracle for repaired answers.
const ciGraphPatchedJSON = `{"n":4,"edges":[[0,1,1],[1,2,1],[2,3,1],[0,3,1],[0,2,1]]}`

// TestRepairServing walks the affected-region repair path over the wire:
// a query traces a source, a PATCH dirties it (stale trace kept), and the
// re-query is served by repair — flagged in header, body, and /v1/stats —
// with distances byte-identical to a from-scratch run of the new content.
func TestRepairServing(t *testing.T) {
	s := testServer(t)
	var info GraphInfo
	decodeBody(t, do(t, s, "POST", "/v1/graphs", `{"graph":`+ciGraphJSON+`}`), http.StatusCreated, &info)

	query := func(src int) (*httptest.ResponseRecorder, SSSPResponse) {
		w := do(t, s, "POST", "/v1/sssp", fmt.Sprintf(`{"graph":{"graph_id":%q},"source":%d}`, info.ID, src))
		var resp SSSPResponse
		decodeBody(t, w, http.StatusOK, &resp)
		return w, resp
	}

	// First query recomputes (nothing to repair from) and records the trace.
	w, _ := query(0)
	if got := w.Header().Get("X-Dsssp-Incr"); got != "recomputed" {
		t.Fatalf("first query X-Dsssp-Incr = %q, want recomputed", got)
	}

	// The chord drops to 1: source 0 goes dirty but keeps its stale trace.
	var pi PatchInfo
	decodeBody(t, do(t, s, "PATCH", "/v1/graphs/"+info.ID+"/edges",
		`{"deltas":[{"op":"reweight","u":0,"v":2,"w":1}]}`), http.StatusOK, &pi)
	if pi.SourcesRepairable != 1 {
		t.Fatalf("patch info = %+v", pi)
	}

	// The re-query is served by repair, not recomputation.
	w, repaired := query(0)
	if w.Header().Get("X-Dsssp-Cache") != "miss" || w.Header().Get("X-Dsssp-Incr") != "repaired" {
		t.Fatalf("repair headers: cache=%s incr=%s", w.Header().Get("X-Dsssp-Cache"), w.Header().Get("X-Dsssp-Incr"))
	}
	if repaired.Incr == nil || repaired.Incr.Served != "repaired" || repaired.Incr.AffectedVertices == 0 {
		t.Fatalf("repair incr block = %+v", repaired.Incr)
	}
	// The repair promoted the trace to the head revision: the next query is
	// served from the exact trace (Affected == 0), still without simulation.
	// (This must run before the inline oracle below — that query caches the
	// canonical body under the same content digest, turning handle queries
	// into plain hits.)
	if _, again := query(0); again.Incr == nil || again.Incr.Served != "repaired" ||
		again.Incr.AffectedVertices != 0 || !reflect.DeepEqual(again.Dist, repaired.Dist) {
		t.Fatalf("post-repair re-query not served from the promoted trace: %+v", again.Incr)
	}

	var fresh SSSPResponse
	decodeBody(t, do(t, s, "POST", "/v1/sssp", `{"graph":`+ciGraphPatchedJSON+`,"source":0}`), http.StatusOK, &fresh)
	if !reflect.DeepEqual(repaired.Dist, fresh.Dist) {
		t.Fatalf("repaired distances diverge from scratch: %v vs %v", repaired.Dist, fresh.Dist)
	}

	// A path query rides the same witness tree: repaired distance and path
	// must be byte-identical to the from-scratch tree extraction.
	w = do(t, s, "POST", "/v1/path", fmt.Sprintf(`{"graph":{"graph_id":%q},"source":0,"target":2}`, info.ID))
	var repairedPath PathResponse
	decodeBody(t, w, http.StatusOK, &repairedPath)
	if w.Header().Get("X-Dsssp-Incr") != "repaired" || repairedPath.Incr == nil {
		t.Fatalf("path repair: incr=%s block=%+v", w.Header().Get("X-Dsssp-Incr"), repairedPath.Incr)
	}
	// The path body carries no phases, so record_phases is ignored like
	// ?trace=1: it neither steps repair aside nor forks the cache key.
	phasedPathBody := `,"source":0,"target":2,"options":{"record_phases":true}}`
	w = do(t, s, "POST", "/v1/path", fmt.Sprintf(`{"graph":{"graph_id":%q}`, info.ID)+phasedPathBody)
	var phasedPath PathResponse
	decodeBody(t, w, http.StatusOK, &phasedPath)
	if w.Header().Get("X-Dsssp-Incr") != "repaired" || phasedPath.Dist != repairedPath.Dist || !reflect.DeepEqual(phasedPath.Path, repairedPath.Path) {
		t.Fatalf("record_phases path: incr=%s dist %d path %v, want repaired dist %d path %v",
			w.Header().Get("X-Dsssp-Incr"), phasedPath.Dist, phasedPath.Path, repairedPath.Dist, repairedPath.Path)
	}
	var freshPath PathResponse
	decodeBody(t, do(t, s, "POST", "/v1/path", `{"graph":`+ciGraphPatchedJSON+`,"source":0,"target":2}`), http.StatusOK, &freshPath)
	if repairedPath.Dist != freshPath.Dist || !reflect.DeepEqual(repairedPath.Path, freshPath.Path) {
		t.Fatalf("repaired path diverges: dist %d path %v, want dist %d path %v",
			repairedPath.Dist, repairedPath.Path, freshPath.Dist, freshPath.Path)
	}
	if w = do(t, s, "POST", "/v1/path", `{"graph":`+ciGraphPatchedJSON+phasedPathBody); w.Header().Get("X-Dsssp-Cache") != "hit" {
		t.Fatalf("record_phases path forked the cache key: cache=%s", w.Header().Get("X-Dsssp-Cache"))
	}

	// The serving split is visible at /v1/stats.
	var st StatsResponse
	decodeBody(t, do(t, s, "GET", "/v1/stats", ""), http.StatusOK, &st)
	if st.Incr.SourcesRepaired < 2 {
		t.Fatalf("stats incr = %+v, want sources_repaired >= 2", st.Incr)
	}

	// ?trace=1 asks for the per-phase breakdown only a real simulation can
	// produce: repair must step aside.
	w = do(t, s, "POST", "/v1/sssp?trace=1", fmt.Sprintf(`{"graph":{"graph_id":%q},"source":0}`, info.ID))
	var traced SSSPResponse
	decodeBody(t, w, http.StatusOK, &traced)
	if traced.Incr != nil || len(traced.Phases) == 0 {
		t.Fatalf("trace=1 served by repair: incr=%+v phases=%d", traced.Incr, len(traced.Phases))
	}
}

// TestRepairDisabled pins the -repair-max-affected=-1 escape hatch: the
// dirty source recomputes from scratch, never touching the repair path.
func TestRepairDisabled(t *testing.T) {
	s, err := New(Config{HistoryDir: t.TempDir(), Workers: 4, Rev: "test", RepairMaxAffected: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	var info GraphInfo
	decodeBody(t, do(t, s, "POST", "/v1/graphs", `{"graph":`+ciGraphJSON+`}`), http.StatusCreated, &info)
	body := fmt.Sprintf(`{"graph":{"graph_id":%q},"source":0}`, info.ID)
	if w := do(t, s, "POST", "/v1/sssp", body); w.Code != http.StatusOK {
		t.Fatalf("seed query: %d", w.Code)
	}
	do(t, s, "PATCH", "/v1/graphs/"+info.ID+"/edges", `{"deltas":[{"op":"reweight","u":0,"v":2,"w":1}]}`)
	w := do(t, s, "POST", "/v1/sssp", body)
	var resp SSSPResponse
	decodeBody(t, w, http.StatusOK, &resp)
	if w.Header().Get("X-Dsssp-Incr") != "recomputed" || resp.Incr != nil {
		t.Fatalf("repair ran while disabled: incr=%s block=%+v", w.Header().Get("X-Dsssp-Incr"), resp.Incr)
	}
}

// TestRepairWarmStart spans two server lifetimes: the first traces and
// dirties a source, shuts down (flushing the registry spill), and the
// second — a fresh process sharing only -registry-dir — serves the same
// handle by repair without ever having computed anything.
func TestRepairWarmStart(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Server {
		t.Helper()
		s, err := New(Config{HistoryDir: t.TempDir(), Workers: 4, Rev: "test", RegistryDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s1 := mk()
	var info GraphInfo
	decodeBody(t, do(t, s1, "POST", "/v1/graphs", `{"graph":`+ciGraphJSON+`}`), http.StatusCreated, &info)
	if w := do(t, s1, "POST", "/v1/sssp", fmt.Sprintf(`{"graph":{"graph_id":%q},"source":0}`, info.ID)); w.Code != http.StatusOK {
		t.Fatalf("seed query: %d", w.Code)
	}
	do(t, s1, "PATCH", "/v1/graphs/"+info.ID+"/edges", `{"deltas":[{"op":"reweight","u":0,"v":2,"w":1}]}`)
	s1.Close() // the SIGTERM path: flush query-accumulated traces to disk

	s2 := mk()
	t.Cleanup(s2.Close)
	var got GraphInfo
	decodeBody(t, do(t, s2, "GET", "/v1/graphs/"+info.ID, ""), http.StatusOK, &got)
	if got.Revision != 2 || got.StaleSources != 1 {
		t.Fatalf("warm-started graph = %+v", got)
	}
	w := do(t, s2, "POST", "/v1/sssp", fmt.Sprintf(`{"graph":{"graph_id":%q},"source":0}`, info.ID))
	var resp SSSPResponse
	decodeBody(t, w, http.StatusOK, &resp)
	if w.Header().Get("X-Dsssp-Incr") != "repaired" {
		t.Fatalf("warm-started query X-Dsssp-Incr = %q, want repaired", w.Header().Get("X-Dsssp-Incr"))
	}
	var fresh SSSPResponse
	decodeBody(t, do(t, s2, "POST", "/v1/sssp", `{"graph":`+ciGraphPatchedJSON+`,"source":0}`), http.StatusOK, &fresh)
	if !reflect.DeepEqual(resp.Dist, fresh.Dist) {
		t.Fatalf("warm-started repair diverges: %v vs %v", resp.Dist, fresh.Dist)
	}
}

// TestPatchQueryRace hammers PATCH (toggling one edge weight between two
// contents) against concurrent queries on the same handle; under -race
// this exercises the registry/cache locking, and every response must be
// exactly the answer for one of the two revisions in flight — never a mix,
// never a stale third value.
func TestPatchQueryRace(t *testing.T) {
	s := testServer(t)
	var info GraphInfo
	decodeBody(t, do(t, s, "POST", "/v1/graphs", `{"graph":`+ciGraphJSON+`}`), http.StatusCreated, &info)

	// The two legal answers from source 3: chord at 10 (dist [0 1 2 1]
	// from 0 ⇒ from 3: [1 2 1 0]) and chord at 1.
	gA := ciGraph()
	gB, err := graph.ApplyDeltas(gA, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 0, V: 2, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	legal := map[string]bool{}
	for _, g := range []*graph.Graph{gA, gB} {
		b, _ := json.Marshal(graph.Dijkstra(g, 0))
		legal[string(b)] = true
	}

	const patches = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < patches; i++ {
			w := 1 + 9*(i%2) // 10, 1, 10, 1, …
			body := fmt.Sprintf(`{"deltas":[{"op":"reweight","u":0,"v":2,"w":%d}]}`, w)
			if res := do(t, s, "PATCH", "/v1/graphs/"+info.ID+"/edges", body); res.Code != 200 {
				t.Errorf("patch %d: %d %s", i, res.Code, res.Body.Bytes())
				return
			}
		}
	}()
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				w := do(t, s, "POST", "/v1/sssp", fmt.Sprintf(`{"graph":{"graph_id":%q},"source":0}`, info.ID))
				var resp SSSPResponse
				decodeBody(t, w, http.StatusOK, &resp)
				b, _ := json.Marshal(resp.Dist)
				if !legal[string(b)] {
					t.Errorf("query saw distances %s, not a legal revision's answer", b)
					return
				}
			}
		}()
	}
	wg.Wait()
}
