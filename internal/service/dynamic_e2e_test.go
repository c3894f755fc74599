package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"dsssp"
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
// the untouched source is served from its carried trace (a zero-change
// repair) with identical distances, the dirty source gets the improved
// ones.
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
			if w.Header().Get("X-Dsssp-Incr") != "repaired" || r1b.Incr == nil || r1b.Incr.AffectedVertices != 0 {
				t.Fatalf("untouched source after PATCH: incr=%q %+v, want repaired from its trace with nothing affected",
					w.Header().Get("X-Dsssp-Incr"), r1b.Incr)
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
			if st := s.registry.Stats(); st.Graphs != 1 || st.Revisions != 2 {
				t.Fatalf("registry stats = %+v", st)
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

	// A different ε misses the body cache but finds every row traced: the
	// pure all-reused path (distances are exact whatever ε).
	var full APSPResponse
	w = do(t, s, "POST", "/v1/apsp", fmt.Sprintf(`{"graph":{"graph_id":%q},"options":{"eps_num":1,"eps_den":3}}`, info.ID))
	decodeBody(t, w, http.StatusOK, &full)
	if full.Incr == nil || full.Incr.SourcesReused != 4 || full.Incr.SourcesRecomputed != 0 {
		t.Fatalf("all-reused APSP split = %+v", full.Incr)
	}
	// No instance ran, so there is no composition to report.
	if bytes.Contains(w.Body.Bytes(), []byte(`"composition"`)) {
		t.Fatalf("all-reused APSP reports a composition it did not measure: %s", w.Body.Bytes())
	}
	if !reflect.DeepEqual(full.Dist, scratch.Dist) {
		t.Fatal("fully-reused APSP distances differ from scratch")
	}

	// A from-scratch APSP on a fresh handle recomputes every source, and
	// counts each of them as recomputed.
	var fresh GraphInfo
	decodeBody(t, do(t, s, "POST", "/v1/graphs", `{"graph":`+ciGraphPatchedJSON+`}`), http.StatusCreated, &fresh)
	before := s.metrics.incrSourcesRecomputed.Value()
	w = do(t, s, "POST", "/v1/apsp", fmt.Sprintf(`{"graph":{"graph_id":%q}}`, fresh.ID))
	var first APSPResponse
	decodeBody(t, w, http.StatusOK, &first)
	if w.Header().Get("X-Dsssp-Cache") != "miss" || first.Incr != nil {
		t.Fatalf("from-scratch APSP: cache=%s incr=%+v", w.Header().Get("X-Dsssp-Cache"), first.Incr)
	}
	if got := s.metrics.incrSourcesRecomputed.Value() - before; got != int64(fresh.N) {
		t.Fatalf("from-scratch APSP moved sources_recomputed by %d, want n = %d", got, fresh.N)
	}
}

// TestAPSPSleepingRejectedWhenTraced: APSP runs in the CONGEST model only,
// and the daemon says so even on a registered graph whose every source is
// already traced — where reused rows alone could answer without the engine.
func TestAPSPSleepingRejectedWhenTraced(t *testing.T) {
	s := testServer(t)
	var info GraphInfo
	decodeBody(t, do(t, s, "POST", "/v1/graphs", `{"graph":`+ciGraphJSON+`}`), http.StatusCreated, &info)
	for src := 0; src < info.N; src++ {
		body := fmt.Sprintf(`{"graph":{"graph_id":%q},"source":%d,"options":{"model":"sleeping"}}`, info.ID, src)
		if w := do(t, s, "POST", "/v1/sssp", body); w.Code != http.StatusOK {
			t.Fatalf("sssp %d: %d %s", src, w.Code, w.Body.Bytes())
		}
	}
	var got GraphInfo
	decodeBody(t, do(t, s, "GET", "/v1/graphs/"+info.ID, ""), http.StatusOK, &got)
	if got.TracedSources != info.N {
		t.Fatalf("traced_sources = %d, want n = %d", got.TracedSources, info.N)
	}
	body := fmt.Sprintf(`{"graph":{"graph_id":%q},"options":{"model":"sleeping"}}`, info.ID)
	wantErrorJSON(t, do(t, s, "POST", "/v1/apsp", body), http.StatusUnprocessableEntity, "ModelCongest only")
}

// ciGraphPatchedJSON is ciGraph() after the chord reweight {0,2}: 10 → 1,
// as an inline wire spec — the from-scratch oracle for repaired answers.
const ciGraphPatchedJSON = `{"n":4,"edges":[[0,1,1],[1,2,1],[2,3,1],[0,3,1],[0,2,1]]}`

// TestRepairServing walks the affected-region repair path over the wire:
// a query traces a source, a PATCH dirties it (stale trace kept), and the
// re-query is served by repair — flagged in header, body, and /metrics —
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
	if got := scrapeMetrics(t, s)["dsssp_graph_stale_traces"]; got != 1 {
		t.Fatalf("dsssp_graph_stale_traces = %v after the PATCH, want 1", got)
	}

	// The re-query is served by repair, not recomputation.
	w, repaired := query(0)
	if w.Header().Get("X-Dsssp-Cache") != "miss" || w.Header().Get("X-Dsssp-Incr") != "repaired" {
		t.Fatalf("repair headers: cache=%s incr=%s", w.Header().Get("X-Dsssp-Cache"), w.Header().Get("X-Dsssp-Incr"))
	}
	if repaired.Incr == nil || repaired.Incr.Served != "repaired" || repaired.Incr.AffectedVertices == 0 {
		t.Fatalf("repair incr block = %+v", repaired.Incr)
	}
	if got := scrapeMetrics(t, s)["dsssp_graph_stale_traces"]; got != 0 {
		t.Fatalf("dsssp_graph_stale_traces = %v after the repair, want 0", got)
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
	var freshPath PathResponse
	decodeBody(t, do(t, s, "POST", "/v1/path", `{"graph":`+ciGraphPatchedJSON+`,"source":0,"target":2}`), http.StatusOK, &freshPath)
	if repairedPath.Dist != freshPath.Dist || !reflect.DeepEqual(repairedPath.Path, freshPath.Path) {
		t.Fatalf("repaired path diverges: dist %d path %v, want dist %d path %v",
			repairedPath.Dist, repairedPath.Path, freshPath.Dist, freshPath.Path)
	}

	// The serving split is visible at /metrics.
	if got := scrapeMetrics(t, s)["dsssp_incr_sources_repaired_total"]; got < 2 {
		t.Fatalf("dsssp_incr_sources_repaired_total = %v, want >= 2", got)
	}
}

// TestRepairUnbounded: a dirty source is repaired however much of the
// graph its affected region covers. Raising both of source 0's tree edges
// (and the chord) in ciGraph carves 3 of the 4 vertices; the re-query is
// still repaired, with no fallback, and equals a fresh run.
func TestRepairUnbounded(t *testing.T) {
	s := testServer(t)
	var info GraphInfo
	decodeBody(t, do(t, s, "POST", "/v1/graphs", `{"graph":`+ciGraphJSON+`}`), http.StatusCreated, &info)
	body := fmt.Sprintf(`{"graph":{"graph_id":%q},"source":0}`, info.ID)
	if w := do(t, s, "POST", "/v1/sssp", body); w.Code != http.StatusOK {
		t.Fatalf("seed query: %d", w.Code)
	}
	do(t, s, "PATCH", "/v1/graphs/"+info.ID+"/edges", `{"deltas":[`+
		`{"op":"reweight","u":0,"v":1,"w":3},{"op":"reweight","u":0,"v":3,"w":3},{"op":"reweight","u":0,"v":2,"w":20}]}`)
	before := pinIncr(t, s)
	w := do(t, s, "POST", "/v1/sssp", body)
	var resp SSSPResponse
	decodeBody(t, w, http.StatusOK, &resp)
	if w.Header().Get("X-Dsssp-Incr") != "repaired" || resp.Incr == nil || resp.Incr.AffectedVertices != 3 {
		t.Fatalf("X-Dsssp-Incr=%q incr=%+v, want repaired with 3 affected vertices", w.Header().Get("X-Dsssp-Incr"), resp.Incr)
	}
	if after := pinIncr(t, s); after.RepairFallbacks != before.RepairFallbacks {
		t.Fatalf("repair fell back: %+v → %+v", before, after)
	}
	var fresh SSSPResponse
	decodeBody(t, do(t, s, "POST", "/v1/sssp",
		`{"graph":{"n":4,"edges":[[0,1,3],[1,2,1],[2,3,1],[0,3,3],[0,2,20]]},"source":0}`), http.StatusOK, &fresh)
	if !reflect.DeepEqual(resp.Dist, fresh.Dist) {
		t.Fatalf("repaired %v, a fresh run gives %v", resp.Dist, fresh.Dist)
	}
}

// TestRepairDisabled pins the -repair-max-affected=-1 escape hatch: the
// dirty source recomputes from scratch, never touching the repair path.
func TestRepairDisabled(t *testing.T) {
	s, err := New(Config{Workers: 4, RepairMaxAffected: -1})
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

// TestRepairDisabledServesExactTraces: with repair disabled an exact
// trace still needs no repair, so the source a PATCH left untouched is
// served from its trace — no simulation — and equals a fresh run.
func TestRepairDisabledServesExactTraces(t *testing.T) {
	s, err := New(Config{Workers: 4, RepairMaxAffected: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	var info GraphInfo
	decodeBody(t, do(t, s, "POST", "/v1/graphs", `{"graph":`+ciGraphJSON+`}`), http.StatusCreated, &info)
	body := fmt.Sprintf(`{"graph":{"graph_id":%q},"source":1}`, info.ID)
	if w := do(t, s, "POST", "/v1/sssp", body); w.Code != http.StatusOK {
		t.Fatalf("seed query: %d", w.Code)
	}
	do(t, s, "PATCH", "/v1/graphs/"+info.ID+"/edges", `{"deltas":[{"op":"reweight","u":0,"v":2,"w":1}]}`)
	before := pinIncr(t, s)
	w := do(t, s, "POST", "/v1/sssp", body)
	var resp SSSPResponse
	decodeBody(t, w, http.StatusOK, &resp)
	if w.Header().Get("X-Dsssp-Incr") != "repaired" || resp.Incr == nil || resp.Incr.AffectedVertices != 0 {
		t.Fatalf("untouched source: X-Dsssp-Incr=%q incr=%+v, want its exact trace served", w.Header().Get("X-Dsssp-Incr"), resp.Incr)
	}
	if after := pinIncr(t, s); after.SourcesRecomputed != before.SourcesRecomputed {
		t.Fatalf("the untouched source was simulated again: %+v → %+v", before, after)
	}
	var fresh SSSPResponse
	decodeBody(t, do(t, s, "POST", "/v1/sssp", `{"graph":`+ciGraphPatchedJSON+`,"source":1}`), http.StatusOK, &fresh)
	if !reflect.DeepEqual(resp.Dist, fresh.Dist) {
		t.Fatalf("served %v, a fresh run gives %v", resp.Dist, fresh.Dist)
	}
}

// TestCacheHitCountsNoReuse: a body-cache hit on a handle serves no row,
// so it moves no dsssp_incr_* counter, whatever the head holds for its
// sources; the cache's own hit counter counts it.
func TestCacheHitCountsNoReuse(t *testing.T) {
	for _, q := range []struct{ path, body string }{
		{"/v1/sssp", `,"source":0}`},
		{"/v1/path", `,"source":1,"target":3}`},
		{"/v1/apsp", `}`},
	} {
		// A fresh server per endpoint, so the first query computes every row
		// and its body is cached.
		s := testServer(t)
		var info GraphInfo
		decodeBody(t, do(t, s, "POST", "/v1/graphs", `{"graph":`+ciGraphJSON+`}`), http.StatusCreated, &info)
		q.body = fmt.Sprintf(`{"graph":{"graph_id":%q}`, info.ID) + q.body
		if w := do(t, s, "POST", q.path, q.body); w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", q.path, w.Code, w.Body.Bytes())
		}
		before := pinIncr(t, s)
		if w := do(t, s, "POST", q.path, q.body); w.Header().Get("X-Dsssp-Cache") != "hit" {
			t.Fatalf("%s: repeat X-Dsssp-Cache = %q, want hit", q.path, w.Header().Get("X-Dsssp-Cache"))
		}
		if after := pinIncr(t, s); after != before {
			t.Fatalf("%s: a cache hit moved the incr counters from %+v to %+v", q.path, before, after)
		}
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
		s, err := New(Config{Workers: 4, RegistryDir: dir})
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

// TestWarmStartKeepsBytes: a graph's charged bytes are a function of the
// traces it holds and the bodies they keep, so a warm start that reloads
// the traces reports the bytes of the live registry that recorded them
// from queries, less the kept bodies, which are never spilled. The live
// registry keeps one: the body the repaired query's trace answers with.
func TestWarmStartKeepsBytes(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Server {
		t.Helper()
		s, err := New(Config{Workers: 4, RegistryDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	get := func(s *Server, id string) GraphInfo {
		t.Helper()
		var info GraphInfo
		decodeBody(t, do(t, s, "GET", "/v1/graphs/"+id, ""), http.StatusOK, &info)
		return info
	}

	s1 := mk()
	var info GraphInfo
	decodeBody(t, do(t, s1, "POST", "/v1/graphs", `{"graph":`+ciGraphJSON+`}`), http.StatusCreated, &info)
	g := fmt.Sprintf(`{"graph_id":%q}`, info.ID)
	for _, q := range []struct{ path, body string }{
		{"/v1/sssp", `{"graph":` + g + `,"source":0}`},
		{"/v1/path", `{"graph":` + g + `,"source":1,"target":3}`},
		{"/v1/apsp", `{"graph":` + g + `}`},
	} {
		if w := do(t, s1, "POST", q.path, q.body); w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", q.path, w.Code, w.Body.Bytes())
		}
	}
	do(t, s1, "PATCH", "/v1/graphs/"+info.ID+"/edges", `{"deltas":[{"op":"reweight","u":0,"v":2,"w":1}]}`)
	if w := do(t, s1, "POST", "/v1/sssp", `{"graph":`+g+`,"source":0}`); w.Header().Get("X-Dsssp-Incr") != "repaired" {
		t.Fatalf("post-patch query X-Dsssp-Incr = %q, want repaired", w.Header().Get("X-Dsssp-Incr"))
	}
	live := get(s1, info.ID)
	if live.TracedSources == 0 || live.StaleSources == 0 {
		t.Fatalf("live graph = %+v, want exact and stale traces", live)
	}
	s1.registry.mu.Lock()
	kept := s1.registry.graphs[info.ID].bodyBytes
	s1.registry.mu.Unlock()
	if kept == 0 {
		t.Fatal("the repaired query's trace keeps no body")
	}
	s1.Close() // the SIGTERM path: flush query-accumulated traces to disk

	s2 := mk()
	t.Cleanup(s2.Close)
	warm := get(s2, info.ID)
	if warm.Bytes != live.Bytes-kept || warm.TracedSources != live.TracedSources || warm.StaleSources != live.StaleSources {
		t.Fatalf("warm start = %+v, live = %+v", warm, live)
	}
}

// TestPatchQueryRace hammers PATCH (toggling one edge weight between two
// contents) against concurrent queries on the same handle; under -race
// this exercises the registry/cache locking and the kept bodies, and every
// reply must equal, byte for byte, a fresh render at the revision in its
// X-Dsssp-Graph-Revision header — never a mix, never a stale body.
func TestPatchQueryRace(t *testing.T) {
	s := testServer(t)
	var info GraphInfo
	decodeBody(t, do(t, s, "POST", "/v1/graphs", `{"graph":`+ciGraphJSON+`}`), http.StatusCreated, &info)

	// Odd revisions hold ciGraph, the chord {0,2} at 10; even ones the chord
	// at 1. replies[rev%2] renders each reply a revision may get: computed
	// (key -1, with the engine run's metrics) or repaired, keyed by the
	// vertices the repair rebuilt.
	gA := ciGraph()
	gB, err := graph.ApplyDeltas(gA, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 0, V: 2, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	opts, err := resolveOptions(QueryOptions{}, s.cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	var replies [2]map[int][]byte
	for i, g := range []*graph.Graph{gB, gA} {
		res, err := dsssp.SSSP(g, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		dist := graph.Dijkstra(g, 0)
		if !reflect.DeepEqual(res.Dist, dist) {
			t.Fatalf("engine distances %v, Dijkstra %v", res.Dist, dist)
		}
		replies[i] = map[int][]byte{-1: append(mustRender(t, renderSSSP, ssspResponse(g, row{dist: dist}, res)), '\n')}
		for k := 0; k <= g.N(); k++ {
			replies[i][k] = append(mustRender(t, renderSSSP, ssspResponse(g, row{dist: dist, served: rowRepaired, affected: k}, nil)), '\n')
		}
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
				rev, err := strconv.Atoi(w.Header().Get("X-Dsssp-Graph-Revision"))
				key := -1
				if resp.Incr != nil {
					key = resp.Incr.AffectedVertices
				}
				if want, ok := replies[rev%2][key]; err != nil || !ok || !bytes.Equal(w.Body.Bytes(), want) {
					t.Errorf("revision %q replied %s, not a fresh render of that revision", w.Header().Get("X-Dsssp-Graph-Revision"), w.Body.Bytes())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTracedSourcesExcludesAPSPBody: traced_sources counts sources, so an
// APSP on a handle traces each of its n rows once, and neither its body
// nor a later single-source query adds to the count.
func TestTracedSourcesExcludesAPSPBody(t *testing.T) {
	s := testServer(t)
	var info GraphInfo
	decodeBody(t, do(t, s, "POST", "/v1/graphs", `{"graph":`+ciGraphJSON+`}`), http.StatusCreated, &info)
	traced := func(step string) {
		t.Helper()
		var got GraphInfo
		decodeBody(t, do(t, s, "GET", "/v1/graphs/"+info.ID, ""), http.StatusOK, &got)
		if got.TracedSources != info.N {
			t.Fatalf("after %s: traced_sources = %d, want n = %d", step, got.TracedSources, info.N)
		}
	}
	if w := do(t, s, "POST", "/v1/apsp", fmt.Sprintf(`{"graph":{"graph_id":%q}}`, info.ID)); w.Code != http.StatusOK {
		t.Fatalf("apsp: %d %s", w.Code, w.Body.Bytes())
	}
	traced("/v1/apsp")
	if w := do(t, s, "POST", "/v1/sssp", fmt.Sprintf(`{"graph":{"graph_id":%q},"source":1}`, info.ID)); w.Code != http.StatusOK {
		t.Fatalf("sssp: %d %s", w.Code, w.Body.Bytes())
	}
	traced("/v1/sssp")
}

// TestCacheBodiesIgnoreHistory pins the result cache's invariant across a
// PATCH: a cached body is the bytes computed for its key, so an inline
// query of the patched content answers exactly what a fresh server does,
// whatever the server served before. The PATCH inserts {1,3} at weight 50,
// which leaves source 1 untouched; its re-query on the handle is served
// from its carried trace and reports the patched graph.
func TestCacheBodiesIgnoreHistory(t *testing.T) {
	const patched = `{"n":4,"edges":[[0,1,1],[1,2,1],[2,3,1],[0,3,1],[0,2,10],[1,3,50]]}`
	inline := `{"graph":` + patched + `,"source":1}`
	fresh := do(t, testServer(t), "POST", "/v1/sssp", inline)
	var want SSSPResponse
	decodeBody(t, fresh, http.StatusOK, &want)

	for _, handleFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("handle-first=%v", handleFirst), func(t *testing.T) {
			s := testServer(t)
			var info GraphInfo
			decodeBody(t, do(t, s, "POST", "/v1/graphs", `{"graph":`+ciGraphJSON+`}`), http.StatusCreated, &info)
			q1 := fmt.Sprintf(`{"graph":{"graph_id":%q},"source":1}`, info.ID)
			if w := do(t, s, "POST", "/v1/sssp", q1); w.Code != http.StatusOK {
				t.Fatalf("sssp: %d %s", w.Code, w.Body.Bytes())
			}
			var pi PatchInfo
			decodeBody(t, do(t, s, "PATCH", "/v1/graphs/"+info.ID+"/edges",
				`{"deltas":[{"op":"insert","u":1,"v":3,"w":50}]}`), http.StatusOK, &pi)
			if pi.SourcesKept != 1 || pi.SourcesDropped != 0 {
				t.Fatalf("patch info = %+v, want source 1 untouched", pi)
			}
			if handleFirst {
				w := do(t, s, "POST", "/v1/sssp", q1)
				var got SSSPResponse
				decodeBody(t, w, http.StatusOK, &got)
				if got.N != want.N || got.M != want.M || !reflect.DeepEqual(got.Dist, want.Dist) {
					t.Fatalf("handle re-query n=%d m=%d dist=%v, want n=%d m=%d dist=%v",
						got.N, got.M, got.Dist, want.N, want.M, want.Dist)
				}
				if w.Header().Get("X-Dsssp-Incr") != "repaired" || got.Incr == nil || got.Incr.AffectedVertices != 0 {
					t.Fatalf("handle re-query: incr=%q %+v, want repaired from its trace with nothing affected",
						w.Header().Get("X-Dsssp-Incr"), got.Incr)
				}
			}
			w := do(t, s, "POST", "/v1/sssp", inline)
			if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), fresh.Body.Bytes()) {
				t.Fatalf("inline query of the patched content:\n got %s\nwant %s", w.Body.Bytes(), fresh.Body.Bytes())
			}
			if !handleFirst {
				// The inline run cached the canonical body, and the handle
				// names the same content: its re-query is that body.
				w := do(t, s, "POST", "/v1/sssp", q1)
				if w.Header().Get("X-Dsssp-Cache") != "hit" || !bytes.Equal(w.Body.Bytes(), fresh.Body.Bytes()) {
					t.Fatalf("handle re-query after the inline run: cache=%s body %s", w.Header().Get("X-Dsssp-Cache"), w.Body.Bytes())
				}
			}
		})
	}
}

// TestAPSPReusesRowsAfterSlackPatch: a PATCH that touches no source (the
// slack chord grows) carries all n exact traces to the new revision, so
// the next APSP on the handle reuses every row and runs no engine, and its
// distances equal a from-scratch run of the patched content.
func TestAPSPReusesRowsAfterSlackPatch(t *testing.T) {
	s := testServer(t)
	var info GraphInfo
	decodeBody(t, do(t, s, "POST", "/v1/graphs", `{"graph":`+ciGraphJSON+`}`), http.StatusCreated, &info)
	apsp := fmt.Sprintf(`{"graph":{"graph_id":%q}}`, info.ID)
	if w := do(t, s, "POST", "/v1/apsp", apsp); w.Code != http.StatusOK {
		t.Fatalf("apsp: %d %s", w.Code, w.Body.Bytes())
	}
	var pi PatchInfo
	decodeBody(t, do(t, s, "PATCH", "/v1/graphs/"+info.ID+"/edges",
		`{"deltas":[{"op":"reweight","u":0,"v":2,"w":20}]}`), http.StatusOK, &pi)
	if pi.SourcesKept != info.N || pi.SourcesDropped != 0 {
		t.Fatalf("slack increase dirtied sources: %+v", pi)
	}

	w := do(t, s, "POST", "/v1/apsp", apsp)
	var got APSPResponse
	decodeBody(t, w, http.StatusOK, &got)
	if w.Header().Get("X-Dsssp-Cache") != "miss" || w.Header().Get("X-Dsssp-Incr") != "reused=4 recomputed=0" {
		t.Fatalf("apsp after the patch: cache=%s incr=%s", w.Header().Get("X-Dsssp-Cache"), w.Header().Get("X-Dsssp-Incr"))
	}
	if got.Incr == nil || got.Incr.SourcesReused != info.N || got.Incr.SourcesRecomputed != 0 {
		t.Fatalf("incr split = %+v, want all %d rows reused", got.Incr, info.N)
	}
	var scratch APSPResponse
	decodeBody(t, do(t, testServer(t), "POST", "/v1/apsp",
		`{"graph":{"n":4,"edges":[[0,1,1],[1,2,1],[2,3,1],[0,3,1],[0,2,20]]}}`), http.StatusOK, &scratch)
	if !reflect.DeepEqual(got.Dist, scratch.Dist) {
		t.Fatalf("reused rows differ from scratch:\nreused %v\nfresh  %v", got.Dist, scratch.Dist)
	}
}
