package service

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dsssp/internal/obs/trace"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/query_paths.golden")

// TestQueryPathsPinned drives a fixed request sequence over a registered
// graph through each query endpoint (sssp, path, apsp) and pins everything
// a client or operator can observe per step: status, body bytes, the
// X-Dsssp-Cache and X-Dsssp-Incr headers, the change in the
// dsssp_incr_* counters, and the span tree's names and nesting in
// /debug/traces/{id}. The steps cover a first recompute, a cache hit, a
// query served from an exact trace under a fresh cache key, a stale trace
// repaired after each of two PATCHes, and the same flow with repair
// disabled (RepairMaxAffected: -1). The second PATCH restores revision 1's
// content, so base hits that content's canonical body and alt, never
// cached at revision 1, reaches the stale trace.
//
// Regenerate with `go test ./internal/service -run TestQueryPathsPinned
// -update` only when an observable change is intended.
func TestQueryPathsPinned(t *testing.T) {
	var out strings.Builder
	for _, ep := range []string{"sssp", "path", "apsp"} {
		for _, repairMax := range []float64{0, -1} {
			pinEndpoint(t, &out, ep, repairMax)
		}
	}
	golden := filepath.Join("testdata", "query_paths.golden")
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing %s (regenerate with -update): %v", golden, err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("observable output diverges from %s at line %d:\ngot:  %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("observable output diverges from %s in length: got %d lines, want %d", golden, len(gl), len(wl))
	}
}

// pinEndpoint runs one endpoint's step sequence on a fresh server and
// appends one block per step to out.
func pinEndpoint(t *testing.T, out *strings.Builder, ep string, repairMax float64) {
	t.Helper()
	s, err := New(Config{Workers: 4, RepairMaxAffected: repairMax})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var info GraphInfo
	decodeBody(t, do(t, s, "POST", "/v1/graphs", `{"graph":`+ciGraphJSON+`}`), http.StatusCreated, &info)

	// base is the endpoint's query; alt is the same source under a different
	// cache key, so it misses the body cache but finds the exact trace.
	g := fmt.Sprintf(`{"graph_id":%q}`, info.ID)
	var base, alt string
	switch ep {
	case "sssp":
		base = `{"graph":` + g + `,"source":0}`
		alt = `{"graph":` + g + `,"source":0,"options":{"eps_num":1,"eps_den":3}}`
	case "path":
		base = `{"graph":` + g + `,"source":0,"target":2}`
		alt = `{"graph":` + g + `,"source":0,"target":3}`
	case "apsp":
		base = `{"graph":` + g + `}`
		alt = `{"graph":` + g + `,"seed":5}`
	}
	patch := func(w int) {
		body := fmt.Sprintf(`{"deltas":[{"op":"reweight","u":0,"v":2,"w":%d}]}`, w)
		if res := do(t, s, "PATCH", "/v1/graphs/"+info.ID+"/edges", body); res.Code != http.StatusOK {
			t.Fatalf("patch: %d %s", res.Code, res.Body.Bytes())
		}
	}
	step := func(name, path, body string) {
		before := pinIncr(t, s)
		w, traceID := doTraced(t, s, "POST", path, body)
		after := pinIncr(t, s)
		fmt.Fprintf(out, "== %s repair_max=%g %s\n", ep, repairMax, name)
		fmt.Fprintf(out, "status: %d\n", w.Code)
		fmt.Fprintf(out, "x-dsssp-cache: %s\n", w.Header().Get("X-Dsssp-Cache"))
		fmt.Fprintf(out, "x-dsssp-incr: %s\n", w.Header().Get("X-Dsssp-Incr"))
		fmt.Fprintf(out, "incr: reused%+d repaired%+d recomputed%+d fallbacks%+d\n",
			after.SourcesReused-before.SourcesReused, after.SourcesRepaired-before.SourcesRepaired,
			after.SourcesRecomputed-before.SourcesRecomputed, after.RepairFallbacks-before.RepairFallbacks)
		for _, sp := range pinSpans(t, s, traceID) {
			fmt.Fprintf(out, "span: %s\n", sp)
		}
		fmt.Fprintf(out, "body: %s\n", strings.TrimSpace(w.Body.String()))
	}

	ep1 := "/v1/" + ep
	step("first-recompute", ep1, base)
	step("cache-hit", ep1, base)
	step("exact-trace", ep1, alt)
	patch(1)
	step("stale-repair", ep1, base)
	step("exact-after-repair", ep1, alt)
	patch(10)
	step("stale-repair-2", ep1, base)
	step("stale-repair-2-alt", ep1, alt)
}

// incrCounts is a snapshot of the dsssp_incr_* serving counters.
type incrCounts struct {
	SourcesReused, SourcesRepaired, SourcesRecomputed, RepairFallbacks int64
}

func pinIncr(t *testing.T, s *Server) incrCounts {
	t.Helper()
	m := s.metrics
	return incrCounts{
		SourcesReused:     m.incrSourcesReused.Value(),
		SourcesRepaired:   m.incrSourcesRepaired.Value(),
		SourcesRecomputed: m.incrSourcesRecomputed.Value(),
		RepairFallbacks:   m.incrRepairFallbacks.Value(),
	}
}

// pinSpans returns the trace's span names as root-to-span paths, sorted
// (engine-phase and repair-phase children keep their multiplicity).
func pinSpans(t *testing.T, s *Server, traceID string) []string {
	t.Helper()
	tr := getTrace(t, s, traceID)
	byID := make(map[string]trace.SpanData, len(tr.Spans))
	for _, sp := range tr.Spans {
		byID[sp.SpanID] = sp
	}
	var paths []string
	for _, sp := range tr.Spans {
		p := sp.Name
		for cur := sp; cur.ParentID != ""; {
			cur = byID[cur.ParentID]
			p = cur.Name + " > " + p
		}
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}
