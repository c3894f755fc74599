package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"dsssp/internal/graph"
)

// TestWeightSeedContract pins the spec-seed contract: the weight stream
// folds every spec axis (family, n, weight kind, max_w) in with the
// structure seed, so specs differing in any axis — even under the shared
// omitted-seed default 0 — draw distinct weight streams, and the exact
// derivation is frozen (changing it would silently repoint every cached
// generator-spec result).
func TestWeightSeedContract(t *testing.T) {
	base := GraphSpec{Family: "random", N: 32, Seed: 0, Weights: &WeightSpec{Kind: "uniform", MaxW: 32}}

	// Frozen derivation: these constants ARE the wire contract.
	if got := weightSeed(base); got != -876701056665859529 {
		t.Fatalf("weightSeed(random/32/uniform/32/seed=0) = %d, want -876701056665859529 (derivation changed?)", got)
	}
	expander := base
	expander.Family = "expander"
	if got := weightSeed(expander); got != -714274277480059329 {
		t.Fatalf("weightSeed(expander/32/uniform/32/seed=0) = %d, want -714274277480059329 (derivation changed?)", got)
	}

	// Determinism: the same spec always names the same stream.
	if weightSeed(base) != weightSeed(base) {
		t.Fatal("weightSeed is not deterministic")
	}

	// Distinctness along every axis, seed held at the default 0.
	seen := map[int64]string{weightSeed(base): "base"}
	for name, mut := range map[string]func(*GraphSpec){
		"family": func(s *GraphSpec) { s.Family = "expander" },
		"n":      func(s *GraphSpec) { s.N = 64 },
		"kind":   func(s *GraphSpec) { s.Weights = &WeightSpec{Kind: "zero-heavy", MaxW: 32} },
		"max_w":  func(s *GraphSpec) { s.Weights = &WeightSpec{Kind: "uniform", MaxW: 64} },
		"seed":   func(s *GraphSpec) { s.Seed = 1 },
	} {
		spec := base
		mut(&spec)
		ws := weightSeed(spec)
		if prev, dup := seen[ws]; dup {
			t.Errorf("weightSeed collides between %q and %q (%d)", name, prev, ws)
		}
		seen[ws] = name
	}

	// End to end: same n, same bare seed, different family ⇒ different
	// uniform weight multisets (the aliasing the fold exists to prevent).
	gr, err := buildGraph(base, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := buildGraph(expander, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if weightMultiset(gr)["sum"] == weightMultiset(ge)["sum"] && weightMultiset(gr)["xor"] == weightMultiset(ge)["xor"] {
		t.Fatal("random and expander specs sharing seed 0 drew indistinguishable weight streams")
	}
}

func weightMultiset(g *graph.Graph) map[string]int64 {
	var sum, xor int64
	for _, e := range g.Edges() {
		sum += e.W
		xor ^= e.W * 1099511628211
	}
	return map[string]int64{"sum": sum, "xor": xor}
}

// TestWeightLimitRejected checks the weight limit at every place a weight
// enters the service — inline edges, generator max_w, PATCH insert and
// reweight — in both models: at graph.MaxSafeWeight(n) the answer matches
// Dijkstra, one over it is a 400 naming the limit.
func TestWeightLimitRejected(t *testing.T) {
	const n = 3
	limit := graph.MaxSafeWeight(n)
	inline := func(w int64) string {
		return fmt.Sprintf(`{"n":%d,"edges":[[0,1,%d],[1,2,0]]}`, n, w)
	}
	for _, model := range []string{"congest", "sleeping"} {
		t.Run(model, func(t *testing.T) {
			s := testServer(t)
			query := func(spec string) *httptest.ResponseRecorder {
				return do(t, s, "POST", "/v1/sssp", fmt.Sprintf(`{"graph":%s,"options":{"model":%q}}`, spec, model))
			}
			g := graph.New(n)
			g.AddEdge(0, 1, limit)
			g.AddEdge(1, 2, 0)
			var resp SSSPResponse
			decodeBody(t, query(inline(limit)), http.StatusOK, &resp)
			if want := graph.Dijkstra(g, 0); !reflect.DeepEqual(resp.Dist, want) {
				t.Fatalf("at the limit: dist %v, want %v", resp.Dist, want)
			}
			want := fmt.Sprintf("exceeds the limit %d for n=%d", limit, n)
			wantErrorJSON(t, query(inline(limit+1)), http.StatusBadRequest, want)

			gen := func(maxW int64) string {
				return fmt.Sprintf(`{"family":"path","n":4,"weights":{"kind":"zero-heavy","max_w":%d}}`, maxW)
			}
			decodeBody(t, query(gen(graph.MaxSafeWeight(4))), http.StatusOK, &resp)
			wantErrorJSON(t, query(gen(graph.MaxSafeWeight(4)+1)), http.StatusBadRequest,
				fmt.Sprintf("exceeds the weight limit %d for n=4", graph.MaxSafeWeight(4)))

			var info GraphInfo
			decodeBody(t, do(t, s, "POST", "/v1/graphs", `{"graph":{"n":3,"edges":[[0,1,1],[1,2,0]]}}`), http.StatusCreated, &info)
			for _, op := range []string{"insert", "reweight"} {
				u := map[string]int{"insert": 2, "reweight": 1}[op]
				body := func(w int64) string {
					return fmt.Sprintf(`{"deltas":[{"op":%q,"u":0,"v":%d,"w":%d}]}`, op, u, w)
				}
				wantErrorJSON(t, do(t, s, "PATCH", "/v1/graphs/"+info.ID+"/edges", body(limit+1)), http.StatusBadRequest, want)
				if w := do(t, s, "PATCH", "/v1/graphs/"+info.ID+"/edges", body(limit)); w.Code != http.StatusOK {
					t.Fatalf("%s at the limit: %d %s", op, w.Code, w.Body.Bytes())
				}
			}
			g, _, _, err := s.registry.Resolve(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			decodeBody(t, query(fmt.Sprintf(`{"graph_id":%q}`, info.ID)), http.StatusOK, &resp)
			if want := graph.Dijkstra(g, 0); !reflect.DeepEqual(resp.Dist, want) {
				t.Fatalf("patched to the limit: dist %v, want %v", resp.Dist, want)
			}
		})
	}
}

// TestPathOperandErrorOrder pins the operand check order: with both source
// and target out of range the error names the source, every time.
func TestPathOperandErrorOrder(t *testing.T) {
	s := testServer(t)
	body := `{"graph":{"n":4,"edges":[[0,1,1],[1,2,1],[2,3,1]]},"source":9,"target":-1}`
	first := do(t, s, "POST", "/v1/path", body)
	wantErrorJSON(t, first, http.StatusBadRequest, "source 9 out of range [0,4)")
	var want ErrorResponse
	json.Unmarshal(first.Body.Bytes(), &want)
	for i := 0; i < 40; i++ {
		var got ErrorResponse
		json.Unmarshal(do(t, s, "POST", "/v1/path", body).Body.Bytes(), &got)
		if got.Error != want.Error {
			t.Fatalf("request %d: error %q, want %q", i, got.Error, want.Error)
		}
	}
}
