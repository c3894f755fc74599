package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dsssp/internal/graph"
)

// memoWeights are the weight specs the memo tests cross with every
// generator family: omitted, explicit unit, and both seeded kinds (uniform
// at two max_w, which must not share a memo entry).
var memoWeights = []*WeightSpec{
	nil,
	{Kind: "unit"},
	{Kind: "uniform", MaxW: 16},
	{Kind: "uniform", MaxW: 5},
	{Kind: "zero-heavy", MaxW: 16},
}

// TestSpecMemoMatchesRebuild pins the memo against a rebuild: for every
// family and weight kind, at two sizes and two seeds, all memoized into
// one cache (so a key that dropped a field would answer for another
// spec), the digest and n the memo returns equal buildGraph +
// canonicalGraphDigest, on the miss that fills the memo and on the hit
// that reads it back without building. (Omitted and unit weights share a
// memo key, so the unit spelling's first lookup is a hit.)
func TestSpecMemoMatchesRebuild(t *testing.T) {
	s := testServer(t)
	memoized := map[string]bool{}
	for _, fam := range graph.Families() {
		for _, ws := range memoWeights {
			for _, size := range []struct{ n, seed int }{{24, 11}, {24, 12}, {40, 11}} {
				spec := GraphSpec{Family: string(fam), N: size.n, Seed: int64(size.seed), Weights: ws}
				name := fmt.Sprintf("%s n=%d seed=%d %+v", fam, size.n, size.seed, ws)
				g, err := buildGraph(spec, s.cfg.MaxN, s.cfg.MaxEdges)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := canonicalGraphDigest(g)
				key := specMemoKey(spec)
				for _, pass := range []string{"first", "repeat"} {
					rg, err := s.resolveGenerator(spec)
					if err != nil {
						t.Fatalf("%s %s: %v", name, pass, err)
					}
					if built := rg.g != nil; built == memoized[key] {
						t.Fatalf("%s %s: graph built = %v", name, pass, built)
					}
					memoized[key] = true
					if rg.digest != want || rg.n != g.N() {
						t.Fatalf("%s %s: memo gives (%x, n=%d), rebuild (%x, n=%d)",
							name, pass, rg.digest[:4], rg.n, want[:4], g.N())
					}
					if canonicalGraphDigest(rg.load()) != want {
						t.Fatalf("%s %s: the graph load builds hashes differently", name, pass)
					}
				}
			}
		}
	}
}

// TestSpecMemoLazyBuildBytes checks the path the memo opens: a spec whose
// digest is memoized but whose result is not cached builds its graph on the
// compute path, and answers with the bytes a fresh server computes.
func TestSpecMemoLazyBuildBytes(t *testing.T) {
	spec := `{"family":"expander","n":12,"seed":4,"weights":{"kind":"uniform","max_w":9}}`
	warm := testServer(t)
	for _, q := range []struct{ path, body string }{
		{"/v1/sssp", `{"graph":` + spec + `,"source":0}`},
		{"/v1/sssp", `{"graph":` + spec + `,"source":1}`},
		{"/v1/path", `{"graph":` + spec + `,"source":2,"target":7}`},
		{"/v1/apsp", `{"graph":` + spec + `,"seed":3}`},
	} {
		path, body := q.path, q.body
		w := do(t, warm, "POST", path, body)
		fresh := do(t, testServer(t), "POST", path, body)
		if w.Code != http.StatusOK || fresh.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d / %d: %s", path, body, w.Code, fresh.Code, w.Body.String())
		}
		if w.Header().Get("X-Dsssp-Cache") != "miss" {
			t.Fatalf("%s %s: X-Dsssp-Cache = %q, want miss", path, body, w.Header().Get("X-Dsssp-Cache"))
		}
		if !bytes.Equal(w.Body.Bytes(), fresh.Body.Bytes()) {
			t.Fatalf("%s %s: memo-resolved body differs from a fresh server's", path, body)
		}
	}
}

// TestSpecMemoUnitSpellings checks that omitted weights and
// {"kind":"unit"} name one graph: one memo key, one cache key, one body.
func TestSpecMemoUnitSpellings(t *testing.T) {
	omitted := GraphSpec{Family: "random", N: 32, Seed: 9}
	unit := GraphSpec{Family: "random", N: 32, Seed: 9, Weights: &WeightSpec{Kind: "unit"}}
	if a, b := specMemoKey(omitted), specMemoKey(unit); a != b {
		t.Fatalf("memo keys differ: %q vs %q", a, b)
	}
	s := testServer(t)
	a := do(t, s, "POST", "/v1/sssp", `{"graph":{"family":"random","n":32,"seed":9},"source":5}`)
	b := do(t, s, "POST", "/v1/sssp", `{"graph":{"family":"random","n":32,"seed":9,"weights":{"kind":"unit"}},"source":5}`)
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("status %d / %d", a.Code, b.Code)
	}
	if a.Header().Get("X-Dsssp-Cache") != "miss" || b.Header().Get("X-Dsssp-Cache") != "hit" {
		t.Fatalf("X-Dsssp-Cache = %q then %q, want miss then hit",
			a.Header().Get("X-Dsssp-Cache"), b.Header().Get("X-Dsssp-Cache"))
	}
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Fatal("omitted and unit weights answered different bytes")
	}
	if st := s.cache.Stats(); st.Entries != 1 || s.cache.memos != 1 {
		t.Fatalf("entries %d, memo entries %d; want 1 and 1", st.Entries, s.cache.memos)
	}
}

// TestSpecMemoRejectsInvalid checks that invalid generator queries give the
// same 400 on the first request and on repeats — also once a valid spec of
// the same family and seed is memoized — and that no invalid spec enters
// the memo or touches the result cache's counters.
func TestSpecMemoRejectsInvalid(t *testing.T) {
	limit := graph.MaxSafeWeight(16)
	// validSpec marks the out-of-range operands: they ride on a valid
	// spec, which is memoized; no other case may leave a memo entry.
	cases := []struct {
		name, path, body, substr string
		validSpec                bool
	}{
		{"unknown family", "/v1/sssp", `{"graph":{"family":"moebius","n":16,"seed":5}}`, "unknown graph family", false},
		{"n below 4", "/v1/sssp", `{"graph":{"family":"random","n":3,"seed":5}}`, "n in [4,", false},
		{"n above MaxN", "/v1/sssp", `{"graph":{"family":"random","n":5000,"seed":5}}`, "n in [4,", false},
		{"family plus edges", "/v1/sssp", `{"graph":{"family":"random","n":16,"seed":5,"edges":[[0,1,1]]}}`, "mutually exclusive", false},
		{"max_w over limit", "/v1/sssp", fmt.Sprintf(`{"graph":{"family":"random","n":16,"seed":5,"weights":{"kind":"uniform","max_w":%d}}}`, limit+1), "exceeds the weight limit", false},
		{"unknown weight kind", "/v1/sssp", `{"graph":{"family":"random","n":16,"seed":5,"weights":{"kind":"pareto","max_w":4}}}`, "unknown weight kind", false},
		{"source out of range", "/v1/sssp", `{"graph":{"family":"random","n":16,"seed":5},"source":16}`, "source 16 out of range [0,16)", true},
		{"target out of range", "/v1/path", `{"graph":{"family":"random","n":16,"seed":5},"source":0,"target":-1}`, "target -1 out of range [0,16)", true},
	}
	type reply struct {
		code       int
		error, key string
	}
	get := func(t *testing.T, s *Server, path, body, substr string) reply {
		t.Helper()
		w := do(t, s, "POST", path, body)
		wantErrorJSON(t, w, http.StatusBadRequest, substr)
		var e ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		return reply{w.Code, e.Error, e.Code}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testServer(t)
			first := get(t, s, tc.path, tc.body, tc.substr)
			if memos := s.cache.memos; tc.validSpec != (memos == 1) {
				t.Fatalf("memo entries after the first request: %d", memos)
			}
			valid := do(t, s, "POST", "/v1/sssp", `{"graph":{"family":"random","n":16,"seed":5},"source":1}`)
			if valid.Code != http.StatusOK {
				t.Fatalf("valid spec: %d %s", valid.Code, valid.Body.String())
			}
			before := s.cache.Stats()
			for i := 0; i < 3; i++ {
				if again := get(t, s, tc.path, tc.body, tc.substr); again != first {
					t.Fatalf("repeat %d answered %+v, first %+v", i, again, first)
				}
			}
			if after := s.cache.Stats(); after != before || s.cache.memos != 1 {
				t.Fatalf("invalid repeats moved the cache: %+v -> %+v, memo entries %d", before, after, s.cache.memos)
			}
		})
	}
}

// TestSpecMemoBookkeeping pins how memo entries sit in the result cache:
// lookups count neither hits nor misses, entries are charged to the byte
// budget, and an evicted entry is rebuilt with identical response bytes.
func TestSpecMemoBookkeeping(t *testing.T) {
	const bodyA = `{"graph":{"family":"random","n":40,"seed":21},"source":3}`
	spec := GraphSpec{Family: "random", N: 40, Seed: 21}
	g, err := buildGraph(spec, 4096, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	queryKey := keyFromDigest(canonicalGraphDigest(g), queryKeyParts("sssp", QueryOptions{}, "src=3"))
	memoKey := specMemoKey(spec)

	t.Run("counters", func(t *testing.T) {
		s := testServer(t)
		first := do(t, s, "POST", "/v1/sssp", bodyA)
		st := s.cache.Stats()
		if st.Hits != 0 || st.Misses != 1 || st.Entries != 1 {
			t.Fatalf("after the miss: %+v", st)
		}
		stored := bytes.TrimSuffix(first.Body.Bytes(), []byte("\n"))
		if want := entryCost(queryKey, stored) + entryCost(memoKey, make([]byte, 40)); st.BytesUsed != want {
			t.Fatalf("BytesUsed = %d, want %d (result plus memo entry)", st.BytesUsed, want)
		}
		const k = 7
		for i := 0; i < k; i++ {
			if w := do(t, s, "POST", "/v1/sssp", bodyA); w.Header().Get("X-Dsssp-Cache") != "hit" {
				t.Fatalf("repeat %d missed", i)
			}
		}
		if got := s.cache.Stats(); got.Hits != st.Hits+k || got.Misses != st.Misses {
			t.Fatalf("%d hits moved Hits %d -> %d, Misses %d -> %d", k, st.Hits, got.Hits, st.Misses, got.Misses)
		}
	})

	t.Run("memo dropped, result resident", func(t *testing.T) {
		s := testServer(t)
		first := do(t, s, "POST", "/v1/sssp", bodyA)
		s.cache.mu.Lock()
		el, ok := s.cache.items[memoKey]
		if ok {
			s.cache.removeLocked(el)
		}
		s.cache.mu.Unlock()
		if !ok {
			t.Fatal("memo entry was not resident")
		}
		w := do(t, s, "POST", "/v1/sssp", bodyA)
		if w.Header().Get("X-Dsssp-Cache") != "hit" || !bytes.Equal(w.Body.Bytes(), first.Body.Bytes()) {
			t.Fatal("the result entry did not answer byte-identically after the memo entry went")
		}
		if _, _, ok := s.cache.specDigest(memoKey); !ok {
			t.Fatal("the memo entry was not rebuilt")
		}
	})

	t.Run("evicted under the budget", func(t *testing.T) {
		ref := do(t, testServer(t), "POST", "/v1/sssp", bodyA)
		stored := bytes.TrimSuffix(ref.Body.Bytes(), []byte("\n"))
		// Room for exactly A's result and memo entry: the next spec's memo
		// entry evicts A's (the LRU end), its result evicts A's result.
		s, err := New(Config{Workers: 4, CacheBytes: entryCost(queryKey, stored) + entryCost(memoKey, make([]byte, 40))})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		do(t, s, "POST", "/v1/sssp", bodyA)
		do(t, s, "POST", "/v1/sssp", `{"graph":{"family":"random","n":40,"seed":22},"source":3}`)
		if _, _, ok := s.cache.specDigest(memoKey); ok {
			t.Fatal("A's memo entry survived; the budget arithmetic is off")
		}
		// Evictions counts results only: A's result, if B's took its room.
		wantEvictions := int64(0)
		if _, resident := s.cache.items[queryKey]; !resident {
			wantEvictions = 1
		}
		if st := s.cache.Stats(); st.Evictions != wantEvictions {
			t.Fatalf("Evictions = %d, want %d (memo evictions are not counted)", st.Evictions, wantEvictions)
		}
		w := do(t, s, "POST", "/v1/sssp", bodyA)
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), ref.Body.Bytes()) {
			t.Fatalf("rebuilt answer differs: %d %s", w.Code, w.Body.String())
		}
		if _, _, ok := s.cache.specDigest(memoKey); !ok {
			t.Fatal("the memo entry was not rebuilt")
		}
	})
}

// hotSpecBody is one serve-hot query: an SSSP on a random n=128 generator
// spec with (omitted, so) unit weights.
const hotSpecBody = `{"graph":{"family":"random","n":128,"seed":1234567},"source":17}`

// TestGeneratorSpecHitAllocs pins the cost of a generator-spec cache hit
// through the full handler stack, unsampled: the key comes from the spec
// memo, so the hit allocates no graph. Building and hashing the n=128
// graph on every hit cost 495 allocations per request.
func TestGeneratorSpecHitAllocs(t *testing.T) {
	s := tracingServer(t, -1, 0, 0)
	h := s.Handler()
	serve := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/sssp", strings.NewReader(hotSpecBody)))
		return w
	}
	if w := serve(); w.Code != http.StatusOK {
		t.Fatalf("warmup: %d %s", w.Code, w.Body.String())
	}
	allocs := testing.AllocsPerRun(200, func() {
		if w := serve(); w.Header().Get("X-Dsssp-Cache") != "hit" {
			panic("generator-spec repeat missed the cache")
		}
	})
	if allocs > 120 {
		t.Fatalf("generator-spec SSSP hit allocates %.0f per request, budget 120", allocs)
	}
}
