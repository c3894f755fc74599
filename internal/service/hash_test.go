package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"dsssp/internal/graph"
)

// pinnedDigest is canonicalGraphDigest of digestPinEdges on 7 nodes. The
// digest bytes name every registered handle (g-<first 8 bytes>) and key
// every cached result, so a change to them orphans every spill's handle
// and every cache entry: it must be deliberate.
const pinnedDigest = "6a753b32160028964ed972b046485eac32a2a1b96166587bd26e29b45a371d8b"

// digestPinEdges is a small weighted graph in pair order, with a zero
// weight and an isolated node (6).
var digestPinEdges = [][3]int64{
	{0, 1, 4}, {0, 3, 7}, {0, 5, 1}, {1, 2, 0}, {1, 4, 9},
	{2, 3, 3}, {2, 5, 12}, {3, 4, 2}, {4, 5, 6},
}

// TestCanonicalDigestPinned builds one graph five ways — an inline spec
// with shuffled, reversed and repeated edges; FromEdges; AddEdge in a
// scrambled order with repeats; a generator graph patched to the same edge
// set; a spill round trip — and requires every one to hash to the pinned
// digest and to register under the handle it names.
func TestCanonicalDigestPinned(t *testing.T) {
	const n = 7
	ways := map[string]*graph.Graph{}

	// Inline: reversed endpoints, shuffled, with heavier repeats.
	spec := GraphSpec{N: n}
	for i, j := range []int{5, 2, 8, 0, 7, 3, 1, 6, 4} {
		e := digestPinEdges[j]
		if i%2 == 0 {
			e[0], e[1] = e[1], e[0]
		}
		spec.Edges = append(spec.Edges, e)
		if i%3 == 0 {
			spec.Edges = append(spec.Edges, [3]int64{e[0], e[1], e[2] + 5})
		}
	}
	g, err := buildGraph(spec, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ways["inline"] = g

	es := make([]graph.EdgeTriple, len(digestPinEdges))
	for i, e := range digestPinEdges {
		es[i] = graph.EdgeTriple{U: graph.NodeID(e[0]), V: graph.NodeID(e[1]), W: e[2]}
	}
	if ways["from-edges"], err = graph.FromEdges(n, es); err != nil {
		t.Fatal(err)
	}

	// AddEdge, scrambled: each pair first heavier, then at its weight.
	g = graph.New(n)
	for _, j := range []int{7, 1, 4, 8, 0, 6, 2, 5, 3} {
		e := digestPinEdges[j]
		g.AddEdge(graph.NodeID(e[1]), graph.NodeID(e[0]), e[2]+1)
	}
	for _, j := range []int{3, 8, 6, 0, 2, 5, 1, 7, 4} {
		e := digestPinEdges[j]
		g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), e[2])
	}
	g.SortAdj()
	ways["add-edge"] = g

	// A generator graph patched to the same edge set: delete what it has
	// beyond the set, reweight what differs, insert what is missing.
	base := graph.Make(graph.FamilyRandom, n, graph.UniformWeights(20, 4), 4)
	want := map[[2]graph.NodeID]int64{}
	for _, e := range es {
		want[[2]graph.NodeID{e.U, e.V}] = e.W
	}
	var ds []graph.EdgeDelta
	for _, e := range base.Edges() {
		w, ok := want[[2]graph.NodeID{e.U, e.V}]
		switch {
		case !ok:
			ds = append(ds, graph.EdgeDelta{Op: graph.DeltaDelete, U: e.U, V: e.V})
		case w != e.W:
			ds = append(ds, graph.EdgeDelta{Op: graph.DeltaReweight, U: e.U, V: e.V, W: w})
		}
	}
	for _, e := range es {
		if !base.HasEdge(e.U, e.V) {
			ds = append(ds, graph.EdgeDelta{Op: graph.DeltaInsert, U: e.V, V: e.U, W: e.W})
		}
	}
	changes, err := graph.ResolveDeltas(base, ds)
	if err != nil {
		t.Fatal(err)
	}
	ways["patched"] = graph.ApplyChanges(base, changes)

	rg, _, err := decodeSpill(appendSpill(nil, &regGraph{id: "g-pin", createdAt: time.Unix(0, 1), num: 1, g: ways["add-edge"]}))
	if err != nil {
		t.Fatal(err)
	}
	ways["spill"] = rg.g

	for name, g := range ways {
		d := canonicalGraphDigest(g)
		if got := hex.EncodeToString(d[:]); got != pinnedDigest {
			t.Errorf("%s: digest %s, pinned %s", name, got, pinnedDigest)
		}
		info, _ := NewGraphRegistry(1<<20, nil, nil).Register(g)
		if info.ID != "g-"+pinnedDigest[:16] {
			t.Errorf("%s: registered as %s, want g-%s", name, info.ID, pinnedDigest[:16])
		}
	}
}

// TestCacheBodiesIndependentOfRepresentation checks the cache-keying
// promise end to end: a generator spec (or the handle of a registered
// generator graph) and an inline listing of the same edges share one
// cache entry, so the entry's body must be the body a fresh server
// computes for the inline query. It holds only if the simulation, which
// reads EdgeIDs, is a function of the edge set, as the digest is.
func TestCacheBodiesIndependentOfRepresentation(t *testing.T) {
	type rep struct {
		name string
		spec GraphSpec
		// register queries the spec through a registered handle instead
		// of as a generator spec.
		register bool
	}
	var reps []rep
	for _, f := range []string{"random", "cycle", "expander", "barbell", "powerlaw", "cluster", "disconnected"} {
		reps = append(reps, rep{name: f, spec: GraphSpec{Family: f, N: 48, Seed: 1, Weights: &WeightSpec{Kind: "uniform", MaxW: 48}}})
	}
	reps = append(reps, rep{name: "registered-random", register: true,
		spec: GraphSpec{Family: "random", N: 48, Seed: 2, Weights: &WeightSpec{Kind: "uniform", MaxW: 48}}})

	query := func(t *testing.T, s *Server, spec GraphSpec, want string) []byte {
		t.Helper()
		b, err := json.Marshal(map[string]any{"graph": spec, "source": 3})
		if err != nil {
			t.Fatal(err)
		}
		w := do(t, s, "POST", "/v1/sssp", string(b))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
		}
		if got := w.Header().Get("X-Dsssp-Cache"); got != want {
			t.Fatalf("cache %s, want %s", got, want)
		}
		return w.Body.Bytes()
	}
	for _, r := range reps {
		t.Run(r.name, func(t *testing.T) {
			g, err := buildGraph(r.spec, 4096)
			if err != nil {
				t.Fatal(err)
			}
			// The inline listing: reversed, endpoints flipped.
			inline := GraphSpec{N: g.N()}
			es := g.Edges()
			for i := len(es) - 1; i >= 0; i-- {
				inline.Edges = append(inline.Edges, [3]int64{int64(es[i].V), int64(es[i].U), es[i].W})
			}

			s := testServer(t)
			first := r.spec
			if r.register {
				b, _ := json.Marshal(map[string]any{"graph": r.spec})
				var info GraphInfo
				decodeBody(t, do(t, s, "POST", "/v1/graphs", string(b)), http.StatusCreated, &info)
				first = GraphSpec{ID: info.ID}
			}
			query(t, s, first, "miss")
			shared := query(t, s, inline, "hit")
			fresh := query(t, testServer(t), inline, "miss")
			if !bytes.Equal(shared, fresh) {
				t.Fatalf("the shared entry's body differs from a fresh inline computation:\nshared %s\n fresh %s", shared, fresh)
			}
		})
	}
}
