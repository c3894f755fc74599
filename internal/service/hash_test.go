package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"testing"
	"time"

	"dsssp/internal/graph"
)

// pinnedDigest is canonicalGraphDigest of digestPinEdges on 7 nodes. The
// digest bytes name every registered handle (g-<first 8 bytes>) and key
// every cached result, so a change to them orphans every spill's handle
// and every cache entry: it must be deliberate.
const pinnedDigest = "8a1e281548a7d55f796c9c3e4aea84a6d8eaa16fd8f74d83e241067f21cd5a68"

// digestPinEdges is a small weighted graph in pair order, with a zero
// weight and an isolated node (6).
var digestPinEdges = [][3]int64{
	{0, 1, 4}, {0, 3, 7}, {0, 5, 1}, {1, 2, 0}, {1, 4, 9},
	{2, 3, 3}, {2, 5, 12}, {3, 4, 2}, {4, 5, 6},
}

// TestCanonicalDigestPinned builds one graph six ways — an inline spec
// with shuffled, reversed and repeated edges; FromEdges; AddEdge in a
// scrambled order with repeats; a generator graph patched to the same edge
// set; a spill round trip; a registered graph PATCHed to it — and requires
// every one to hash to the pinned digest and to register under the handle
// it names. The PATCHed one must also reach the pinned digest through the
// registry's own leaf update.
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

	// Registered with {1,4} at another weight, then PATCHed to the pinned
	// one: the registry rehashes only the changed block's leaf.
	off := slices.Clone(es)
	off[4].W = 3
	r := NewGraphRegistry(1<<20, nil, nil)
	offG, err := graph.FromEdges(n, off)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := r.Register(offG)
	pi, err := r.Patch(info.ID, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 4, V: 1, W: es[4].W}})
	if err != nil {
		t.Fatal(err)
	}
	if pi.Digest != pinnedDigest {
		t.Errorf("registry-patched: PATCH digest %s, pinned %s", pi.Digest, pinnedDigest)
	}
	ways["registry-patched"], _, _, _ = r.Resolve(info.ID)

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

// TestDigestDefinition recomputes the digest from its definition — a
// tagged SHA-256 leaf per block of 64 smaller endpoints over the block's
// (u,v,w) triples in pair order, and a tagged root over n, m and the
// leaves — from Edges(), on graphs of one block, several and none.
func TestDigestDefinition(t *testing.T) {
	le := binary.LittleEndian
	for _, n := range []int{0, 7, 64, 65, 300} {
		g := graph.Make(graph.FamilyRandom, n, graph.UniformWeights(50, 2), 2)
		blocks := make([][]byte, (n+63)/64)
		for b := range blocks {
			blocks[b] = []byte("dsssp-digest-leaf\x00")
		}
		for _, e := range g.Edges() {
			b := &blocks[e.U/64]
			*b = le.AppendUint64(le.AppendUint64(le.AppendUint64(*b, uint64(e.U)), uint64(e.V)), uint64(e.W))
		}
		root := le.AppendUint64(le.AppendUint64([]byte("dsssp-digest-root\x00"), uint64(n)), uint64(g.M()))
		for _, b := range blocks {
			leaf := sha256.Sum256(b)
			root = append(root, leaf[:]...)
		}
		if got, want := canonicalGraphDigest(g), sha256.Sum256(root); got != want {
			t.Errorf("n=%d: digest %x, by definition %x", n, got, want)
		}
	}
}

// TestPatchedDigestMatchesWhole PATCHes a registered 300-node graph (five
// leaf blocks) with batches that reweight, insert and delete pairs in one
// block or across several, and requires the registry's digest and leaves,
// which it updates block by block, to be those of the head hashed whole
// after every PATCH.
func TestPatchedDigestMatchesWhole(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(5))
	r := NewGraphRegistry(1<<30, nil, nil)
	info, _ := r.Register(graph.Make(graph.FamilyRandom, n, graph.UniformWeights(50, 5), 5))
	applied := 0
	for step := range 200 {
		g, _, _, _ := r.Resolve(info.ID)
		es := g.Edges()
		var batch []graph.EdgeDelta
		for k := 1 + rng.Intn(4); k > 0; k-- {
			e := es[rng.Intn(len(es))]
			switch rng.Intn(4) {
			case 0:
				if u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)); u != v {
					batch = append(batch, graph.EdgeDelta{Op: graph.DeltaInsert, U: u, V: v, W: rng.Int63n(50)})
				}
			case 1:
				batch = append(batch, graph.EdgeDelta{Op: graph.DeltaDelete, U: e.V, V: e.U})
			default:
				batch = append(batch, graph.EdgeDelta{Op: graph.DeltaReweight, U: e.U, V: e.V, W: e.W + 1 - rng.Int63n(3)})
			}
		}
		if _, err := r.Patch(info.ID, batch); err != nil {
			continue // a pair named twice, deleted first
		}
		applied++
		checkDigest(t, fmt.Sprint("step ", step), r.graphs[info.ID])
	}
	if applied < 150 {
		t.Fatalf("only %d of 200 batches applied", applied)
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
