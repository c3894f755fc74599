package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"

	"dsssp/internal/graph"
	"dsssp/internal/harness"
)

// digestBlock is the number of consecutive smaller endpoints whose pairs
// one leaf of the content digest hashes.
const digestBlock = 64

// Domain tags of the digest's two levels, so that no leaf's input can be
// read as a root's.
var (
	leafTag = []byte("dsssp-digest-leaf\x00")
	rootTag = []byte("dsssp-digest-root\x00")
)

// canonicalGraphDigest hashes the graph's canonical content: node count,
// edge count and the edge set as (u,v,w) triples with u<v in pair order,
// each number 8 bytes little-endian. Thanks to the keep-min AddEdge policy
// the edge set is duplicate-free, so two graphs hash equal iff they are
// the same weighted graph — regardless of how (inline vs generator, in
// which insertion order) they were described. Every built graph numbers
// its edges in pair order, so equal digests also mean equal EdgeIDs and
// equal simulations.
//
// The hash has two levels of SHA-256 (see digestLeaves and digestRoot): a
// leaf per block of digestBlock smaller endpoints over that block's
// triples, and a root over n, m and the leaves. A PATCH rehashes only the
// leaves of the blocks it changes (patchLeaves) and then the root.
func canonicalGraphDigest(g *graph.Graph) [32]byte {
	return digestRoot(g.N(), g.M(), digestLeaves(g))
}

// digestLeaves returns g's leaf hashes, one per block of digestBlock
// smaller endpoints. g must be built (its adjacency sorted, as FromEdges,
// the generators and ApplyChanges leave it): the pairs are read off it —
// each u's halves toward higher nodes, u ascending — without listing the
// edges.
func digestLeaves(g *graph.Graph) [][32]byte {
	leaves := make([][32]byte, (g.N()+digestBlock-1)/digestBlock)
	lh := newLeafHasher()
	for b := range leaves {
		leaves[b] = lh.leaf(g, b)
	}
	return leaves
}

// patchLeaves rehashes, in leaves, the blocks of g that hold a pair of
// changes: leaves are the digest leaves of the graph changes led to g.
func patchLeaves(g *graph.Graph, leaves [][32]byte, changes []graph.WeightChange) {
	lh := newLeafHasher()
	done := make(map[int]bool, len(changes))
	for _, c := range changes {
		if b := int(min(c.U, c.V)) / digestBlock; !done[b] {
			done[b] = true
			leaves[b] = lh.leaf(g, b)
		}
	}
}

// digestRoot is the content digest of an n-node, m-edge graph whose leaf
// hashes are leaves.
func digestRoot(n, m int, leaves [][32]byte) [32]byte {
	le := binary.LittleEndian
	buf := make([]byte, 0, len(rootTag)+16+32*len(leaves))
	buf = le.AppendUint64(le.AppendUint64(append(buf, rootTag...), uint64(n)), uint64(m))
	for _, l := range leaves {
		buf = append(buf, l[:]...)
	}
	return sha256.Sum256(buf)
}

// leafHasher hashes digest leaves through one reused hash and buffer.
type leafHasher struct {
	h   hash.Hash
	buf []byte
}

func newLeafHasher() *leafHasher {
	return &leafHasher{h: sha256.New(), buf: make([]byte, 0, 4096)}
}

// leaf hashes block b of g: the leaf tag, then the (u,v,w) triples of the
// pairs whose smaller endpoint u lies in the block, in pair order. They are
// fed to the hash in 4 KiB chunks, so a hub's block is never held whole.
func (lh *leafHasher) leaf(g *graph.Graph, b int) [32]byte {
	le := binary.LittleEndian
	lh.h.Reset()
	buf := append(lh.buf[:0], leafTag...)
	for u := b * digestBlock; u < min((b+1)*digestBlock, g.N()); u++ {
		for _, e := range g.Adj(graph.NodeID(u)) {
			if e.To <= graph.NodeID(u) {
				continue
			}
			if len(buf)+24 > cap(buf) {
				lh.h.Write(buf)
				buf = buf[:0]
			}
			buf = le.AppendUint64(le.AppendUint64(le.AppendUint64(buf, uint64(u)), uint64(e.To)), uint64(e.W))
		}
	}
	lh.h.Write(buf)
	var out [32]byte
	lh.h.Sum(out[:0])
	return out
}

// queryKeyParts is the graph-independent half of a cache key: endpoint ×
// normalized options × query operands. keyFromDigest hashes it against the
// canonical content digest, so inline graphs, generator specs and
// registered revisions with the same content share one entry per query.
func queryKeyParts(endpoint string, o QueryOptions, operands string) string {
	// Normalize the option encoding so semantically identical requests
	// share an entry: the model default is spelled out, the ε default 1/2
	// is applied, and the fraction is reduced.
	model := o.Model
	if model == "" {
		model = "congest"
	}
	en, ed := o.EpsNum, o.EpsDen
	if en == 0 && ed == 0 {
		en, ed = 1, 2
	}
	if g := gcd(en, ed); g > 1 {
		en, ed = en/g, ed/g
	}
	return fmt.Sprintf("%s|model=%s|eps=%d/%d|strict=%v|maxr=%d|%s",
		endpoint, model, en, ed, o.StrictCongest, o.MaxRounds, operands)
}

// keyFromDigest is the content address of one query result: canonical
// graph (its revision digest) × the normalized parts string (endpoint ×
// options × operands). Two requests with the same key are the same
// computation, so the cache may serve either's bytes for both.
func keyFromDigest(digest [32]byte, parts string) string {
	h := sha256.Sum256(fmt.Appendf(nil, "%x|%s", digest, parts))
	return hex.EncodeToString(h[:])
}

// specMemoKey is a validated generator spec's key in the spec memo (see
// Cache.specDigest): every field makeGenerator reads — family, n, seed,
// weight kind and max_w. Unit weights read neither the weight seed nor
// max_w, so every spelling of them (omitted, "" or "unit", any max_w)
// shares one key. Query keys are 64 hex digits; a memo key starts with
// "spec|" and so never collides with one.
func specMemoKey(spec GraphSpec) string {
	kind, maxW := string(harness.WeightUnit), int64(0)
	if w := spec.Weights; w != nil && w.Kind != "" && w.Kind != kind {
		kind, maxW = w.Kind, w.MaxW
	}
	b := append(make([]byte, 0, 64), "spec|"...)
	b = append(b, spec.Family...)
	b = strconv.AppendInt(append(b, '|'), int64(spec.N), 10)
	b = strconv.AppendInt(append(b, '|'), spec.Seed, 10)
	b = append(append(b, '|'), kind...)
	b = strconv.AppendInt(append(b, '|'), maxW, 10)
	return string(b)
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}
