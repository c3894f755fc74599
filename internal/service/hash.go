package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"dsssp/internal/graph"
)

// canonicalGraphDigest hashes the graph's canonical content: node count
// plus the edge set as (u,v,w) triples with u<v, sorted. Thanks to the
// keep-min AddEdge policy the edge set is duplicate-free, so two graphs
// hash equal iff they are the same weighted graph — regardless of how
// (inline vs generator, in which insertion order) they were described.
func canonicalGraphDigest(g *graph.Graph) [32]byte {
	es := g.Edges()
	sort.Slice(es, func(a, b int) bool {
		if es[a].U != es[b].U {
			return es[a].U < es[b].U
		}
		return es[a].V < es[b].V
	})
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(g.N()))
	put(int64(len(es)))
	for _, e := range es {
		put(int64(e.U))
		put(int64(e.V))
		put(e.W)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// queryKeyParts is the graph-independent half of a cache key: endpoint ×
// normalized options × query operands. Splitting the key this way is what
// makes edge-granular invalidation cheap — a PATCH that leaves a source
// untouched re-addresses its entries by hashing the *same* parts against
// the new revision digest (keyFromDigest), no recomputation and no
// knowledge of the original request needed beyond this string.
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
	return fmt.Sprintf("%s|model=%s|eps=%d/%d|strict=%v|maxr=%d|phases=%v|%s",
		endpoint, model, en, ed, o.StrictCongest, o.MaxRounds, o.RecordPhases, operands)
}

// keyFromDigest is the content address of one query result: canonical
// graph (its revision digest) × the normalized parts string (endpoint ×
// options × operands). Two requests with the same key are the same
// computation, so the cache may serve either's bytes for both.
func keyFromDigest(digest [32]byte, parts string) string {
	h := sha256.Sum256(fmt.Appendf(nil, "%x|%s", digest, parts))
	return hex.EncodeToString(h[:])
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
