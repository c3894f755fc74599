package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"dsssp/internal/graph"
)

// Registry persistence: with -registry-dir set, every registered graph is
// spilled to <dir>/<id>.spill on register and PATCH (and on Flush, which
// the server calls at shutdown so traces accumulated by queries survive
// too), and reloaded on startup — a redeploy doesn't forget every
// registered graph. Files are written whole to a temp file, fsynced,
// renamed over the old spill and the directory fsynced, so a crash at any
// point leaves either the old file or the new one; a temp file the crash
// left behind is deleted at the next boot. The result cache is not
// persisted and starts empty after a restart; distance rows, witness trees
// and the change log — the expensive state — all survive.
//
// A spill (version 2) is little-endian binary:
//
//	magic "DSSSPILL", version u32
//	id length u32, id bytes
//	revision u64, n u32, created-at ns i64, patched-at ns i64 (0: never)
//	m u32, then m edges {u u32, v u32, w i64} in pair order, u < v
//	traces u32, each {src u32, rev u64, dist n×i64, parent n×i32}
//	log batches u32, each {rev u64, changes u32,
//	    each {u u32, v u32, old weight i64, new weight i64}}, u < v
//	CRC-32C u32 of everything before it
//
// Traces are sorted by source, log batches run one per revision from just
// after the oldest trace's revision to the head, and each batch keeps its
// changes in PATCH order (-1 weights mark an absent pair), so the encoding
// is a function of the registry state and a decoded spill re-encodes to
// the same bytes. The decoder checks the checksum first and then every
// field — that the log chains each pair's weights and leaves them at the
// head's edges included — and checks each count against the bytes left
// before it allocates. A version 1 spill, with a ledger per stale trace,
// is refused like any other unreadable file, and so is a spill an older
// build wrote with a generator graph's edges out of pair order.

const (
	spillExt     = ".spill"
	spillMagic   = "DSSSPILL"
	spillVersion = 2
	// maxSpillNodes bounds n, the one size a spill's byte count does not:
	// an n-node graph costs n adjacency headers even with no edges.
	maxSpillNodes = 1 << 21
	maxSpillID    = 128
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EnablePersistence turns on spill-to-disk under dir (created if missing)
// and reloads every graph already spilled there, least recently patched
// first so the LRU order favors recent activity. Temp files a crash left
// mid-spill are deleted. Returns how many graphs were restored; on any
// unreadable spill it returns an error naming the file and restores
// nothing. Call once, before the registry is shared.
func (r *GraphRegistry) EnablePersistence(dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var loaded []*regGraph
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(dir, name)
		switch {
		case e.IsDir():
			continue
		case strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-"):
			if err := os.Remove(path); err != nil {
				return 0, err
			}
			continue
		case !strings.HasSuffix(name, spillExt):
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		rg, err := decodeSpill(raw)
		if err == nil && rg.id+spillExt != name {
			err = fmt.Errorf("holds graph %q", rg.id)
		}
		if err != nil {
			return 0, fmt.Errorf("spill %s: %w", path, err)
		}
		loaded = append(loaded, rg)
	}
	sort.Slice(loaded, func(a, b int) bool { return recencyNS(loaded[a]) < recencyNS(loaded[b]) })

	r.mu.Lock()
	defer r.mu.Unlock()
	r.dir = dir
	for _, rg := range loaded {
		if _, dup := r.graphs[rg.id]; dup {
			return 0, fmt.Errorf("spill of %s: graph already registered", rg.id)
		}
	}
	for _, rg := range loaded {
		r.restoreLocked(rg)
	}
	return len(loaded), nil
}

func recencyNS(rg *regGraph) int64 {
	if !rg.patchedAt.IsZero() {
		return rg.patchedAt.UnixNano()
	}
	return rg.createdAt.UnixNano()
}

// restoreLocked admits one decoded graph.
func (r *GraphRegistry) restoreLocked(rg *regGraph) {
	rg.el = r.lru.PushFront(rg)
	r.graphs[rg.id] = rg
	r.bytes += rg.bytes
	r.evictLocked(rg)
}

// Flush spills every resident graph (traces accumulated since the last
// register/PATCH included). No-op without persistence.
func (r *GraphRegistry) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dir == "" {
		return nil
	}
	var first error
	for _, rg := range r.graphs {
		if err := r.writeLocked(rg); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// spillLocked is the best-effort per-mutation spill (register/PATCH). A
// failed spill never fails the mutation — persistence degrades, serving
// doesn't — but it does surface in the next Flush.
func (r *GraphRegistry) spillLocked(rg *regGraph) {
	if r.dir == "" {
		return
	}
	_ = r.writeLocked(rg)
}

func (r *GraphRegistry) unspillLocked(id string) {
	if r.dir == "" {
		return
	}
	_ = os.Remove(filepath.Join(r.dir, id+spillExt))
}

// writeLocked replaces rg's spill: encode into the registry's reused
// buffer, write and fsync a temp file, rename it over the spill, fsync the
// directory.
func (r *GraphRegistry) writeLocked(rg *regGraph) error {
	if n := rg.g.N(); n > maxSpillNodes {
		return fmt.Errorf("graph %s: n=%d is above the spill limit %d", rg.id, n, maxSpillNodes)
	}
	r.spillBuf = appendSpill(r.spillBuf[:0], rg)
	f, err := os.CreateTemp(r.dir, "."+rg.id+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(r.spillBuf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(r.dir, rg.id+spillExt))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(r.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendSpill appends rg's spill encoding to b.
func appendSpill(b []byte, rg *regGraph) []byte {
	le := binary.LittleEndian
	start := len(b)
	var patched int64
	if !rg.patchedAt.IsZero() {
		patched = rg.patchedAt.UnixNano()
	}
	b = append(b, spillMagic...)
	b = le.AppendUint32(b, spillVersion)
	b = le.AppendUint32(b, uint32(len(rg.id)))
	b = append(b, rg.id...)
	b = le.AppendUint64(b, uint64(rg.num))
	b = le.AppendUint32(b, uint32(rg.g.N()))
	b = le.AppendUint64(b, uint64(rg.createdAt.UnixNano()))
	b = le.AppendUint64(b, uint64(patched))

	edges := rg.g.Edges()
	b = le.AppendUint32(b, uint32(len(edges)))
	for _, e := range edges {
		b = le.AppendUint32(b, uint32(e.U))
		b = le.AppendUint32(b, uint32(e.V))
		b = le.AppendUint64(b, uint64(e.W))
	}

	srcs := make([]graph.NodeID, 0, len(rg.traces))
	for src := range rg.traces {
		srcs = append(srcs, src)
	}
	slices.Sort(srcs)
	b = le.AppendUint32(b, uint32(len(srcs)))
	for _, src := range srcs {
		tr := rg.traces[src]
		b = le.AppendUint32(b, uint32(src))
		b = le.AppendUint64(b, uint64(tr.rev))
		b = appendParent(appendDist(b, tr.dist), tr.parent)
	}

	b = le.AppendUint32(b, uint32(len(rg.log)))
	for _, batch := range rg.log {
		b = le.AppendUint64(b, uint64(batch.rev))
		b = le.AppendUint32(b, uint32(len(batch.changes)))
		for _, c := range batch.changes {
			b = le.AppendUint32(b, uint32(min(c.U, c.V)))
			b = le.AppendUint32(b, uint32(max(c.U, c.V)))
			b = le.AppendUint64(b, uint64(c.OldW))
			b = le.AppendUint64(b, uint64(c.NewW))
		}
	}
	return le.AppendUint32(b, crc32.Checksum(b[start:], castagnoli))
}

func appendDist(b []byte, dist []int64) []byte {
	for _, d := range dist {
		b = binary.LittleEndian.AppendUint64(b, uint64(d))
	}
	return b
}

func appendParent(b []byte, parent []graph.NodeID) []byte {
	for _, p := range parent {
		b = binary.LittleEndian.AppendUint32(b, uint32(p))
	}
	return b
}

// spillReader walks a spill body. Reads past the end set err and return
// zeros, so a decoder can check err once per record.
type spillReader struct {
	b   []byte
	err error
}

var errSpillShort = errors.New("truncated record")

func (r *spillReader) take(k int) []byte {
	if r.err != nil {
		return nil
	}
	if k > len(r.b) {
		r.err = errSpillShort
		return nil
	}
	out := r.b[:k]
	r.b = r.b[k:]
	return out
}

func (r *spillReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *spillReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// count reads a record count and refuses one whose records, at least
// size bytes each, would not fit in what is left.
func (r *spillReader) count(what string, size int) int {
	c := r.u32()
	if r.err == nil && uint64(c)*uint64(size) > uint64(len(r.b)) {
		r.err = fmt.Errorf("%s count %d overruns the %d bytes left", what, c, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return int(c)
}

// dist reads an n-entry distance row; every entry lies in [0, graph.Inf].
func (r *spillReader) dist(n int) ([]int64, error) {
	raw := r.take(8 * n)
	if r.err != nil {
		return nil, r.err
	}
	out := make([]int64, n)
	for i := range out {
		d := int64(binary.LittleEndian.Uint64(raw[8*i:]))
		if d < 0 || d > graph.Inf {
			return nil, fmt.Errorf("dist[%d] = %d outside [0,Inf]", i, d)
		}
		out[i] = d
	}
	return out, nil
}

// parent reads an n-entry witness tree; every entry lies in [-1, n).
func (r *spillReader) parent(n int) ([]graph.NodeID, error) {
	raw := r.take(4 * n)
	if r.err != nil {
		return nil, r.err
	}
	out := make([]graph.NodeID, n)
	for i := range out {
		p := graph.NodeID(int32(binary.LittleEndian.Uint32(raw[4*i:])))
		if p < -1 || int(p) >= n {
			return nil, fmt.Errorf("parent[%d] = %d outside [-1,%d)", i, p, n)
		}
		out[i] = p
	}
	return out, nil
}

// decodeSpill parses and validates one spill into a registry entry (not
// yet on the LRU list). The digest is recomputed from content, never
// trusted from disk.
func decodeSpill(data []byte) (*regGraph, error) {
	if len(data) < len(spillMagic)+8 {
		return nil, fmt.Errorf("truncated: %d bytes", len(data))
	}
	body := data[:len(data)-4]
	if string(body[:len(spillMagic)]) != spillMagic {
		return nil, errors.New("not a registry spill (bad magic)")
	}
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, errors.New("checksum mismatch (torn or corrupted spill)")
	}
	r := &spillReader{b: body[len(spillMagic):]}
	if v := r.u32(); v != spillVersion {
		return nil, fmt.Errorf("unsupported spill version %d", v)
	}
	idLen := r.count("id byte", 1)
	id := string(r.take(idLen))
	rev := r.u64()
	n64 := r.u32()
	created, patched := int64(r.u64()), int64(r.u64())
	if r.err != nil {
		return nil, fmt.Errorf("header: %w", r.err)
	}
	if !validSpillID(id) {
		return nil, fmt.Errorf("bad graph id %q", id)
	}
	if rev == 0 || rev > math.MaxInt64 {
		return nil, fmt.Errorf("revision %d outside [1,2^63)", rev)
	}
	if n64 == 0 || n64 > maxSpillNodes {
		return nil, fmt.Errorf("node count %d outside [1,%d]", n64, maxSpillNodes)
	}
	n := int(n64)

	edges := make([]graph.EdgeTriple, r.count("edge", 16))
	for i := range edges {
		u, v := graph.NodeID(int32(r.u32())), graph.NodeID(int32(r.u32()))
		edges[i] = graph.EdgeTriple{U: u, V: v, W: int64(r.u64())}
	}
	if r.err != nil {
		return nil, fmt.Errorf("edges: %w", r.err)
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, err
	}
	rg := &regGraph{id: id, createdAt: time.Unix(0, created), num: int(rev), digest: canonicalGraphDigest(g), g: g, bytes: graphBytes(g)}
	if patched != 0 {
		rg.patchedAt = time.Unix(0, patched)
	}

	nt := r.count("trace", 12+12*n)
	rg.traces = make(map[graph.NodeID]*sourceTrace, nt)
	prev, oldest := int64(-1), rg.num
	for i := 0; i < nt; i++ {
		src, trev := r.u32(), r.u64()
		if r.err == nil && (int64(src) <= prev || int(src) >= n || trev == 0 || trev > rev) {
			return nil, fmt.Errorf("trace %d: source %d out of order or outside [0,%d), or revision %d outside [1,%d]", i, src, n, trev, rev)
		}
		prev = int64(src)
		tr := &sourceTrace{rev: int(trev)}
		if tr.dist, err = r.dist(n); err == nil {
			tr.parent, err = r.parent(n)
		}
		if err != nil {
			return nil, fmt.Errorf("trace for source %d: %w", src, err)
		}
		rg.traces[graph.NodeID(src)] = tr
		rg.bytes += traceBytes(tr.dist, tr.parent)
		oldest = min(oldest, tr.rev)
	}

	// The log must hold exactly the batches after the oldest trace, one per
	// revision up to the head, and chain every pair's weights from batch
	// to batch into the head's edges.
	nb := r.count("log batch", 12)
	rg.log = make([]logBatch, nb)
	last := make(map[uint64]graph.WeightChange) // pair → its latest change
	for i := range rg.log {
		brev := r.u64()
		if want := uint64(oldest + 1 + i); r.err == nil && brev != want {
			return nil, fmt.Errorf("log batch %d: revision %d, want %d (one batch per revision after the oldest trace's %d)", i, brev, want, oldest)
		}
		changes := make([]graph.WeightChange, r.count("log change", 24))
		for j := range changes {
			u, v, ow, nw := r.u32(), r.u32(), int64(r.u64()), int64(r.u64())
			c := graph.WeightChange{U: graph.NodeID(u), V: graph.NodeID(v), OldW: ow, NewW: nw}
			k := graph.PairKey(c.U, c.V)
			prev, seen := last[k]
			if r.err == nil && (u >= v || v >= uint32(n) || ow < -1 || nw < -1 || ow == nw || (seen && prev.NewW != ow)) {
				return nil, fmt.Errorf("log batch %d: change %d (pair {%d,%d}, weight %d → %d) malformed or not chained to the pair's previous weight", i, j, u, v, ow, nw)
			}
			last[k] = c
			changes[j] = c
		}
		rg.log[i] = logBatch{rev: int(brev), changes: changes}
		rg.logBytes += logBatchBytes(rg.log[i])
	}
	rg.bytes += rg.logBytes
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if oldest+nb != rg.num {
		return nil, fmt.Errorf("log ends at revision %d, not at the head revision %d", oldest+nb, rg.num)
	}
	rg.held = make([]int, nb+1)
	for _, tr := range rg.traces {
		rg.held[rg.at(tr.rev)]++
	}
	for _, c := range last {
		head, ok := g.Weight(c.U, c.V)
		if !ok {
			head = -1
		}
		if c.NewW != head {
			return nil, fmt.Errorf("log leaves pair {%d,%d} at weight %d, but the head has %d", c.U, c.V, c.NewW, head)
		}
	}
	return rg, nil
}

// validSpillID accepts what Register mints ("g-" + hex, maybe "-k"): a
// short name of letters, digits, '-' and '_', safe as a file name.
func validSpillID(id string) bool {
	if id == "" || len(id) > maxSpillID {
		return false
	}
	for _, c := range []byte(id) {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '-' || c == '_') {
			return false
		}
	}
	return true
}
