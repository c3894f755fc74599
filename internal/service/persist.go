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
// spilled to <dir>/<id>.spill and reloaded on startup — a redeploy doesn't
// forget every registered graph. The result cache is not persisted and
// starts empty after a restart; distance rows, witness trees and the
// change log — the expensive state — all survive.
//
// A spill is a base plus an append-only journal. The base is the whole
// graph as it stood when the file was last rewritten: register, Flush
// (which the server calls at shutdown, so traces accumulated by queries
// survive too) and compaction write it to a temp file, fsync it, rename
// it over the old spill and fsync the directory, so a crash at any point
// leaves either the old file or the new one; a temp file the crash left
// behind is deleted at the next boot. A PATCH instead appends one journal
// record, its resolved weight changes, and fsyncs the file. It rewrites
// the file whole (compacts) only when the journal would outweigh the head
// snapshot (graphBytes, the bound regGraph.capLog puts on the change log),
// when a trace was admitted for a source that held none since the last
// rewrite (so a freshly computed row is as crash-safe as it was before the
// journal), or when the graph's previous spill failed (an append may have
// left a partial record behind). A repaired row that replaces a stale
// trace is not journaled: on disk the stale trace and every batch since
// the base remain, so after a crash that source is repaired again, not
// recomputed.
//
// A spill (version 3) is little-endian binary. The base:
//
//	magic "DSSSPILL", version u32, base length u64 (bytes, CRC included)
//	id length u32, id bytes
//	revision u64, n u32, created-at ns i64, patched-at ns i64 (0: never)
//	m u32, then m edges {u u32, v u32, w i64} in pair order, u < v
//	traces u32, each {src u32, rev u64, dist n×i64, parent n×i32}
//	log batches u32, each {rev u64, changes u32,
//	    each {u u32, v u32, old weight i64, new weight i64}}, u < v
//	CRC-32C u32 of the base before it
//
// and then zero or more journal records, one per PATCH since the base:
//
//	length u32 (16 + 24×changes), its complement u32
//	revision u64, patched-at ns i64
//	changes × {u u32, v u32, old weight i64, new weight i64}, u < v
//	CRC-32C u32 of the record before it
//
// Traces are sorted by source, log batches run one per revision from just
// after the oldest trace's revision to the base's revision, and each batch
// keeps its changes in PATCH order (-1 weights mark an absent pair), so a
// base is a function of the registry state and a decoded spill without a
// journal re-encodes to the same bytes. The decoder checks the version and
// the base's checksum first and then every field — that the log chains
// each pair's weights from batch to batch and leaves them at the base's
// edges included — and checks each count against the bytes left before it
// allocates. It then replays the journal through regGraph.advance, the
// step a live PATCH takes, requiring each record to carry the next
// revision and chain every pair's weights on from the base, and builds the
// head snapshot and its digest once, from all the records' changes.
//
// A final record that is cut short or fails its checksum was never
// acknowledged to a client (the PATCH replies after the fsync): boot drops
// it and truncates the file. Damage to the base or to any earlier record
// stops the boot with an error naming the file. Spills of versions 1 and 2
// (no journal; version 1 kept a ledger per stale trace) are refused like
// any other unreadable file, and so is a spill an older build wrote with a
// generator graph's edges out of pair order.

const (
	spillExt     = ".spill"
	spillMagic   = "DSSSPILL"
	spillVersion = 3
	// spillHead is the fixed prefix every base starts with: magic,
	// version and base length.
	spillHead = len(spillMagic) + 4 + 8
	// recordHead is a journal record's length and its complement.
	recordHead = 8
	// maxSpillNodes bounds n, the one size a spill's byte count does not:
	// an n-node graph costs n adjacency headers even with no edges.
	maxSpillNodes = 1 << 21
	maxSpillID    = 128
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EnablePersistence turns on spill-to-disk under dir (created if missing)
// and reloads every graph already spilled there, least recently patched
// first so the LRU order favors recent activity. Temp files a crash left
// mid-spill are deleted, and so is a torn final journal record. Returns
// how many graphs were restored; on any unreadable spill it returns an
// error naming the file and restores nothing. Call once, before the
// registry is shared.
func (r *GraphRegistry) EnablePersistence(dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var loaded []*regGraph
	torn := map[*regGraph]int{} // graph → the bytes of its base and whole records
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
		rg, size, err := decodeSpill(raw)
		if err == nil && rg.id+spillExt != name {
			err = fmt.Errorf("holds graph %q", rg.id)
		}
		if err != nil {
			return 0, fmt.Errorf("spill %s: %w", path, err)
		}
		if size < len(raw) {
			torn[rg] = size
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
		// A tail that cannot be cut off would sit before the next record:
		// rewrite the file whole at the next spill instead.
		if size, ok := torn[rg]; ok && os.Truncate(filepath.Join(dir, rg.id+spillExt), int64(size)) != nil {
			rg.rewrite = true
		}
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

// Flush rewrites every resident graph's spill whole (traces accumulated
// since the last rewrite included, the journal folded into the base). It
// returns the first failure; each is also counted and logged. No-op
// without persistence.
func (r *GraphRegistry) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, rg := range r.graphs {
		if err := r.spillLocked(rg); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// spillLocked rewrites rg's spill whole: a base of the graph as it stands
// and an empty journal. Register, Flush and compaction call it. A failed
// spill never fails the mutation that made it — persistence degrades,
// serving doesn't — but it is counted in RegistryStats.SpillErrors and
// logged, and the graph's next spill rewrites the file whole.
func (r *GraphRegistry) spillLocked(rg *regGraph) error {
	if r.dir == "" {
		return nil
	}
	err := r.writeLocked(rg)
	r.spilledLocked(rg, err)
	return err
}

// journalLocked spills the PATCH that made rg's head, whose resolved
// batch is changes: it appends one journal record and fsyncs it, or
// compacts — rewrites the file whole — when the journal would outweigh
// the head snapshot, when a trace was admitted for a source that held none
// since the last rewrite, or after a failed spill.
func (r *GraphRegistry) journalLocked(rg *regGraph, changes []graph.WeightChange) {
	if r.dir == "" {
		return
	}
	r.spillBuf = appendRecord(r.spillBuf[:0], rg, changes)
	if rg.rewrite || rg.journal+int64(len(r.spillBuf)) > graphBytes(rg.g) {
		r.spillLocked(rg)
		return
	}
	err := appendFile(filepath.Join(r.dir, rg.id+spillExt), r.spillBuf)
	if err == nil {
		rg.journal += int64(len(r.spillBuf))
	}
	r.spilledLocked(rg, err)
}

// spilledLocked books one spill's outcome: a failure is counted and
// logged once, and makes the graph's next spill a whole rewrite.
func (r *GraphRegistry) spilledLocked(rg *regGraph, err error) {
	if err == nil {
		return
	}
	rg.rewrite = true
	r.spillErrors++
	if r.log != nil {
		r.log.Error("registry spill failed", "graph", rg.id, "revision", rg.num, "err", err)
	}
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
	if err == nil {
		rg.journal, rg.rewrite = 0, false
	}
	return err
}

// appendFile appends b to the existing file at path and fsyncs it. It
// never creates the file: a journal record without its base is no spill.
func appendFile(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendSpill appends the base encoding of rg to b.
func appendSpill(b []byte, rg *regGraph) []byte {
	le := binary.LittleEndian
	start := len(b)
	var patched int64
	if !rg.patchedAt.IsZero() {
		patched = rg.patchedAt.UnixNano()
	}
	b = append(b, spillMagic...)
	b = le.AppendUint32(b, spillVersion)
	b = le.AppendUint64(b, 0) // the base length, filled in below
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
		b = appendChanges(b, batch.changes)
	}
	le.PutUint64(b[start+len(spillMagic)+4:], uint64(len(b)-start+4))
	return le.AppendUint32(b, crc32.Checksum(b[start:], castagnoli))
}

// appendRecord appends the journal record of the PATCH that made rg's
// head, whose resolved batch is changes, to b.
func appendRecord(b []byte, rg *regGraph, changes []graph.WeightChange) []byte {
	le := binary.LittleEndian
	start, size := len(b), uint32(16+24*len(changes))
	b = le.AppendUint32(b, size)
	b = le.AppendUint32(b, ^size)
	b = le.AppendUint64(b, uint64(rg.num))
	b = le.AppendUint64(b, uint64(rg.patchedAt.UnixNano()))
	b = appendChanges(b, changes)
	return le.AppendUint32(b, crc32.Checksum(b[start:], castagnoli))
}

// appendChanges appends changes with each pair stored u < v.
func appendChanges(b []byte, changes []graph.WeightChange) []byte {
	le := binary.LittleEndian
	for _, c := range changes {
		b = le.AppendUint32(b, uint32(min(c.U, c.V)))
		b = le.AppendUint32(b, uint32(max(c.U, c.V)))
		b = le.AppendUint64(b, uint64(c.OldW))
		b = le.AppendUint64(b, uint64(c.NewW))
	}
	return b
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
// yet on the LRU list), replaying its journal. It returns the bytes of the
// base and the whole records; a torn final record after them is dropped.
// The digest is recomputed from content, never trusted from disk.
func decodeSpill(data []byte) (*regGraph, int, error) {
	le := binary.LittleEndian
	if len(data) < spillHead {
		return nil, 0, fmt.Errorf("truncated: %d bytes", len(data))
	}
	if string(data[:len(spillMagic)]) != spillMagic {
		return nil, 0, errors.New("not a registry spill (bad magic)")
	}
	if v := le.Uint32(data[len(spillMagic):]); v != spillVersion {
		return nil, 0, fmt.Errorf("unsupported spill version %d", v)
	}
	bl := le.Uint64(data[len(spillMagic)+4:])
	if bl > uint64(len(data)) {
		return nil, 0, fmt.Errorf("truncated: a base of %d bytes in %d", bl, len(data))
	}
	if bl < uint64(spillHead+4) {
		return nil, 0, fmt.Errorf("base length %d below the %d-byte minimum", bl, spillHead+4)
	}
	body := data[:bl-4]
	if crc32.Checksum(body, castagnoli) != le.Uint32(data[bl-4:]) {
		return nil, 0, errors.New("checksum mismatch (torn or corrupted spill)")
	}
	r := &spillReader{b: body[spillHead:]}
	idLen := r.count("id byte", 1)
	id := string(r.take(idLen))
	rev := r.u64()
	n64 := r.u32()
	created, patched := int64(r.u64()), int64(r.u64())
	if r.err != nil {
		return nil, 0, fmt.Errorf("header: %w", r.err)
	}
	if !validSpillID(id) {
		return nil, 0, fmt.Errorf("bad graph id %q", id)
	}
	if rev == 0 || rev > math.MaxInt64 {
		return nil, 0, fmt.Errorf("revision %d outside [1,2^63)", rev)
	}
	if n64 == 0 || n64 > maxSpillNodes {
		return nil, 0, fmt.Errorf("node count %d outside [1,%d]", n64, maxSpillNodes)
	}
	n := int(n64)

	edges := make([]graph.EdgeTriple, r.count("edge", 16))
	for i := range edges {
		u, v := graph.NodeID(int32(r.u32())), graph.NodeID(int32(r.u32()))
		edges[i] = graph.EdgeTriple{U: u, V: v, W: int64(r.u64())}
	}
	if r.err != nil {
		return nil, 0, fmt.Errorf("edges: %w", r.err)
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, 0, err
	}
	rg := &regGraph{id: id, createdAt: time.Unix(0, created), num: int(rev), g: g, bytes: graphBytes(g)}
	if patched != 0 {
		rg.patchedAt = time.Unix(0, patched)
	}

	nt := r.count("trace", 12+12*n)
	rg.traces = make(map[graph.NodeID]*sourceTrace, nt)
	prev, oldest := int64(-1), rg.num
	for i := 0; i < nt; i++ {
		src, trev := r.u32(), r.u64()
		if r.err == nil && (int64(src) <= prev || int(src) >= n || trev == 0 || trev > rev) {
			return nil, 0, fmt.Errorf("trace %d: source %d out of order or outside [0,%d), or revision %d outside [1,%d]", i, src, n, trev, rev)
		}
		prev = int64(src)
		tr := &sourceTrace{rev: int(trev)}
		if tr.dist, err = r.dist(n); err == nil {
			tr.parent, err = r.parent(n)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("trace for source %d: %w", src, err)
		}
		rg.traces[graph.NodeID(src)] = tr
		rg.bytes += traceBytes(tr.dist, tr.parent)
		oldest = min(oldest, tr.rev)
	}

	// The log must hold exactly the batches after the oldest trace, one per
	// revision up to the base's, and chain every pair's weights from batch
	// to batch into the base's edges.
	nb := r.count("log batch", 12)
	rg.log = make([]logBatch, nb)
	last := make(map[uint64]graph.WeightChange) // pair → its latest change
	for i := range rg.log {
		brev := r.u64()
		if want := uint64(oldest + 1 + i); r.err == nil && brev != want {
			return nil, 0, fmt.Errorf("log batch %d: revision %d, want %d (one batch per revision after the oldest trace's %d)", i, brev, want, oldest)
		}
		changes := make([]graph.WeightChange, r.count("log change", 24))
		for j := range changes {
			c := r.change(n)
			k := graph.PairKey(c.U, c.V)
			prev, seen := last[k]
			if r.err == nil && seen && prev.NewW != c.OldW {
				r.err = fmt.Errorf("change (pair {%d,%d}, weight %d → %d) not chained to the pair's previous weight %d", c.U, c.V, c.OldW, c.NewW, prev.NewW)
			}
			if r.err != nil && r.err != errSpillShort {
				return nil, 0, fmt.Errorf("log batch %d: change %d: %w", i, j, r.err)
			}
			last[k] = c
			changes[j] = c
		}
		rg.log[i] = logBatch{rev: int(brev), changes: changes}
		rg.logBytes += logBatchBytes(rg.log[i])
	}
	rg.bytes += rg.logBytes
	if r.err != nil {
		return nil, 0, r.err
	}
	if len(r.b) != 0 {
		return nil, 0, fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if oldest+nb != rg.num {
		return nil, 0, fmt.Errorf("log ends at revision %d, not at the head revision %d", oldest+nb, rg.num)
	}
	rg.held = make([]int, nb+1)
	for _, tr := range rg.traces {
		rg.held[rg.at(tr.rev)]++
	}
	for _, c := range last {
		if w := pairWeight(g, c.U, c.V); c.NewW != w {
			return nil, 0, fmt.Errorf("log leaves pair {%d,%d} at weight %d, but the head has %d", c.U, c.V, c.NewW, w)
		}
	}

	size, err := replayJournal(rg, data[bl:])
	if err != nil {
		return nil, 0, err
	}
	rg.digest = canonicalGraphDigest(rg.g)
	return rg, int(bl) + size, nil
}

// change reads one log or journal change and checks it on its own: u < v
// < n, weights at least -1 (absent), old and new weight apart.
func (r *spillReader) change(n int) graph.WeightChange {
	u, v, ow, nw := r.u32(), r.u32(), int64(r.u64()), int64(r.u64())
	c := graph.WeightChange{U: graph.NodeID(u), V: graph.NodeID(v), OldW: ow, NewW: nw}
	if r.err == nil && (u >= v || v >= uint32(n) || ow < -1 || nw < -1 || ow == nw) {
		r.err = fmt.Errorf("pair {%d,%d}, weight %d → %d: malformed", u, v, ow, nw)
	}
	return c
}

// pairWeight is the weight of the pair {u,v} in g, -1 when absent.
func pairWeight(g *graph.Graph, u, v graph.NodeID) int64 {
	if w, ok := g.Weight(u, v); ok {
		return w
	}
	return -1
}

// replayJournal advances rg, decoded from a spill's base, over the journal
// records in j: each goes through regGraph.advance, as its PATCH did, with
// the snapshot's charge taken from the edge count its changes leave. The
// head snapshot is built once at the end, from every record's changes. It
// returns the bytes of the whole records; a torn final record is left out.
func replayJournal(rg *regGraph, j []byte) (int, error) {
	n, m := rg.g.N(), rg.g.M()
	weight := make(map[uint64]int64) // pair → its weight after the records so far
	var all []graph.WeightChange
	off := 0
	for i := 0; off < len(j); i++ {
		body, torn, err := nextRecord(j[off:])
		if torn {
			break
		}
		r := &spillReader{b: body, err: err}
		rev, patched := r.u64(), r.u64()
		if r.err == nil && rev != uint64(rg.num)+1 {
			r.err = fmt.Errorf("revision %d, want %d", rev, rg.num+1)
		}
		changes := make([]graph.WeightChange, len(r.b)/24)
		for k := 0; k < len(changes) && r.err == nil; k++ {
			c := r.change(n)
			if r.err != nil {
				break
			}
			key := graph.PairKey(c.U, c.V)
			w, ok := weight[key]
			if !ok {
				w = pairWeight(rg.g, c.U, c.V)
			}
			if c.OldW != w {
				r.err = fmt.Errorf("pair {%d,%d}, weight %d → %d: not chained to the pair's weight %d", c.U, c.V, c.OldW, c.NewW, w)
			}
			weight[key], changes[k] = c.NewW, c
			switch {
			case c.OldW < 0:
				m++
			case c.NewW < 0:
				m--
			}
		}
		if r.err != nil {
			return 0, fmt.Errorf("journal record %d (at byte %d after the base): %w", i, off, r.err)
		}
		rg.advance(changes, snapshotBytes(n, m))
		rg.patchedAt = time.Unix(0, int64(patched))
		all = append(all, changes...)
		off += recordHead + len(body) + 4
	}
	if off > 0 {
		base := graphBytes(rg.g)
		rg.g = graph.ApplyChanges(rg.g, all)
		rg.bytes += graphBytes(rg.g) - base
	}
	rg.journal = int64(off)
	return off, nil
}

// nextRecord delimits the journal record at the front of b, checks its
// checksum and returns its body, from the revision to the last change.
// torn reports a final record cut short or failing its checksum — one a
// crash left mid-append. A length that disagrees with its complement is
// torn only if one of the two ends the record at the end of b, or if b is
// all zeros (a file extended but never written); any other damage is an
// error.
func nextRecord(b []byte) (body []byte, torn bool, err error) {
	if len(b) < recordHead {
		return nil, true, nil
	}
	l, nl := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
	end := func(l uint32) uint64 { return recordHead + uint64(l) + 4 }
	if l != ^nl {
		if end(l) == uint64(len(b)) || end(^nl) == uint64(len(b)) || !slices.ContainsFunc(b, func(c byte) bool { return c != 0 }) {
			return nil, true, nil
		}
		return nil, false, fmt.Errorf("length %d disagrees with its complement %d", l, ^nl)
	}
	if end(l) > uint64(len(b)) {
		return nil, true, nil
	}
	size := int(end(l))
	if crc32.Checksum(b[:size-4], castagnoli) != binary.LittleEndian.Uint32(b[size-4:]) {
		if size == len(b) {
			return nil, true, nil
		}
		return nil, false, errors.New("checksum mismatch")
	}
	if l < 16 || (l-16)%24 != 0 {
		return nil, false, fmt.Errorf("length %d is not 16 plus 24 a change", l)
	}
	return b[recordHead : size-4], false, nil
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
