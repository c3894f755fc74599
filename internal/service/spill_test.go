package service

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dsssp/internal/graph"
)

// spilledRegistry registers a generator graph under dir with exact
// traces, and a second graph with exact traces that it then patches twice,
// leaving stale traces and a two-batch change log. Both spills are
// rewritten (Flush) before the PATCHes, so the second graph's spill is a
// base at revision 1 plus two journal records. It returns the registry,
// the generator graph's id and the patched one's.
func spilledRegistry(t *testing.T, dir string) (*GraphRegistry, string, string) {
	t.Helper()
	r := NewGraphRegistry(1<<30, NewCache(1<<20), nil)
	if _, err := r.EnablePersistence(dir); err != nil {
		t.Fatal(err)
	}
	g := graph.Make(graph.FamilyRandom, 24, graph.UniformWeights(9, 5), 5)
	gen, _ := r.Register(g)
	_, digest, _, _ := r.Resolve(gen.ID)
	for _, src := range []graph.NodeID{3, 0, 17} {
		d := graph.Dijkstra(g, src)
		r.Record(gen.ID, digest, src, d, graph.WitnessParents(g, src, d), "sssp|src")
	}

	pat, _ := r.Register(ciGraph())
	pg, pd, _, _ := r.Resolve(pat.ID)
	for _, src := range []graph.NodeID{0, 1, 3} {
		d := graph.Dijkstra(pg, src)
		r.Record(pat.ID, pd, src, d, graph.WitnessParents(pg, src, d), "")
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int64{1, 2} {
		if _, err := r.Patch(pat.ID, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 0, V: 2, W: w}, {Op: graph.DeltaReweight, U: 2, V: 1, W: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if j := r.graphs[pat.ID].journal; j == 0 {
		t.Fatal("the PATCHes rewrote the spill instead of journaling")
	}
	return r, gen.ID, pat.ID
}

// TestSpillRoundTripBytes pins that a decoded spill is the registry state
// that wrote it — the head graph with its EdgeIDs and adjacency order,
// every trace with its revision, the change log with its batch times, the
// charged bytes — whether it is fresh from a rewrite or a rewrite plus
// appended records. A fresh one re-encodes to the same bytes, its journal
// records included; an appended one to what the live registry would write,
// which is what Flush then leaves on disk.
func TestSpillRoundTripBytes(t *testing.T) {
	dir := t.TempDir()
	r, genID, patID := spilledRegistry(t, dir)
	check := func(id string, fresh bool) {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, id+spillExt))
		if err != nil {
			t.Fatal(err)
		}
		got, size, err := decodeSpill(raw)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want := r.graphs[id]
		if size != len(raw) || got.journal != want.journal {
			t.Fatalf("%s: decoded %d of %d bytes, journal %d bytes (live %d)", id, size, len(raw), got.journal, want.journal)
		}
		if re := appendSpill(nil, got); !bytes.Equal(re, appendSpill(nil, want)) || fresh && !bytes.Equal(re, raw) {
			t.Fatalf("%s: re-encoding differs from the live registry's spill (fresh=%v)", id, fresh)
		}
		g, wg := got.g, want.g
		if !reflect.DeepEqual(g.Edges(), wg.Edges()) {
			t.Fatalf("%s: edges (EdgeIDs) differ", id)
		}
		for u := 0; u < wg.N(); u++ {
			if !reflect.DeepEqual(g.Adj(graph.NodeID(u)), wg.Adj(graph.NodeID(u))) {
				t.Fatalf("%s: adjacency of %d differs", id, u)
			}
		}
		if got.id != id || got.num != want.num || got.digest != want.digest || got.charge() != want.charge() ||
			got.logBytes != want.logBytes ||
			!got.createdAt.Equal(want.createdAt) || !got.patchedAt.Equal(want.patchedAt) {
			t.Fatalf("%s: header differs: got %+v", id, got)
		}
		if !reflect.DeepEqual(got.traces, want.traces) {
			t.Fatalf("%s: traces differ", id)
		}
		// The live log keeps each change's pair as the PATCH named it; the
		// spill stores it canonically (u < v).
		if len(got.log) != len(want.log) {
			t.Fatalf("%s: %d log batches, want %d", id, len(got.log), len(want.log))
		}
		for i, b := range want.log {
			if gb := got.log[i]; gb.rev != b.rev || !gb.at.Equal(b.at) || len(gb.changes) != len(b.changes) {
				t.Fatalf("%s: log batch %d at revision %d, %v with %d changes; want %d, %v with %d", id, i, gb.rev, gb.at, len(gb.changes), b.rev, b.at, len(b.changes))
			}
			for j, c := range b.changes {
				gc := got.log[i].changes[j]
				if graph.PairKey(gc.U, gc.V) != graph.PairKey(c.U, c.V) || gc.U > gc.V || gc.OldW != c.OldW || gc.NewW != c.NewW {
					t.Fatalf("%s: log batch %d change %d = %+v, want %+v", id, i, j, gc, c)
				}
			}
		}
	}
	check(genID, true)
	check(patID, false)
	pat := r.graphs[patID]
	if pat.staleCount() == 0 || len(pat.log) != 2 {
		t.Fatal("fixture lost its stale traces or its two-batch log")
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if pat.journal == 0 {
		t.Fatal("the rewrite left the change log out of the journal")
	}
	check(patID, true)
}

// bootFails boots a fresh registry from dir and requires an error naming
// path, with nothing loaded.
func bootFails(t *testing.T, dir, path, what string) {
	t.Helper()
	r := NewGraphRegistry(1<<30, NewCache(1<<20), nil)
	n, err := r.EnablePersistence(dir)
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("%s: boot err = %v, want one naming %s", what, err, path)
	}
	if n != 0 || r.Stats().Graphs != 0 {
		t.Fatalf("%s: boot loaded %d graphs (%d resident) beside its error", what, n, r.Stats().Graphs)
	}
}

// bootTorn boots a fresh registry from dir, whose spill at path ends in a
// torn journal record, and requires the graph id at revision rev with the
// file cut back to keep bytes. A PATCH on that registry must then append
// cleanly: a second boot restores revision rev+1.
func bootTorn(t *testing.T, dir, path, id string, rev, keep int, what string) {
	t.Helper()
	r := NewGraphRegistry(1<<30, NewCache(1<<20), nil)
	if n, err := r.EnablePersistence(dir); err != nil || n != 2 {
		t.Fatalf("%s: boot restored %d, err %v", what, n, err)
	}
	if gi, _ := r.Get(id); gi.Revision != rev {
		t.Fatalf("%s: booted at revision %d, want %d", what, gi.Revision, rev)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(keep) {
		t.Fatalf("%s: torn tail not truncated to %d bytes: %v, %v", what, keep, fi.Size(), err)
	}
	if _, err := r.Patch(id, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: 2, V: 3, W: 7}}); err != nil {
		t.Fatal(err)
	}
	if rg := r.graphs[id]; rg.rewrite || rg.journal == 0 || r.Stats().SpillErrors != 0 {
		t.Fatalf("%s: the PATCH after the boot did not append (journal %d bytes)", what, rg.journal)
	}
	r2 := NewGraphRegistry(1<<30, NewCache(1<<20), nil)
	if _, err := r2.EnablePersistence(dir); err != nil {
		t.Fatalf("%s: boot after the appended PATCH: %v", what, err)
	}
	if gi, _ := r2.Get(id); gi.Revision != rev+1 {
		t.Fatalf("%s: after the appended PATCH booted at revision %d, want %d", what, gi.Revision, rev+1)
	}
}

// TestSpillCrashInjection damages a spill of a base (revision 1) and two
// journal records (revisions 2 and 3), beside an intact spill of another
// graph, by truncating it at every offset and by flipping every byte in
// turn. Damage inside the base, or a flip inside the first record, must
// fail the boot naming the damaged file and load nothing. A cut inside a
// record, or a flip inside the final one, is a torn tail: boot drops that
// record, restores the revision before it and truncates the file, and a
// PATCH then appends cleanly. A temp file left by an interrupted rewrite
// is deleted and the intact spill beside it loads.
func TestSpillCrashInjection(t *testing.T) {
	src := t.TempDir()
	live, genID, patID := spilledRegistry(t, src)
	good, err := os.ReadFile(filepath.Join(src, patID+spillExt))
	if err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(filepath.Join(src, genID+spillExt))
	if err != nil {
		t.Fatal(err)
	}
	// The record boundaries: the base ends at first, the first record at
	// second, the second at the end of the file.
	first := int(binary.LittleEndian.Uint64(good[len(spillMagic)+4:]))
	second := first + recordHead + int(binary.LittleEndian.Uint32(good[first:])) + 4
	if int64(len(good)-first) != live.graphs[patID].journal || second >= len(good) {
		t.Fatalf("fixture journal is %d bytes from byte %d, want two records", len(good)-first, first)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, patID+spillExt)
	write := func(b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, genID+spillExt), intact, 0o644); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(good); k++ {
		write(good[:k])
		switch {
		case k < first:
			bootFails(t, dir, path, fmt.Sprint("cut at ", k))
		case k < second:
			bootTorn(t, dir, path, patID, 1, first, fmt.Sprint("cut at ", k))
		default:
			bootTorn(t, dir, path, patID, 2, second, fmt.Sprint("cut at ", k))
		}
	}
	for k := 0; k < len(good); k++ {
		bad := append([]byte(nil), good...)
		bad[k] ^= 0x5a
		write(bad)
		if k < second {
			bootFails(t, dir, path, fmt.Sprint("flip at ", k))
		} else {
			bootTorn(t, dir, path, patID, 2, second, fmt.Sprint("flip at ", k))
		}
	}
	// A tail of zeros, a file extended but never written, is torn too.
	write(append(slices.Clip(good), make([]byte, 40)...))
	bootTorn(t, dir, path, patID, 3, len(good), "zero tail")

	write(good)
	stray := filepath.Join(dir, "."+patID+".tmp-123456")
	if err := os.WriteFile(stray, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewGraphRegistry(1<<30, NewCache(1<<20), nil)
	if n, err := r.EnablePersistence(dir); err != nil || n != 2 {
		t.Fatalf("boot beside a stray temp file: restored %d, err %v", n, err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray temp file survived boot: %v", err)
	}
	if gi, ok := r.Get(patID); !ok || gi.Revision != 3 || gi.StaleSources == 0 {
		t.Fatalf("intact spill restored as %+v", gi)
	}
}

// rawSpill is a spill spelled field by field, so a test can break any one
// of them; encode lays the base out exactly as appendSpill does, and each
// journal record as appendRecord does.
type rawSpill struct {
	magic        string
	version      uint32
	id           string
	rev          uint64
	n            uint32
	created      int64
	patched      int64
	edges        [][3]int64
	traces       []rawTrace
	trailing     []byte
	idLen, m, nt int64 // count overrides; -1 keeps the true count
	baseLen      int64 // base length override; 0 keeps the true length
	cut          int   // bytes dropped from the body's end
	badCRC       bool
	journal      []rawRecord
}

type rawTrace struct {
	src    uint32
	rev    uint64
	dist   []int64
	parent []int32
}

type rawRecord struct {
	rev, patched uint64
	changes      [][4]int64 // {u, v, old weight, new weight}
	extra        []byte     // bytes after the changes, inside the length
	badNot       bool       // a length complement that disagrees
	badCRC       bool
}

// rawJournal is two more PATCHes after validRawSpill's journal: PATCH 4
// raises {0,1} from 1 to 3, PATCH 5 deletes {1,2}.
func rawJournal() []rawRecord {
	return []rawRecord{
		{rev: 4, patched: 3e18, changes: [][4]int64{{0, 1, 1, 3}}},
		{rev: 5, patched: 4e18, changes: [][4]int64{{1, 2, 2, -1}}},
	}
}

// validRawSpill is a three-node path at revision 3 with an exact trace of
// source 0 and a trace of source 2 left stale at revision 2 by PATCH 3,
// which lowered {1,2} from 5 to 2: a base at revision 2 and the one
// journal record the stale trace needs, as a rewrite writes them.
func validRawSpill() rawSpill {
	return rawSpill{
		magic: spillMagic, version: spillVersion, id: "g-0123456789abcdef", rev: 2, n: 3,
		created: 1e18, patched: 2e18,
		edges: [][3]int64{{0, 1, 1}, {1, 2, 5}},
		traces: []rawTrace{
			{src: 0, rev: 3, dist: []int64{0, 1, 3}, parent: []int32{-1, 0, 1}},
			{src: 2, rev: 2, dist: []int64{6, 5, 0}, parent: []int32{1, 2, -1}},
		},
		journal: []rawRecord{{rev: 3, patched: 2e18, changes: [][4]int64{{1, 2, 5, 2}}}},
		idLen:   -1, m: -1, nt: -1,
	}
}

func (s rawSpill) encode() []byte {
	le := binary.LittleEndian
	count := func(over int64, n int) uint32 {
		if over >= 0 {
			return uint32(over)
		}
		return uint32(n)
	}
	b := append([]byte(nil), s.magic...)
	b = le.AppendUint32(b, s.version)
	b = le.AppendUint64(b, 0) // the base length, filled in below
	b = le.AppendUint32(b, count(s.idLen, len(s.id)))
	b = append(b, s.id...)
	b = le.AppendUint64(b, s.rev)
	b = le.AppendUint32(b, s.n)
	b = le.AppendUint64(b, uint64(s.created))
	b = le.AppendUint64(b, uint64(s.patched))
	b = le.AppendUint32(b, count(s.m, len(s.edges)))
	for _, e := range s.edges {
		b = le.AppendUint32(b, uint32(e[0]))
		b = le.AppendUint32(b, uint32(e[1]))
		b = le.AppendUint64(b, uint64(e[2]))
	}
	b = le.AppendUint32(b, count(s.nt, len(s.traces)))
	for _, tr := range s.traces {
		b = le.AppendUint64(le.AppendUint32(b, tr.src), tr.rev)
		for _, d := range tr.dist {
			b = le.AppendUint64(b, uint64(d))
		}
		for _, p := range tr.parent {
			b = le.AppendUint32(b, uint32(p))
		}
	}
	b = append(b, s.trailing...)
	b = b[:len(b)-s.cut]
	bl := uint64(len(b) + 4)
	if s.baseLen != 0 {
		bl = uint64(s.baseLen)
	}
	le.PutUint64(b[len(s.magic)+4:], bl)
	b = le.AppendUint32(b, crcOf(b, s.badCRC))
	for _, rec := range s.journal {
		start, size := len(b), uint32(16+24*len(rec.changes)+len(rec.extra))
		b = le.AppendUint32(b, size)
		if rec.badNot {
			size++
		}
		b = le.AppendUint32(b, ^size)
		b = le.AppendUint64(le.AppendUint64(b, rec.rev), rec.patched)
		for _, c := range rec.changes {
			b = le.AppendUint32(b, uint32(c[0]))
			b = le.AppendUint32(b, uint32(c[1]))
			b = le.AppendUint64(b, uint64(c[2]))
			b = le.AppendUint64(b, uint64(c[3]))
		}
		b = append(b, rec.extra...)
		b = le.AppendUint32(b, crcOf(b[start:], rec.badCRC))
	}
	return b
}

// crcOf is the CRC-32C of b, off by one when bad.
func crcOf(b []byte, bad bool) uint32 {
	sum := crc32.Checksum(b, castagnoli)
	if bad {
		sum++
	}
	return sum
}

// TestSpillMalformedFields breaks one field per case and boots from the
// result: every case must fail naming the file and the fault, never panic
// and never load the graph. The first three are the edges that used to
// panic inside graph.AddEdge at boot. The stale-* cases break the stale
// trace; the ledger-* cases one change of the change log's record, the
// one the stale trace needs, and the log-* cases that record or the
// traces' revisions as a whole; the journal-* cases break a later record
// that is not the final one, or a final one whose checksum holds.
func TestSpillMalformedFields(t *testing.T) {
	for _, extra := range [][]rawRecord{nil, rawJournal()} {
		s := validRawSpill()
		s.journal = append(s.journal, extra...)
		rg, size, err := decodeSpill(s.encode())
		if err != nil || size != len(s.encode()) || rg.num != 3+len(extra) {
			t.Fatalf("the valid fixture with %d more journal records is rejected: %v", len(extra), err)
		}
	}
	onlyEdge := func(e [3]int64) func(*rawSpill) {
		return func(s *rawSpill) { s.n, s.edges, s.traces, s.journal = 2, [][3]int64{e}, nil, nil }
	}
	change := func(c [4]int64) func(*rawSpill) {
		return func(s *rawSpill) { s.journal[0].changes[0] = c }
	}
	// record appends rawJournal and breaks its first record, the journal's
	// second.
	record := func(mutate func(*rawRecord)) func(*rawSpill) {
		return func(s *rawSpill) {
			s.journal = append(s.journal, rawJournal()...)
			mutate(&s.journal[1])
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*rawSpill)
		want   string
	}{
		{"edge-self-loop", onlyEdge([3]int64{0, 0, 1}), "self-loop"},
		{"edge-out-of-range", onlyEdge([3]int64{0, 9, 1}), "out of range"},
		{"edge-negative-weight", onlyEdge([3]int64{0, 1, -3}), "negative weight"},
		{"edge-order", func(s *rawSpill) { s.edges[1] = [3]int64{2, 1, 5} }, "canonical order"},
		{"edge-repeat", func(s *rawSpill) { s.edges[1] = [3]int64{0, 1, 5} }, "edges 0 and 1 repeat the pair {0,1}"},
		// Edges in EdgeID order but out of pair order: what an older build
		// spilled for a generator-registered graph, whose edges it numbered
		// in insertion order.
		{"edge-pair-order", func(s *rawSpill) { s.edges[0], s.edges[1] = s.edges[1], s.edges[0] }, "edges 0 {1,2} and 1 {0,1} are out of pair order"},
		{"edge-count", func(s *rawSpill) { s.m = 1 << 30 }, "edge count"},
		{"magic", func(s *rawSpill) { s.magic = "DSSSPILX" }, "bad magic"},
		{"checksum", func(s *rawSpill) { s.badCRC = true }, "checksum mismatch"},
		{"version", func(s *rawSpill) { s.version = 5 }, "version 5"},
		{"version-1", func(s *rawSpill) { s.version = 1 }, "version 1"},
		{"version-2", func(s *rawSpill) { s.version = 2 }, "version 2"},
		{"version-3", func(s *rawSpill) { s.version = 3 }, "version 3"},
		{"base-length-long", func(s *rawSpill) { s.baseLen = 1 << 40 }, "truncated: a base of 1099511627776 bytes"},
		{"base-length-short", func(s *rawSpill) { s.baseLen = 8 }, "base length 8 below"},
		{"base-length-inside", func(s *rawSpill) { s.baseLen = 100 }, "checksum mismatch"},
		{"id", func(s *rawSpill) { s.id = "../g-x" }, "bad graph id"},
		{"id-length", func(s *rawSpill) { s.idLen = 1 << 31 }, "id byte count"},
		{"revision", func(s *rawSpill) { s.rev = 0 }, "revision 0"},
		{"nodes-zero", func(s *rawSpill) { s.n = 0 }, "node count 0"},
		{"nodes-huge", func(s *rawSpill) { s.n = maxSpillNodes + 1 }, "node count"},
		{"trace-count", func(s *rawSpill) { s.nt = 1 << 20 }, "trace count"},
		{"trace-source", func(s *rawSpill) { s.traces[0].src = 3 }, "outside [0,3)"},
		{"trace-order", func(s *rawSpill) {
			s.traces[0], s.traces[1] = s.traces[1], s.traces[0]
		}, "out of order"},
		{"trace-rev", func(s *rawSpill) { s.traces[0].rev = 4 }, "trace for source 0 at revision 4, past the journal's head 3"},
		{"trace-rev-zero", func(s *rawSpill) { s.traces[0].rev = 0 }, "revision 0 outside [2,2^63)"},
		{"trace-rev-below-base", func(s *rawSpill) { s.traces[0].rev = 1 }, "revision 1 outside [2,2^63)"},
		{"trace-rev-past-head", func(s *rawSpill) {
			s.journal = append(s.journal, rawJournal()...)
			s.traces[0].rev = 6
		}, "trace for source 0 at revision 6, past the journal's head 5"},
		{"trace-dist-negative", func(s *rawSpill) { s.traces[0].dist[1] = -1 }, "dist[1] = -1"},
		{"trace-dist-above-inf", func(s *rawSpill) { s.traces[0].dist[2] = graph.Inf + 1 }, "outside [0,Inf]"},
		{"trace-parent", func(s *rawSpill) { s.traces[0].parent[2] = 3 }, "parent[2] = 3"},
		{"trace-parent-negative", func(s *rawSpill) { s.traces[0].parent[1] = -2 }, "parent[1] = -2"},
		{"stale-source", func(s *rawSpill) { s.traces[1].src = 7 }, "outside [0,3)"},
		{"stale-also-exact", func(s *rawSpill) { s.traces[1].src = 0 }, "source 0 out of order"},
		{"stale-parent", func(s *rawSpill) { s.traces[1].parent[0] = 5 }, "parent[0] = 5"},
		{"stale-uncovered", func(s *rawSpill) { s.traces[1].rev = 1 }, "trace 1: source 2 out of order or outside [0,3), or revision 1 outside [2,2^63)"},
		{"ledger-pair", change([4]int64{2, 1, 5, 2}), "pair {2,1}"},
		{"ledger-range", change([4]int64{1, 3, 5, 2}), "pair {1,3}"},
		{"ledger-weight", change([4]int64{1, 2, -2, 2}), "weight -2"},
		{"ledger-no-op", change([4]int64{1, 2, 2, 2}), "weight 2 → 2"},
		{"ledger-order", func(s *rawSpill) {
			s.journal[0].changes = [][4]int64{{1, 2, 5, 4}, {1, 2, 3, 2}}
		}, "pair {1,2}, weight 3 → 2: not chained to the pair's weight 4"},
		{"log-batch-order", func(s *rawSpill) { s.journal[0].rev = 4 }, "journal record 0 (at byte 0 after the base): revision 4, want 3"},
		{"log-not-at-head", func(s *rawSpill) { s.rev = 1 }, "journal record 0 (at byte 0 after the base): revision 3, want 2"},
		{"log-beyond-head", func(s *rawSpill) { s.traces[1].rev = 4 }, "trace for source 2 at revision 4, past the journal's head 3"},
		{"log-weight-edge", change([4]int64{1, 2, 4, 2}), "not chained to the pair's weight 5"},
		{"trailing", func(s *rawSpill) { s.trailing = []byte{0} }, "1 trailing bytes"},
		{"record-count", func(s *rawSpill) { s.cut = 3 }, "trace count 2 overruns"},
		{"truncated-record", func(s *rawSpill) { s.traces, s.journal, s.cut = nil, nil, 4 }, "truncated record"},
		{"journal-revision", record(func(r *rawRecord) { r.rev = 5 }), "journal record 1 (at byte 52 after the base): revision 5, want 4"},
		{"journal-chain", record(func(r *rawRecord) { r.changes[0][2] = 2 }), "not chained to the pair's weight 1"},
		{"journal-pair", record(func(r *rawRecord) { r.changes[0] = [4]int64{1, 0, 1, 3} }), "pair {1,0}"},
		{"journal-range", record(func(r *rawRecord) { r.changes[0] = [4]int64{0, 3, -1, 3} }), "pair {0,3}"},
		{"journal-weight", record(func(r *rawRecord) { r.changes[0][3] = -2 }), "weight 1 → -2"},
		{"journal-no-op", record(func(r *rawRecord) { r.changes[0][3] = 1 }), "weight 1 → 1"},
		{"journal-length", record(func(r *rawRecord) { r.extra = []byte{0} }), "length 41 is not 16 plus 24 a change"},
		{"journal-complement", record(func(r *rawRecord) { r.badNot = true }), "length 40 disagrees with its complement 41"},
		{"journal-checksum", record(func(r *rawRecord) { r.badCRC = true }), "journal record 1 (at byte 52 after the base): checksum mismatch"},
		{"journal-final-revision", func(s *rawSpill) {
			s.journal = append(s.journal, rawJournal()...)
			s.journal[2].rev = 4
		}, "journal record 2 (at byte 104 after the base): revision 4, want 5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := validRawSpill()
			tc.mutate(&s)
			dir := t.TempDir()
			path := filepath.Join(dir, "g-0123456789abcdef"+spillExt)
			if err := os.WriteFile(path, s.encode(), 0o644); err != nil {
				t.Fatal(err)
			}
			bootFails(t, dir, path, tc.name)
			_, err := NewGraphRegistry(1<<30, NewCache(1<<20), nil).EnablePersistence(dir)
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestSpillFileNameMustMatchID pins that a spill renamed to another
// graph's file name is refused: removal deletes by file name.
func TestSpillFileNameMustMatchID(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g-other"+spillExt)
	if err := os.WriteFile(path, validRawSpill().encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	bootFails(t, dir, path, "renamed")
}

// FuzzDecodeSpill: the spill decoder never panics, allocates in
// proportion to its input before any count is trusted, and every spill it
// accepts restores into a registry that can then serve every trace it
// holds. The state it decodes re-encodes as a spill that decodes back to
// itself, byte for byte; without a journal that spill is the accepted
// input. Each input is also tried resealed — the base's checksum and every
// journal record's length complement and checksum fixed up — so mutations
// reach the field checks behind them. The checked-in corpus
// (testdata/fuzz/FuzzDecodeSpill) holds valid spills fresh from a rewrite
// and with appended records, one whose traces sit at the base's revision,
// a mid-journal one and the head's, one with a torn final record, a
// truncated one, one with a bad checksum, ones with huge counts and one
// with trailing bytes.
func FuzzDecodeSpill(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		checkDecode(t, reseal(data))
	})
}

// reseal returns a copy of data with the checksum of the base its header
// delimits, and the length complement and checksum of every journal record
// after it, recomputed. What no header delimits is left as it is.
func reseal(data []byte) []byte {
	le := binary.LittleEndian
	out := bytes.Clone(data)
	if len(out) < spillHead {
		return out
	}
	bl := le.Uint64(out[len(spillMagic)+4:])
	if bl < 4 || bl > uint64(len(out)) {
		return out
	}
	le.PutUint32(out[bl-4:], crc32.Checksum(out[:bl-4], castagnoli))
	for j := out[bl:]; len(j) >= recordHead; {
		l := le.Uint32(j)
		le.PutUint32(j[4:], ^l)
		size := uint64(recordHead) + uint64(l) + 4
		if size > uint64(len(j)) {
			break
		}
		le.PutUint32(j[size-4:], crc32.Checksum(j[:size-4], castagnoli))
		j = j[size:]
	}
	return out
}

func checkDecode(t *testing.T, data []byte) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	rg, size, err := decodeSpill(data)
	runtime.ReadMemStats(&ms)
	if alloc, limit := ms.TotalAlloc-before, 32*uint64(len(data))+64*headerNodes(data)+1<<20; alloc > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), alloc, limit)
	}
	if err != nil {
		return
	}
	if size > len(data) || int64(size) < rg.journal {
		t.Fatalf("accepted %d bytes of %d with a %d-byte journal", size, len(data), rg.journal)
	}
	re := appendSpill(nil, rg)
	if rg.journal == 0 && !bytes.Equal(re, data[:size]) {
		t.Fatalf("accepted spill re-encodes differently:\n in %x\nout %x", data[:size], re)
	}
	again, rsize, err := decodeSpill(re)
	if err != nil || rsize != len(re) || !bytes.Equal(appendSpill(nil, again), re) {
		t.Fatalf("the replayed state's spill does not decode back to itself: %v", err)
	}
	r := NewGraphRegistry(1<<40, NewCache(1<<20), nil)
	r.mu.Lock()
	r.restoreLocked(rg)
	r.mu.Unlock()
	for src := range rg.traces {
		if _, _, _, _, ok := r.sourceTrace(rg.id, rg.digest, src); !ok {
			t.Fatalf("restored trace for %d does not serve", src)
		}
	}
}

// headerNodes is the node count a spill's header claims, or 0 when the
// header is cut short or the count is out of range.
func headerNodes(data []byte) uint64 {
	at := spillHead
	if len(data) < at+4 {
		return 0
	}
	at += 4 + int(binary.LittleEndian.Uint32(data[at:])) + 8
	if at < 0 || len(data) < at+4 {
		return 0
	}
	if n := binary.LittleEndian.Uint32(data[at:]); n <= maxSpillNodes {
		return uint64(n)
	}
	return 0
}

// BenchmarkSpill encodes and decodes serve-dynamic's registry state: a
// random n=10⁴ graph with 32 exact traces (encode, decode). Then a PATCH
// leaves the 32 traces stale and 16 batches of 16 ±1 reweights follow, so
// the rewrite undoes a 17-batch change log to write its base and the boot
// replays its 17 journal records through regGraph.advance (stale-encode,
// stale-decode).
func BenchmarkSpill(b *testing.B) {
	const n, traced, batches, batch = 10000, 32, 16, 16
	g := graph.Make(graph.FamilyRandom, n, graph.UniformWeights(n, 1), 1)
	r := NewGraphRegistry(1<<40, NewCache(1<<20), nil)
	info, _ := r.Register(g)
	_, digest, _, _ := r.Resolve(info.ID)
	var dirty []graph.EdgeDelta
	for src := graph.NodeID(0); src < traced*300; src += 300 {
		d := graph.Dijkstra(g, src)
		r.Record(info.ID, digest, src, d, graph.WitnessParents(g, src, d), "")
		// A zero-weight edge out of the source shortens a distance.
		dirty = append(dirty, graph.EdgeDelta{Op: graph.DeltaInsert, U: src, V: (src + n/2) % n, W: 0})
	}
	rg := r.graphs[info.ID]
	codec := func(prefix string) {
		raw := appendSpill(nil, rg)
		b.Run(prefix+"encode", func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = appendSpill(buf[:0], rg)
			}
		})
		b.Run(prefix+"decode", func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := decodeSpill(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	codec("")

	if pi, err := r.Patch(info.ID, dirty); err != nil || pi.SourcesDropped != traced {
		b.Fatalf("setup patch: %+v, %v; want all %d sources stale", pi, err, traced)
	}
	edges := g.Edges()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < batches; i++ {
		deltas := make([]graph.EdgeDelta, batch)
		for j := range deltas {
			e := edges[rng.Intn(len(edges))]
			deltas[j] = graph.EdgeDelta{Op: graph.DeltaReweight, U: e.U, V: e.V, W: e.W + 1}
		}
		if _, err := r.Patch(info.ID, deltas); err != nil {
			b.Fatal(err)
		}
	}
	if len(rg.log) != batches+1 || rg.staleCount() != traced {
		b.Fatalf("setup: %d log batches and %d stale traces, want %d and %d", len(rg.log), rg.staleCount(), batches+1, traced)
	}
	codec("stale-")
}
