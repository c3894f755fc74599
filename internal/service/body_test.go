package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"dsssp"
	"dsssp/internal/graph"
	"dsssp/internal/sched"
)

// FuzzRowJSON holds the row encoder to encoding/json: for any []int64 —
// nil (null), empty, negative, math.MinInt64, graph.Inf — putRow writes
// json.Marshal's bytes, alone and spliced into an SSSP body. raw is read
// as little-endian int64s; null asks for a nil row.
func FuzzRowJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, null bool) {
		var row []int64
		if !null {
			row = make([]int64, len(raw)/8)
			for i := range row {
				row[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		want, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, rowLen(row))
		putRow(got, row)
		if !bytes.Equal(got, want) {
			t.Fatalf("row %v:\nputRow:       %s\nencoding/json: %s", row, got, want)
		}
		resp := SSSPResponse{N: len(row), Dist: row, Unreachable: countUnreachable(row)}
		if got, want := mustRender(t, renderSSSP, resp), mustMarshal(t, resp); !bytes.Equal(got, want) {
			t.Fatalf("row %v:\nrenderSSSP:    %s\nencoding/json: %s", row, got, want)
		}
	})
}

// FuzzSpliceRow holds spliceSSSP to renderSSSP: the body rendered for a
// row prior, spliced into a row that differs from it at some entries, must
// be the full render of the new row byte for byte, and json.Marshal's, its
// m, unreachable count and incr block included. raw is read as prior's
// little-endian int64s, edits as 10-byte records, each an entry index
// (little-endian uint16, modulo the row's length) and that entry's new
// value (int64); m0 is the base's m, m1 and affected the new body's.
func FuzzSpliceRow(f *testing.F) {
	type edit struct {
		at int
		v  int64
	}
	seed := func(prior []int64, m0, m1 uint32, edits ...edit) {
		raw := make([]byte, 0, 8*len(prior))
		for _, v := range prior {
			raw = binary.LittleEndian.AppendUint64(raw, uint64(v))
		}
		var e []byte
		for _, ed := range edits {
			e = binary.LittleEndian.AppendUint16(e, uint16(ed.at))
			e = binary.LittleEndian.AppendUint64(e, uint64(ed.v))
		}
		f.Add(raw, e, m0, m1, uint16(len(edits)))
	}
	const inf = graph.Inf
	seed([]int64{9, 10, 5}, 4, 4, edit{0, 10}, edit{1, 9})
	seed([]int64{7, 99_999_999, 100_000_000, 3}, 6, 6, edit{1, 100_000_000}, edit{2, 99_999_999})
	seed([]int64{0, inf, 3, 4, inf}, 5, 5, edit{1, 7}, edit{2, inf})
	seed([]int64{1, 2, 3, 4, 5}, 5, 5, edit{0, 12}, edit{4, 0})
	seed([]int64{3, 1, 4, 1, 5, 9}, 7, 7, edit{0, 2}, edit{1, 7}, edit{2, 1}, edit{3, 8}, edit{4, 2}, edit{5, 8})
	seed([]int64{42}, 0, 0, edit{0, 43})
	seed([]int64{inf}, 0, 1, edit{0, 0})
	seed([]int64{5, 6, 7}, 3, 12_345)
	seed([]int64{-1, math.MinInt64, 8}, 2, 2, edit{0, 1}, edit{2, -8})
	seed([]int64{}, 0, 1)
	// A long row: unchanged runs of 8 and 9 entries, copied, one of 7,
	// written anew with the entries around it, and one of hundreds of
	// bytes that the skip counts a block at a time.
	long := make([]int64, 400)
	for i := range long {
		long[i] = int64(i) * 7_919 % int64(pow10[i%10])
	}
	long[300] = inf
	seed(long, 2_000, 2_001, edit{3, 4}, edit{12, 1e9}, edit{22, 5}, edit{30, 6}, edit{200, inf}, edit{300, 2}, edit{399, 99})
	seed(long, 2_000, 2_000)

	f.Fuzz(func(t *testing.T, raw, edits []byte, m0, m1 uint32, affected uint16) {
		prior := make([]int64, len(raw)/8)
		for i := range prior {
			prior[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		next := slices.Clone(prior)
		for ; len(edits) >= 10 && len(next) > 0; edits = edits[10:] {
			next[int(binary.LittleEndian.Uint16(edits))%len(next)] = int64(binary.LittleEndian.Uint64(edits[2:]))
		}
		n := len(next)
		base := mustRender(t, renderSSSP, SSSPResponse{N: n, M: int(m0), Dist: prior, Unreachable: countUnreachable(prior), Incr: queryIncr(row{}, 1)})
		resp := SSSPResponse{N: n, M: int(m1), Dist: next, Incr: queryIncr(row{affected: int(affected)}, max(n, 1))}
		got, err := spliceSSSP(resp, base, prior)
		if err != nil {
			t.Fatal(err)
		}
		resp.Unreachable = countUnreachable(next)
		if want := mustMarshal(t, resp); !bytes.Equal(got, want) || !bytes.Equal(got, mustRender(t, renderSSSP, resp)) {
			t.Fatalf("prior %v, next %v:\nspliced:       %s\nencoding/json: %s", prior, next, got, want)
		}
	})
}

// ssspResponse is ssspHead with Unreachable counted: the response
// renderSSSP renders to the body a handler serves.
func ssspResponse(g *graph.Graph, rw row, res *dsssp.Result) SSSPResponse {
	resp := ssspHead(g, rw, res)
	resp.distLen, resp.Unreachable = rowSize(rw.dist)
	return resp
}

// TestRenderMatchesMarshal renders bodies as the handlers do — the
// response built by ssspResponse or apspResponse, the bytes by renderSSSP
// or renderAPSP (which spliceSSSP falls back to) — and requires json.Marshal's bytes for the same response:
// computed bodies with metrics and subproblems_max, repaired ones with an
// incr block, APSP with and without a composition, and rows holding
// unreachable (graph.Inf) entries, SSSP at n=10⁴.
func TestRenderMatchesMarshal(t *testing.T) {
	metrics := dsssp.Metrics{
		Rounds: 123456, StrictRounds: 130000, Messages: 987654, MaxEdgeMessages: 77,
		MaxMessageBits: 41, TotalAwake: 55555, MaxAwake: 321,
	}

	g := graph.Make(graph.FamilyDisconnected, 10_000, graph.UniformWeights(10_000, 5), 5)
	dist := graph.Dijkstra(g, 0)
	if countUnreachable(dist) == 0 {
		t.Fatal("the SSSP row has no unreachable node")
	}
	res := &dsssp.Result{Dist: dist, Metrics: metrics, SubproblemsMax: 9}
	for name, rw := range map[string]row{
		"computed": {dist: dist},
		"repaired": {dist: dist, served: rowRepaired, affected: 1234},
	} {
		t.Run("sssp/"+name, func(t *testing.T) {
			resp := ssspResponse(g, rw, res)
			checkRender(t, renderSSSP, resp)
		})
	}

	ga := graph.Make(graph.FamilyDisconnected, 256, graph.UniformWeights(256, 6), 6)
	rows := make([]row, ga.N())
	for v := range rows {
		rows[v].dist = graph.Dijkstra(ga, graph.NodeID(v))
	}
	if countUnreachable(rows[0].dist) == 0 {
		t.Fatal("the APSP rows have no unreachable node")
	}
	comp := &dsssp.APSPResult{Composition: sched.Composition{
		Dilation: 4000, Congestion: 512, MakespanAligned: 9000, Makespan: 7000,
		MakespanSequential: 1 << 40, MaxMessageBits: 40,
	}}
	for _, tc := range []struct {
		name   string
		served func(v int) rowServed
		res    *dsssp.APSPResult
	}{
		{"computed", func(int) rowServed { return rowComputed }, comp},
		{"mixed", func(v int) rowServed { return rowServed(v % 3) }, comp},
		{"reused-and-repaired", func(v int) rowServed { return rowServed(1 + v%2) }, nil},
	} {
		t.Run("apsp/"+tc.name, func(t *testing.T) {
			rs := rowSet{rows: make([]row, len(rows))}
			for v, rw := range rows {
				rw.served = tc.served(v)
				rs.rows[v] = rw
				rs.count[rw.served]++
			}
			checkRender(t, renderAPSP, apspResponse(ga, rs, tc.res))
		})
	}
}

// checkRender requires render(resp) to be json.Marshal(resp).
func checkRender[R any](t *testing.T, render func(R) ([]byte, error), resp R) {
	t.Helper()
	want := mustMarshal(t, resp)
	got := mustRender(t, render, resp)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("body diverges from encoding/json at byte %d of %d/%d:\nrender: %.80s\njson:   %.80s",
			i, len(got), len(want), got[i:], want[i:])
	}
}

func mustRender[R any](t testing.TB, render func(R) ([]byte, error), resp R) []byte {
	t.Helper()
	b, err := render(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rowLen is the length of row's encoding, the first result of rowSize.
func rowLen(row []int64) int {
	n, _ := rowSize(row)
	return n
}

// countUnreachable is the number of row's graph.Inf entries, counted on
// its own for the responses the tests build by hand.
func countUnreachable(row []int64) int {
	n := 0
	for _, d := range row {
		if d == graph.Inf {
			n++
		}
	}
	return n
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// BenchmarkRenderSSSP renders serve-dynamic's body: a repaired row on the
// random n=10⁴ graph with uniform weights up to n. The encoding-json case
// is json.Marshal of the same response, for comparison.
func BenchmarkRenderSSSP(b *testing.B) {
	const n = 10_000
	g := graph.Make(graph.FamilyRandom, n, graph.UniformWeights(n, 1), 1)
	resp := ssspResponse(g, row{dist: graph.Dijkstra(g, 0), served: rowRepaired, affected: 17}, nil)
	benchRender(b, renderSSSP, resp)
}

// BenchmarkSpliceSSSP splices serve-dynamic's body, a repaired row on the
// random n=10⁴ graph with uniform weights up to n, from the body of the
// row it was repaired from, where the two rows differ in one entry
// (narrow), in every other entry (alternate) and in every entry (all).
// full is renderSSSP of the same response, the cost a splice of many
// changes should stay near: it writes what a full render writes, plus the
// diff.
func BenchmarkSpliceSSSP(b *testing.B) {
	const n = 10_000
	g := graph.Make(graph.FamilyRandom, n, graph.UniformWeights(n, 1), 1)
	prior := graph.Dijkstra(g, 0)
	base := mustRender(b, renderSSSP, ssspResponse(g, row{dist: prior, served: rowRepaired}, nil))
	for _, bc := range []struct {
		name  string
		every int // the stride of the changed entries; 0 renders in full
	}{{"narrow", n}, {"alternate", 2}, {"all", 1}, {"full", 0}} {
		next := slices.Clone(prior)
		for i := n / 2 % max(bc.every, 1); bc.every > 0 && i < n; i += bc.every {
			next[i]++
		}
		resp := ssspHead(g, row{dist: next, served: rowRepaired, affected: 17}, nil)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if bc.every == 0 {
					r := resp
					r.distLen, r.Unreachable = rowSize(next)
					_, err = renderSSSP(r)
				} else {
					_, err = spliceSSSP(resp, base, prior)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRenderAPSP renders a from-scratch APSP body on a random n=256
// graph with uniform weights up to n.
func BenchmarkRenderAPSP(b *testing.B) {
	const n = 256
	g := graph.Make(graph.FamilyRandom, n, graph.UniformWeights(n, 1), 1)
	rs := rowSet{rows: make([]row, n)}
	for v := range rs.rows {
		rs.rows[v].dist = graph.Dijkstra(g, graph.NodeID(v))
	}
	rs.count[rowComputed] = n
	benchRender(b, renderAPSP, apspResponse(g, rs, &dsssp.APSPResult{}))
}

func benchRender[R any](b *testing.B, render func(R) ([]byte, error), resp R) {
	for _, bc := range []struct {
		name   string
		render func(R) ([]byte, error)
	}{
		{"render", render},
		{"encoding-json", func(r R) ([]byte, error) { return json.Marshal(r) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(mustRender(b, bc.render, resp))))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := bc.render(resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
