package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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

// TestRenderMatchesMarshal renders bodies as the handlers do — the
// response built by ssspResponse or apspResponse, the bytes by renderSSSP
// or renderAPSP — and requires json.Marshal's bytes for the same response:
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
