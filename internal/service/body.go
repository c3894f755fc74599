package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"

	"dsssp/internal/graph"
)

// Query bodies are mostly distance rows: one for /v1/sssp, n for /v1/apsp.
// json.Marshal spends an n=10⁴ row's time in reflection, strconv's
// per-value buffer and its own buffer's growth, so the renderers marshal
// the response with its dist field nil — field order, omitempty/omitzero
// and every small field stay with encoding/json and the response structs
// — and write the rows where encoding/json wrote "dist":null, their
// digits going straight into the body's one exactly sized allocation. The
// bytes are encoding/json's (FuzzRowJSON, TestRenderMatchesMarshal).

// distNull is what encoding/json writes for a nil dist field.
var distNull = []byte(`"dist":null`)

// renderSSSP is json.Marshal(resp), its row written by putRow.
func renderSSSP(resp SSSPResponse) ([]byte, error) {
	row, size := resp.Dist, resp.distLen
	if size == 0 {
		size, _ = rowSize(row)
	}
	resp.Dist = nil
	return spliceDist(resp, size, func(out []byte) { putRow(out, row) })
}

// renderAPSP is json.Marshal(resp), its rows written by putRow.
func renderAPSP(resp APSPResponse) ([]byte, error) {
	rows := resp.Dist
	resp.Dist = nil
	if rows == nil {
		return json.Marshal(resp)
	}
	lens := make([]int, len(rows))
	size := 2 + max(len(rows)-1, 0) // brackets and commas
	for i, row := range rows {
		lens[i], _ = rowSize(row)
		size += lens[i]
	}
	return spliceDist(resp, size, func(out []byte) {
		out[0] = '['
		j := 1
		for i, row := range rows {
			if i > 0 {
				out[j] = ','
				j++
			}
			putRow(out[j:j+lens[i]], row)
			j += lens[i]
		}
		out[j] = ']'
	})
}

// spliceSSSP is renderSSSP(resp), resp.Unreachable counted from resp.Dist,
// built from base: the body renderSSSP wrote for a row prior of the same
// length, such as the body a stale trace kept. Only the n, m and
// unreachable fields and the incr block are marshalled afresh, and only
// the spans of the row around the entries where resp.Dist differs from
// prior are written anew (diffRow); the rest of the row is copied from
// base. Without such a base — nil, or holding no row — it renders resp in
// full.
func spliceSSSP(resp SSSPResponse, base []byte, prior []int64) ([]byte, error) {
	row := resp.Dist
	old, unreachable, ok := baseRow(base)
	if !ok || len(prior) != len(row) || row == nil {
		resp.distLen, resp.Unreachable = rowSize(row)
		return renderSSSP(resp)
	}
	spans, size, unreachable := diffRow(old, row, prior, unreachable)
	resp.Dist, resp.Unreachable = nil, unreachable
	return spliceDist(resp, size, func(out []byte) {
		j, k := 0, 0 // the ends of what out and old have had written and copied
		for _, s := range spans {
			j += copy(out[j:], old[k:s.from])
			putValues(out[j:j+s.size], row[s.lo:s.hi])
			j, k = j+s.size, s.to
		}
		copy(out[j:], old[k:])
	})
}

// distOpen and unreachableKey bracket the row of an SSSP body.
var (
	distOpen       = []byte(`"dist":[`)
	unreachableKey = []byte(`],"unreachable":`)
)

// baseRow finds in body, an SSSP body, its row's encoding, brackets
// included, and reads its unreachable count; ok=false when body holds no
// row.
func baseRow(body []byte) (row []byte, unreachable int, ok bool) {
	i := bytes.Index(body, distOpen)
	j := bytes.LastIndex(body, unreachableKey)
	if i < 0 || j < i {
		return nil, 0, false
	}
	for _, c := range body[j+len(unreachableKey):] {
		if c < '0' || c > '9' {
			break
		}
		unreachable = unreachable*10 + int(c-'0')
	}
	return body[i+len(distOpen)-1 : j+1], unreachable, true
}

// A span is a run of row entries, lo to hi-1, that a splice writes anew:
// size bytes in place of old[from:to], their encoding in the base row,
// the commas between them included.
type span struct{ lo, hi, from, to, size int }

// gap is the fewest unchanged entries between two changed ones that a
// splice copies from the base row; a shorter run is written anew with the
// changed entries around it, as a full render writes it, which costs less
// than a span's bookkeeping and copy. Spans are thus at least gap entries
// apart, and a row whose every entry changed splices as one span.
const gap = 8

// diffRow compares row with prior, whose encoding is old, and returns the
// spans a splice of row into old writes, the length of the spliced row's
// encoding and its count of graph.Inf entries, given prior's count
// unreachable.
func diffRow(old []byte, row, prior []int64, unreachable int) (spans []span, size, _ int) {
	n, priorInf := len(row), unreachable > 0
	prior = prior[:n]
	size = len(old)
	c, k := 0, 1 // old[k] is the first byte of entry c
	// seek returns where entry e ≥ c starts in old, the closing bracket
	// for e = n.
	seek := func(e int) int {
		if e == n {
			return len(old)
		}
		k, c = skip(old, k, prior[c:e]), e
		return k
	}
	for i := 0; i < n; i++ {
		if row[i] == prior[i] {
			continue
		}
		s := span{lo: i, hi: spanEnd(row, prior, i)}
		w, inf := rowSize(row[s.lo:s.hi])
		s.size, unreachable = w-len("[]"), unreachable+inf
		if priorInf { // else prior has no graph.Inf entry to count
			for _, p := range prior[s.lo:s.hi] {
				if p == graph.Inf {
					unreachable--
				}
			}
		}
		s.from, s.to = seek(s.lo), seek(s.hi)-1
		size += s.size - (s.to - s.from)
		spans = append(spans, s)
		i = s.hi - 1
	}
	return spans, size, unreachable
}

// spanEnd returns the end of the span that starts at lo, an entry where
// row differs from prior: one past its last entry that does, the first to
// be followed by gap entries that do not. The walk is kept apart from
// diffRow's so that it compiles to a tight loop.
func spanEnd(row, prior []int64, lo int) int {
	prior = prior[:len(row)]
	last := lo
	for i := lo + 1; i < len(row) && i-last <= gap; i++ {
		if row[i] != prior[i] {
			last = i
		}
	}
	return last + 1
}

// skip returns where in old, the encoding of a row, the entry len(vals)
// after the one at old[k] starts, vals being the values of the entries it
// skips. A few entries are measured from their values; more are skipped
// by counting their commas a block at a time.
func skip(old []byte, k int, vals []int64) int {
	const block = 256
	if len(vals) <= gap {
		for _, v := range vals {
			k += valueLen(v) + 1
		}
		return k
	}
	commas := len(vals)
	for k+block <= len(old) {
		c := bytes.Count(old[k:k+block], comma)
		if c >= commas {
			break
		}
		commas -= c
		k += block
	}
	for ; commas > 0; commas-- {
		k += bytes.IndexByte(old[k:], ',') + 1
	}
	return k
}

var comma = []byte{','}

// valueLen is the length of v's decimal encoding.
func valueLen(v int64) int {
	u := uint64(v)
	if v < 0 {
		return 1 + decimalLen(-u) // math.MinInt64 too: its magnitude is 1<<63
	}
	return decimalLen(u)
}

// spliceDist marshals v, whose dist field is nil, into one buffer that
// holds size bytes in place of the null; put fills them.
func spliceDist(v any, size int, put func(out []byte)) ([]byte, error) {
	head, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	i := bytes.Index(head, distNull)
	if i < 0 {
		return nil, fmt.Errorf("service: %T marshals no %s", v, distNull)
	}
	i += len(distNull) - len("null")
	b := make([]byte, len(head)-len("null")+size)
	copy(b, head[:i])
	put(b[i : i+size])
	copy(b[i+size:], head[i+len("null"):])
	return b, nil
}

// rowSize is the length of row's encoding as encoding/json writes a
// []int64 (null when nil, else the bracketed, comma-separated decimals)
// and, from the same walk, the number of row's graph.Inf entries.
func rowSize(row []int64) (n, unreachable int) {
	if row == nil {
		return len("null"), 0
	}
	n = 2 + max(len(row)-1, 0)
	for _, v := range row {
		if v == graph.Inf {
			unreachable++
		}
		n += valueLen(v)
	}
	return n, unreachable
}

// putRow writes row's encoding into out, which is rowSize(row) bytes long.
func putRow(out []byte, row []int64) {
	if row == nil {
		copy(out, "null")
		return
	}
	out[0], out[len(out)-1] = '[', ']'
	putValues(out[1:len(out)-1], row)
}

// putValues writes vals' encoding, comma-separated, into out, which is
// exactly as long. It fills out from the back, so each value's digits go
// straight to their place without being formatted anywhere first. A value
// below 10⁸ is stored as eight digits at once, its leading zeros landing
// on bytes of out that the values before it overwrite later.
func putValues(out []byte, vals []int64) {
	j := len(out)
	for i := len(vals) - 1; i >= 0; i-- {
		v := vals[i]
		u := uint64(v)
		if v < 0 {
			u = -u // math.MinInt64 too: its magnitude is 1<<63
		}
		if u < 1e8 && j >= 8 {
			x := eightDigits(u)
			binary.LittleEndian.PutUint64(out[j-8:], x|0x30303030_30303030)
			// The leading zeros are x's low zero bytes; bit 63 stands in
			// for the last digit, so 0 keeps one.
			j -= 8 - bits.TrailingZeros64(x|1<<63)/8
		} else {
			j = putDigits(out, j, u)
		}
		if v < 0 {
			j--
			out[j] = '-'
		}
		if i > 0 {
			j--
			out[j] = ','
		}
	}
}

// eightDigits is u < 10⁸ as eight decimal digits, one a byte, zero-padded,
// the first in the lowest byte. Each step splits every lane in two at
// once: 10⁴·hi + lo, then 100·q + r per half, then 10·q + r per quarter;
// the multiply-and-shift quotients are exact below 10⁴ and 100.
func eightDigits(u uint64) uint64 {
	x := u/1e4 | u%1e4<<32
	q := (x * 10486 >> 20) & 0x0000007f_0000007f
	x = q | (x-100*q)<<16
	q = (x * 103 >> 10) & 0x000f000f_000f000f
	return q | (x-10*q)<<8
}

// putDigits writes u's digits to end at out[j-1] and returns the index of
// the first: the path of values from 10⁸ up (graph.Inf among them) and of
// those that end fewer than eight bytes into putValues' out.
func putDigits(out []byte, j int, u uint64) int {
	for {
		j--
		out[j] = byte('0' + u%10)
		if u /= 10; u == 0 {
			return j
		}
	}
}

// pow10[k] is 10^k, up to the largest that fits a uint64.
var pow10 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen is the number of decimal digits of u. A bit length of L
// puts u within a digit of ⌊L·log₁₀2⌋ (1233/4096 ≈ log₁₀2); one
// comparison settles which. u|1 has u's length, since the powers of ten
// above 1 are even, and gives 0 its one digit.
func decimalLen(u uint64) int {
	u |= 1
	t := bits.Len64(u) * 1233 >> 12
	if u < pow10[t] {
		return t
	}
	return t + 1
}
