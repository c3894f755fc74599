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
		u := uint64(v)
		if v < 0 {
			n++ // the sign
			u = -u
		}
		n += decimalLen(u)
	}
	return n, unreachable
}

// putRow writes row's encoding into out, which is rowSize(row) bytes long.
// It fills out from the back, so each value's digits go straight to their
// place without being formatted anywhere first. A value below 10⁸ is
// stored as eight digits at once, its leading zeros landing on bytes that
// the values before it overwrite later.
func putRow(out []byte, row []int64) {
	if row == nil {
		copy(out, "null")
		return
	}
	j := len(out) - 1
	out[j] = ']'
	for i := len(row) - 1; i >= 0; i-- {
		v := row[i]
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
	out[0] = '['
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
// a row's first value when fewer than eight bytes precede it.
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
