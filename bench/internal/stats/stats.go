// Package stats holds the order statistics the benchmark reports: every
// timing is a median plus a tail percentile, and every repeated metric a
// median with its quartiles.
package stats

import (
	"math"
	"sort"
	"time"
)

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks — the same rule as Python's
// statistics.quantiles(method="inclusive"). xs is not modified. NaN for an
// empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quartiles returns the first quartile, the median and the third quartile
// with the exclusive method of Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spread bounds are stated in. It needs two values at
// least; with fewer it returns the single value (or NaN) three times.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = xs[0]
		}
		return v, v, v
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// Position i/4·(n+1) on 1-based ranks, clamped to the sample.
		m := float64(i) * float64(n+1) / 4
		j := int(math.Floor(m))
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*(m-float64(j))
	}
	return at(1), Median(s), at(3)
}

// Millis converts durations to float milliseconds.
func Millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
