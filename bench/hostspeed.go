package main

import (
	"math/rand"
	"slices"
	"time"

	"dsssp/bench/internal/stats"
)

// The benchmark's host is a shared virtual machine whose speed swings by up
// to 1.5× over seconds as other tenants come and go; a raw wall-clock
// median moves with the host more than with the code. So every timed slice
// of a run — one simulation, about a second of serving — is bracketed by
// two timings of refWork, a fixed workload that shares no code with the
// repository, and the slice's times are scaled by refNominal over the mean
// of the two. Each end-to-end time therefore reads as the time on the
// reference host at its usual speed, where refWork takes refNominal. On
// that host the scaled median of a 20 s bucket of sim-congest varied by
// 0.05 (quartile distance over median) where the raw one varied by 0.20.

// refNominal is refWork's time on the reference host (2 vCPU Xeon, Go 1.24)
// in its fast state: the tenth percentile of 60 timings was 12.1–12.4 ms.
const refNominal = 12 * time.Millisecond

// refWork is the yardstick: Dijkstra from two sources on a fixed random
// graph (16 384 nodes, out-degree 8) in CSR form with a binary heap, then a
// sort of 32 768 random integers. It allocates nothing after construction,
// so it neither feeds nor waits on the garbage collector of the process it
// measures in.
type refWork struct {
	off     []int32
	to      []int32
	w       []int64
	dist    []int64
	heap    []int64 // dist<<20 | node
	scratch []int64
}

func newRefWork() *refWork {
	const n, deg = 1 << 14, 8
	rng := rand.New(rand.NewSource(1))
	r := &refWork{
		off: make([]int32, n+1), to: make([]int32, 0, n*deg), w: make([]int64, 0, n*deg),
		dist: make([]int64, n), heap: make([]int64, 0, n*deg), scratch: make([]int64, 1<<15),
	}
	for v := 0; v < n; v++ {
		for k := 0; k < deg; k++ {
			r.to = append(r.to, int32(rng.Intn(n)))
			r.w = append(r.w, 1+rng.Int63n(1000))
		}
		r.off[v+1] = int32(len(r.to))
	}
	return r
}

func (r *refWork) push(x int64) {
	h := append(r.heap, x)
	for i := len(h) - 1; i > 0; {
		j := (i - 1) / 2
		if h[j] <= h[i] {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	r.heap = h
}

func (r *refWork) pop() int64 {
	h := r.heap
	x := h[0]
	h[0] = h[len(h)-1]
	h = h[:len(h)-1]
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		if l+1 < len(h) && h[l+1] < h[l] {
			l++
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	r.heap = h
	return x
}

// run does the work once and returns how long it took.
func (r *refWork) run() time.Duration {
	t0 := time.Now()
	for src := int32(0); src < 2; src++ {
		for i := range r.dist {
			r.dist[i] = 1 << 40
		}
		r.dist[src] = 0
		r.heap = r.heap[:0]
		r.push(int64(src))
		for len(r.heap) > 0 {
			x := r.pop()
			d, v := x>>20, int32(x&(1<<20-1))
			if d > r.dist[v] {
				continue
			}
			for e := r.off[v]; e < r.off[v+1]; e++ {
				if u, nd := r.to[e], d+r.w[e]; nd < r.dist[u] {
					r.dist[u] = nd
					r.push(nd<<20 | int64(u))
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(2))
	for i := range r.scratch {
		r.scratch[i] = rng.Int63()
	}
	slices.Sort(r.scratch)
	return time.Since(t0)
}

// hostSpeed times refWork between the slices of a run, on one thread
// while the measured work is idle. For the serving workloads that work
// runs on every CPU, but timing refWork on all of them at once tracked
// the host worse: on the reference host the ten-run spread of serve-hot's
// scaled p50 was 0.15 with both CPUs timed and 0.10 with one, against
// 0.38 unscaled.
type hostSpeed struct {
	work  *refWork
	marks []time.Duration // refWork time at each mark
}

func newHostSpeed() *hostSpeed {
	h := &hostSpeed{work: newRefWork()}
	h.work.run() // first touch of its memory, off the record
	return h
}

// mark times refWork now; slice i of a run lies between marks i and i+1.
func (h *hostSpeed) mark() { h.marks = append(h.marks, h.work.run()) }

// next is the index of the slice that starts at the latest mark.
func (h *hostSpeed) next() int { return len(h.marks) - 1 }

// scale is the factor that turns a time measured in slice i into a time
// on the reference host.
func (h *hostSpeed) scale(i int) float64 {
	return float64(2*refNominal) / float64(h.marks[i]+h.marks[i+1])
}

// ms is a duration measured in slice i, in milliseconds on the reference
// host.
func (h *hostSpeed) ms(i int, d time.Duration) float64 {
	return h.scale(i) * float64(d) / float64(time.Millisecond)
}

// slowdown is the host's median speed over the run relative to the
// reference, printed so a reader can convert scaled times back to wall
// time (wall ≈ scaled × slowdown).
func (h *hostSpeed) slowdown() float64 {
	xs := make([]float64, len(h.marks))
	for i, d := range h.marks {
		xs[i] = float64(d) / float64(refNominal)
	}
	return stats.Median(xs)
}
