// Package sched demonstrates the paper's APSP implication (Section 1.1):
// because the CSSP algorithm has poly(log n) congestion per edge, n
// independent SSSP instances — one per source — can run concurrently under
// random-delay scheduling [LMR94, Gha15] with near-optimal makespan Õ(n).
//
// The composition works on recorded edge-usage traces: SSSP instances are
// oblivious to each other (their message schedules do not depend on
// concurrent traffic), so executing instance i delayed by r_i rounds and
// serializing each composed round r into max_e load_e(r) strict CONGEST
// rounds is a faithful schedule. The package measures:
//
//   - dilation T (the longest single instance),
//   - congestion C (max total messages through an edge over all instances),
//   - the makespan of the aligned composition (all delays zero),
//   - the makespan of the random-delay composition (delays uniform in
//     [0, C)), which the scheduling theorem bounds by Õ(C + T),
//   - the trivial sequential composition (Σ of instance durations),
//   - the total messages and the heaviest single instance's congestion.
//
// APSPParallel runs the instances over a worker pool of any size (a pool
// of one included) and composes their traces.
package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

// Trace is one instance's recorded messages.
type Trace struct {
	Entries []simnet.TraceEntry
	// Rounds is the instance's round count (its dilation).
	Rounds int64
	// MaxMessageBits is the largest message the instance sent, in bits
	// (0 when the runner did not measure it). The strict-CONGEST APSP
	// composition needs every instance inside the O(log n)-bit budget —
	// the scheduling theorem serializes rounds, never splits messages.
	MaxMessageBits int64
	// MaxEdgeMessages is the instance's own congestion: the most messages
	// it sent through any one edge (0 when the runner did not measure it).
	MaxEdgeMessages int64
	// Spans is the instance's span ledger (nil when the instance opened
	// no span): the per-phase breakdown of the rounds and messages
	// the instance contributes to the composition.
	Spans []simnet.SpanMetrics
}

// Composition is the result of scheduling a set of traces together.
type Composition struct {
	// Dilation is the maximum instance duration.
	Dilation int64
	// Congestion is the maximum total messages per edge across instances.
	Congestion int64
	// MakespanAligned is the serialized length with all delays zero.
	MakespanAligned int64
	// MakespanRandom is the serialized length under seeded random delays.
	MakespanRandom int64
	// MakespanSequential is the sum of instance durations.
	MakespanSequential int64
	// MaxMessageBits is the largest message any instance sent (0 when the
	// traces carry no measurement).
	MaxMessageBits int64
	// Messages is the total number of messages over all instances (the
	// summed trace lengths).
	Messages int64
	// InstanceCongestion is the heaviest single instance's congestion:
	// the maximum of the traces' MaxEdgeMessages.
	InstanceCongestion int64
	// Spans is the merged span ledger of all instances (nil when no
	// trace carries one): per-phase rounds/messages/awake sums and bit
	// maxima across every composed instance, so the APSP report can break
	// its totals down by pipeline phase like the single-source runs do.
	Spans []simnet.SpanMetrics
}

// Compose computes the composition metrics for the given traces over a
// graph with m edges. Random delays are drawn uniformly from [0, C) with
// the given seed, where C is the measured congestion.
func Compose(m int, traces []Trace, seed int64) Composition {
	var comp Composition
	perEdge := make([]int64, m)
	spanLists := make([][]simnet.SpanMetrics, 0, len(traces))
	for _, tr := range traces {
		if tr.Rounds > comp.Dilation {
			comp.Dilation = tr.Rounds
		}
		if tr.MaxMessageBits > comp.MaxMessageBits {
			comp.MaxMessageBits = tr.MaxMessageBits
		}
		if tr.MaxEdgeMessages > comp.InstanceCongestion {
			comp.InstanceCongestion = tr.MaxEdgeMessages
		}
		comp.MakespanSequential += tr.Rounds
		comp.Messages += int64(len(tr.Entries))
		if len(tr.Spans) > 0 {
			spanLists = append(spanLists, tr.Spans)
		}
		for _, e := range tr.Entries {
			perEdge[e.Edge]++
		}
	}
	comp.Spans = simnet.MergeSpans(spanLists...)
	for _, c := range perEdge {
		if c > comp.Congestion {
			comp.Congestion = c
		}
	}
	zero := make([]int64, len(traces))
	comp.MakespanAligned = makespan(m, traces, zero)
	delays := make([]int64, len(traces))
	rng := rand.New(rand.NewSource(seed))
	span := comp.Congestion
	if span < 1 {
		span = 1
	}
	for i := range delays {
		delays[i] = rng.Int63n(span)
	}
	comp.MakespanRandom = makespan(m, traces, delays)
	return comp
}

// makespan serializes the delayed composition: composed round r needs
// max(1, max_e per-direction load at r) strict CONGEST rounds.
//
// The computation is all flat arrays — no maps, no interface-driven sorts:
// composed send rounds are bucketed per directed edge (2m dense indices)
// with a counting pass + prefix sums, each edge's bucket is sorted with the
// specialized slices.Sort for int64, and the per-round maximum load lives
// in a horizon-sized slice. This is what lets an n-instance APSP
// composition stay in the noise next to the simulations that produced it.
func makespan(m int, traces []Trace, delays []int64) int64 {
	var horizon int64
	total := 0
	for i, tr := range traces {
		d := delays[i]
		if tr.Rounds+d > horizon {
			horizon = tr.Rounds + d
		}
		total += len(tr.Entries)
	}
	if total == 0 {
		return horizon
	}
	// Counting pass: off[di+1] ends as the bucket start of directed edge
	// di (= 2*edge + dir), then a fill pass groups the composed rounds.
	off := make([]int32, 2*m+1)
	for _, tr := range traces {
		for _, e := range tr.Entries {
			off[2*int32(e.Edge)+int32(e.Dir)+1]++
		}
	}
	for i := 1; i <= 2*m; i++ {
		off[i] += off[i-1]
	}
	rounds := make([]int64, total)
	fill := make([]int32, 2*m)
	copy(fill, off[:2*m])
	var maxRound int64
	for i, tr := range traces {
		d := delays[i]
		for _, e := range tr.Entries {
			di := 2*int32(e.Edge) + int32(e.Dir)
			rounds[fill[di]] = e.Round + d
			fill[di]++
			if e.Round+d > maxRound {
				maxRound = e.Round + d
			}
		}
	}
	// maxLoad[r] = max over directed edges of the messages an edge carries
	// in composed round r; each bucket is a concatenation of per-trace
	// sorted runs, so sort it and scan for equal-round runs.
	maxLoad := make([]int64, maxRound+1)
	for di := 0; di < 2*m; di++ {
		rs := rounds[off[di]:off[di+1]]
		if len(rs) == 0 {
			continue
		}
		slices.Sort(rs)
		run := int64(0)
		for i := range rs {
			if i > 0 && rs[i] == rs[i-1] {
				run++
			} else {
				run = 1
			}
			if run > maxLoad[rs[i]] {
				maxLoad[rs[i]] = run
			}
		}
	}
	totalSpan := horizon
	for _, l := range maxLoad {
		if l > 1 {
			totalSpan += l - 1
		}
	}
	return totalSpan
}

// SSSPRunner produces the trace of one SSSP instance from the given source.
type SSSPRunner func(g *graph.Graph, source graph.NodeID) (Trace, error)

// APSPParallel runs one SSSP instance per source (all n sources unless
// sources is non-nil) over a pool of `workers` goroutines (at least one)
// and composes the traces. The instances are independent simulations
// sharing nothing, so this is safe and near-linear; a pool of one runs
// them in source order. Traces are collected in source order and the
// random delays are seeded, so the composition does not depend on the
// pool size. If any instance fails, the error is the lowest-indexed
// failing source's, equally independent of the pool size and of
// goroutine scheduling. The runner is invoked concurrently and must only
// touch per-source state.
func APSPParallel(g *graph.Graph, sources []graph.NodeID, run SSSPRunner, seed int64, workers int) (Composition, error) {
	if sources == nil {
		sources = make([]graph.NodeID, g.N())
		for i := range sources {
			sources[i] = graph.NodeID(i)
		}
	}
	workers = max(min(workers, len(sources)), 1)
	traces := make([]Trace, len(sources))
	var (
		mu sync.Mutex
		// first is the lowest failing index so far and firstErr its error;
		// a source above it cannot change the returned error, so it is
		// skipped.
		first    = len(sources)
		firstErr error
	)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				mu.Lock()
				skip := i > first
				mu.Unlock()
				if skip {
					continue // keep draining so the producer never blocks
				}
				tr, err := run(g, sources[i])
				if err == nil {
					traces[i] = tr
					continue
				}
				mu.Lock()
				if i < first {
					first, firstErr = i, fmt.Errorf("sched: SSSP from %d: %w", sources[i], err)
				}
				mu.Unlock()
			}
		}()
	}
	for i := range sources {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return Composition{}, firstErr
	}
	return Compose(g.M(), traces, seed), nil
}
