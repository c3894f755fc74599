// Package sched demonstrates the paper's APSP implication (Section 1.1):
// because the CSSP algorithm has poly(log n) congestion per edge, n
// independent SSSP instances — one per source — can run concurrently under
// random-delay scheduling [LMR94, Gha15] with near-optimal makespan Õ(n).
//
// The composition works on each instance's own engine result, recorded
// with simnet.Config.RecordTrace: SSSP instances are oblivious to each
// other (their message schedules do not depend on concurrent traffic), so
// executing instance i delayed by r_i rounds and serializing each composed
// round r into max_e load_e(r) strict CONGEST rounds is a faithful
// schedule. The package measures:
//
//   - dilation T (the longest single instance),
//   - congestion C (max total messages through an edge over all instances),
//   - the makespan of the aligned composition (all delays zero),
//   - the makespan of the random-delay composition (delays uniform in
//     [0, C)), which the scheduling theorem bounds by Õ(C + T),
//   - the trivial sequential composition (Σ of instance durations),
//   - the total messages and the heaviest single instance's congestion.
//
// Every figure but the two makespans is read off the instances' Metrics;
// the makespans walk their per-edge send records (Result.Sends).
//
// APSPParallel runs the instances over a worker pool of any size (a pool
// of one included) and composes their results.
package sched

import (
	"fmt"
	"math/rand"
	"sync"

	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

// Composition is the result of scheduling a set of instances together.
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
	// instances did not measure message sizes). The strict-CONGEST APSP
	// composition needs every instance inside the O(log n)-bit budget —
	// the scheduling theorem serializes rounds, never splits messages.
	MaxMessageBits int64
	// Messages is the total number of messages over all instances.
	Messages int64
	// InstanceCongestion is the heaviest single instance's congestion:
	// the maximum of the instances' MaxEdgeMessages.
	InstanceCongestion int64
	// Spans is the merged span ledger of all instances (nil when none
	// carries one): per-phase rounds/messages/awake sums and bit maxima
	// across every composed instance, so the APSP report can break its
	// totals down by pipeline phase like the single-source runs do.
	Spans []simnet.SpanMetrics
}

// Compose computes the composition metrics for the given instance results
// over a graph with m edges; each result must have been recorded with
// simnet.Config.RecordTrace. Random delays are drawn uniformly from [0, C)
// with the given seed, where C is the measured congestion.
func Compose(m int, results []*simnet.Result, seed int64) Composition {
	var comp Composition
	perEdge := make([]int64, m)
	spanLists := make([][]simnet.SpanMetrics, 0, len(results))
	for _, res := range results {
		met := &res.Metrics
		comp.Dilation = max(comp.Dilation, met.Rounds)
		comp.MaxMessageBits = max(comp.MaxMessageBits, met.MaxMessageBits)
		comp.InstanceCongestion = max(comp.InstanceCongestion, met.MaxEdgeMessages)
		comp.MakespanSequential += met.Rounds
		comp.Messages += met.Messages
		if len(met.Spans) > 0 {
			spanLists = append(spanLists, met.Spans)
		}
		for e, c := range met.PerEdgeMessages {
			perEdge[e] += c
		}
	}
	comp.Spans = simnet.MergeSpans(spanLists...)
	for _, c := range perEdge {
		comp.Congestion = max(comp.Congestion, c)
	}
	zero := make([]int64, len(results))
	comp.MakespanAligned = makespan(m, results, zero)
	delays := make([]int64, len(results))
	rng := rand.New(rand.NewSource(seed))
	span := max(comp.Congestion, 1)
	for i := range delays {
		delays[i] = rng.Int63n(span)
	}
	comp.MakespanRandom = makespan(m, results, delays)
	return comp
}

// makespan serializes the delayed composition: composed round r needs
// max(1, max_e per-direction load at r) strict CONGEST rounds, so the
// makespan is the horizon (the latest delayed instance end) plus, for
// each round, its peak load minus one.
//
// Each directed edge is taken in turn: its send record in every instance,
// shifted by that instance's delay, is walked into a horizon-sized load
// array, and a second walk raises the round's peak and clears the load
// for the next edge. Memory is two horizon-sized arrays whatever the
// message count, and the time is two decodes of every record.
func makespan(m int, results []*simnet.Result, delays []int64) int64 {
	var horizon int64
	for i, res := range results {
		horizon = max(horizon, res.Metrics.Rounds+delays[i])
	}
	load := make([]int64, horizon)
	peak := make([]int64, horizon)
	for di := 0; di < 2*m; di++ {
		for i, res := range results {
			for r := range simnet.SendRounds(res.Sends[di]) {
				load[r+delays[i]]++
			}
		}
		for i, res := range results {
			for r := range simnet.SendRounds(res.Sends[di]) {
				r += delays[i]
				peak[r] = max(peak[r], load[r])
				load[r] = 0
			}
		}
	}
	total := horizon
	for _, p := range peak {
		if p > 1 {
			total += p - 1
		}
	}
	return total
}

// SSSPRunner runs one SSSP instance from the given source and returns its
// engine result, recorded with simnet.Config.RecordTrace.
type SSSPRunner func(g *graph.Graph, source graph.NodeID) (*simnet.Result, error)

// APSPParallel runs one SSSP instance per source (all n sources unless
// sources is non-nil) over a pool of `workers` goroutines (at least one)
// and composes their results. The instances are independent simulations
// sharing nothing, so this is safe and near-linear; a pool of one runs
// them in source order. Results are collected in source order and the
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
	results := make([]*simnet.Result, len(sources))
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
				res, err := run(g, sources[i])
				if err == nil {
					results[i] = res
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
	return Compose(g.M(), results, seed), nil
}
