package simnet

import (
	"sync"
	"sync/atomic"

	"dsssp/internal/graph"
)

// resumePool fans one round's wakes out over a persistent set of workers.
// A worker runs each of its nodes' wakes in whichever form the node is in
// (Engine.dispatch): a coroutine resume, or a direct call of the node's
// Drive stepper — which, when the stepper is done, resumes the coroutine
// on that same worker. The engine goroutine publishes the round's batch,
// releases the workers through the start channel, works a share itself,
// and joins them at the WaitGroup barrier — after which it alone replays
// every cross-node effect in node-ID order (see Engine.Run). The channel send
// happens-before the worker's receive and each worker's writes happen-
// before the engine's Wait return, so the pool adds no ordering beyond the
// barrier itself; workers touch only per-node state (resumeOne) plus the
// mutex-guarded span interner.
//
// iter.Pull coroutines explicitly support sequential resumes from
// different goroutines, so a node migrating between workers round to round
// is fine, and a stepper touches only its own node's state; what would not
// be fine — two concurrent wakes of one node — cannot happen because the
// batch partition assigns each node to exactly one worker per round.
type resumePool struct {
	e *Engine
	// workers counts the engine goroutine itself; workers-1 goroutines run.
	workers int
	// minBatch gates fan-out per round: below it the barrier handoff costs
	// more than the parallel resumes save, so the engine resumes inline.
	minBatch int

	batch []graph.NodeID
	round int64
	next  atomic.Int64
	start chan struct{}
	wg    sync.WaitGroup
}

// resumeChunk is the unit of work-stealing: workers grab index ranges of
// this size from the shared cursor, balancing uneven program step costs
// without per-node atomic traffic.
const resumeChunk = 16

// testMinBatch, when > 0, overrides the pool's fan-out threshold — the
// differential tests force tiny batches through the concurrent path.
var testMinBatch int

func newResumePool(e *Engine, workers int) *resumePool {
	p := &resumePool{
		e:       e,
		workers: workers,
		// Calibrated on the dense-round benchmark: below ~64 resumes per
		// helper the barrier handoff costs more than the fan-out saves, so
		// awake-sparse workloads (CSSP averages <1 awake node per round)
		// stay on the inline path and pay nothing for Workers>1.
		minBatch: workers * 4 * resumeChunk,
		start:    make(chan struct{}),
	}
	if testMinBatch > 0 {
		p.minBatch = testMinBatch
	}
	for i := 0; i < workers-1; i++ {
		go func() {
			for range p.start {
				p.drain()
				p.wg.Done()
			}
		}()
	}
	return p
}

// runRound resumes every node in batch concurrently and returns after all
// resumes have yielded back. Caller is the engine goroutine.
func (p *resumePool) runRound(batch []graph.NodeID, round int64) {
	p.batch = batch
	p.round = round
	p.next.Store(0)
	// minBatch guarantees at least 4 chunks per worker, so every helper
	// woken here has work waiting at the cursor.
	p.wg.Add(p.workers - 1)
	for i := 0; i < p.workers-1; i++ {
		p.start <- struct{}{}
	}
	p.drain()
	p.wg.Wait()
}

func (p *resumePool) drain() {
	n := int64(len(p.batch))
	for {
		i := p.next.Add(resumeChunk) - resumeChunk
		if i >= n {
			return
		}
		end := min(i+resumeChunk, n)
		for _, id := range p.batch[i:end] {
			p.e.resumeOne(id, p.round)
		}
	}
}

// close retires the worker goroutines. Must be called before the engine's
// shutdown stops the coroutines, so no worker can be mid-resume when a
// coroutine is torn down (Run's defer ordering arranges exactly that).
func (p *resumePool) close() {
	close(p.start)
}
