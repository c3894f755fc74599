package simnet

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dsssp/internal/graph"
)

// splitmix64 is the step function driving the random node scripts.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// scriptProgram returns a deterministic pseudo-random Program: every node
// derives an op stream (untagged and tagged sends, Next, SleepUntil jumps
// near and far, WaitMessage with and without deadline, early halts) from
// (seed, id) and folds everything it receives — tags included — into a
// hash it outputs. The stream reacts to received payloads, so scheduling
// divergences between engines cascade into different outputs, metrics,
// and traces.
func scriptProgram(seed int64, model Model, steps int) Program {
	return func(c *Ctx) {
		x := splitmix64(uint64(seed) ^ (uint64(c.ID())+1)*0x9e3779b97f4a7c15)
		var h uint64 = 1469598103934665603
		mix := func(v uint64) { h ^= v; h *= 1099511628211 }
		consume := func(in []Inbound) {
			for _, m := range in {
				mix(uint64(m.From))
				mix(uint64(m.Round))
				mix(m.Tag)
				mix(m.Body.(uint64))
			}
		}
		for s := 0; s < steps; s++ {
			x = splitmix64(x)
			if c.Degree() > 0 && x%3 != 0 {
				k := int(x>>8)%2 + 1
				for j := 0; j < k; j++ {
					i := int(x>>uint(16+4*j)) % c.Degree()
					if j == 0 {
						c.Send(i, h^x)
					} else {
						c.SendTagged(i, x>>48, h^x)
					}
				}
			}
			x = splitmix64(x)
			switch x % 7 {
			case 0, 1, 2:
				consume(c.Next())
			case 3:
				consume(c.SleepUntil(c.Round() + 1 + int64(x>>5)%4))
			case 4:
				// Far-future jump: files the wake in a high radix-heap
				// bucket, to be filed again on the way down.
				consume(c.SleepUntil(c.Round() + 1 + int64(x>>5)%3000))
			case 5:
				if model == Congest {
					consume(c.WaitMessage(c.Round() + 1 + int64(x>>5)%9))
				} else {
					consume(c.Next())
				}
			case 6:
				if x>>40%5 == 0 {
					c.SetOutput(h)
					return // early halt
				}
				consume(c.Next())
			}
		}
		c.SetOutput(h ^ uint64(c.Round()))
	}
}

// spanScriptProgram wraps scriptProgram with pseudo-random span open/close
// activity, so the randomized corpus also covers ledger interning, per-span
// attribution and first-open ordering.
func spanScriptProgram(seed int64, model Model, steps int) Program {
	inner := scriptProgram(seed, model, steps)
	return func(c *Ctx) {
		x := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(c.ID()))
		depth := 0
		for s := 0; s < 3; s++ {
			x = splitmix64(x)
			switch x % 3 {
			case 0:
				c.OpenSpan(fmt.Sprintf("phase%d", x>>8%5), depth)
				depth++
			case 1:
				if depth > 0 {
					c.CloseSpan()
					depth--
				}
			case 2:
				c.Next()
			}
		}
		inner(c)
	}
}

func equivGraph(seed int64, n int) *graph.Graph {
	switch seed % 4 {
	case 0:
		return graph.Path(n, graph.UnitWeights)
	case 1:
		return graph.Cycle(n, graph.UnitWeights)
	case 2:
		return graph.Star(n, graph.UnitWeights)
	default:
		return graph.RandomConnected(n, 2*n, graph.UnitWeights, seed)
	}
}

// oracleDivergence runs one entry of the randomized differential corpus
// through both the production scheduler (radix heap, batched handshakes,
// pooled buffers) and the frozen pre-rewrite oracle scheduler, and describes
// the first difference in Metrics, Outputs, Trace or error text; it returns
// "" when the two runs agree exactly.
func oracleDivergence(seed int64, model Model) string {
	n := int(splitmix64(uint64(seed))%22) + 2
	g := equivGraph(seed, n)
	cfg := Config{Model: model, RecordTrace: true, MaxRounds: 1 << 20}
	p := scriptProgram(seed, model, 12)

	want, werr := New(g, cfg).runOracle(p)
	got, gerr := New(g, cfg).Run(p)

	name := fmt.Sprintf("seed=%d model=%s n=%d", seed, model, n)
	if (werr == nil) != (gerr == nil) {
		return fmt.Sprintf("%s: error divergence: oracle=%v new=%v", name, werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			return fmt.Sprintf("%s: error text divergence:\noracle: %v\nnew:    %v", name, werr, gerr)
		}
		return ""
	}
	// The oracle predates the span ledger, so the production run's ledger
	// is left out of the comparison.
	got.Metrics.Spans = nil
	if !reflect.DeepEqual(want.Metrics, got.Metrics) {
		return fmt.Sprintf("%s: metrics divergence:\noracle: %+v\nnew:    %+v", name, want.Metrics, got.Metrics)
	}
	if !reflect.DeepEqual(want.Outputs, got.Outputs) {
		return fmt.Sprintf("%s: outputs divergence:\noracle: %v\nnew:    %v", name, want.Outputs, got.Outputs)
	}
	if !reflect.DeepEqual(want.Trace, got.Trace) {
		return fmt.Sprintf("%s: trace divergence (oracle %d entries, new %d)", name, len(want.Trace), len(got.Trace))
	}
	return ""
}

// oracleCorpusEntry is one (seed, model) point of the matrix the oracle
// tests sweep; oracleCorpus lists them all.
type oracleCorpusEntry struct {
	seed  int64
	model Model
}

func oracleCorpus() []oracleCorpusEntry {
	var out []oracleCorpusEntry
	for seed := int64(0); seed < 60; seed++ {
		for _, model := range []Model{Congest, Sleeping} {
			out = append(out, oracleCorpusEntry{seed, model})
		}
	}
	return out
}

// TestSchedulerMatchesOracle asserts the production scheduler reproduces
// the oracle exactly over the randomized corpus, in both models.
func TestSchedulerMatchesOracle(t *testing.T) {
	for _, c := range oracleCorpus() {
		if d := oracleDivergence(c.seed, c.model); d != "" {
			t.Fatal(d)
		}
	}
}

// concurrentEngines is how many goroutines the concurrent-engine tests run
// engines on at once, the way sched.APSPParallel runs one engine per source.
const concurrentEngines = 4

// TestParallelMatchesOracle runs the oracle corpus with several engines
// live on separate goroutines at once. The simulator's parallelism is
// across independent runs (per-source APSP), so engines must share no
// mutable state: each concurrent run has to match the oracle exactly, as
// a lone run does. Under -race this also checks for data races between
// engines.
func TestParallelMatchesOracle(t *testing.T) {
	corpus := oracleCorpus()
	divergences := make([]string, len(corpus))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < concurrentEngines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				c := corpus[i]
				divergences[i] = oracleDivergence(c.seed, c.model)
			}
		}()
	}
	for i := range corpus {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, d := range divergences {
		if d != "" {
			t.Fatal(d)
		}
	}
}

// TestSpanScriptConservation runs the span-scripted corpus in both models
// with message sizing on, so every run opens, nests and closes spans while
// sending, and asserts the ledger partitions the run's totals exactly.
func TestSpanScriptConservation(t *testing.T) {
	bits := func(_ uint64, msg any) int64 { return int64(msg.(uint64)%512) + 1 }
	for seed := int64(0); seed < 30; seed++ {
		for _, model := range []Model{Congest, Sleeping} {
			n := int(splitmix64(uint64(seed)+77)%22) + 2
			g := equivGraph(seed, n)
			cfg := Config{Model: model, MessageBits: bits, MaxRounds: 1 << 20}
			res, err := New(g, cfg).Run(spanScriptProgram(seed, model, 10))
			if err != nil {
				t.Fatalf("seed=%d model=%s n=%d: %v", seed, model, n, err)
			}
			if len(res.Metrics.Spans) == 0 || res.Metrics.Spans[0].Name != RootSpanName {
				t.Fatalf("seed=%d model=%s n=%d: ledger does not start at the root span: %+v", seed, model, n, res.Metrics.Spans)
			}
			checkSpanConservation(t, res.Metrics)
		}
	}
}

// errorCase is one scheduler-visible error path: a config and a program
// that must fail.
type errorCase struct {
	name string
	cfg  Config
	prog Program
}

// errorCases covers deadlock, MaxRounds, node panic (including every node
// panicking at once, where the lowest ID must win) and a message over the
// strict CONGEST bit budget.
func errorCases() []errorCase {
	return []errorCase{
		{
			name: "deadlock",
			cfg:  Config{Model: Congest},
			prog: func(c *Ctx) {
				if c.ID() == 0 {
					return
				}
				c.WaitMessage(-1)
			},
		},
		{
			name: "maxrounds",
			cfg:  Config{Model: Sleeping, MaxRounds: 64},
			prog: func(c *Ctx) { c.SleepUntil(1000) },
		},
		{
			name: "panic",
			cfg:  Config{Model: Congest},
			prog: func(c *Ctx) {
				if c.ID() == 1 {
					panic("boom")
				}
				c.SleepUntil(50)
			},
		},
		{
			name: "panic-lowest-id-wins",
			cfg:  Config{Model: Congest},
			prog: func(c *Ctx) {
				// Every node panics in round 0; the error names node 0.
				panic(fmt.Sprintf("boom from %d", c.ID()))
			},
		},
		{
			name: "strict-congest",
			cfg:  Config{Model: Congest, MessageBits: func(uint64, any) int64 { return 64 }, MaxMessageBits: 32},
			prog: func(c *Ctx) {
				c.Send(0, uint64(1))
				c.Next()
			},
		},
	}
}

// TestSchedulerMatchesOracleOnErrors pins the scheduler-visible error paths
// to the oracle's exact behavior.
func TestSchedulerMatchesOracleOnErrors(t *testing.T) {
	for _, tc := range errorCases() {
		g := graph.Path(4, graph.UnitWeights)
		_, werr := New(g, tc.cfg).runOracle(tc.prog)
		_, gerr := New(g, tc.cfg).Run(tc.prog)
		if werr == nil || gerr == nil {
			t.Fatalf("%s: expected errors, oracle=%v new=%v", tc.name, werr, gerr)
		}
		if werr.Error() != gerr.Error() {
			t.Fatalf("%s: error text divergence:\noracle: %v\nnew:    %v", tc.name, werr, gerr)
		}
		if tc.name == "panic-lowest-id-wins" && !strings.HasPrefix(gerr.Error(), "node 0 panicked") {
			t.Fatalf("%s: error %q does not name node 0", tc.name, gerr)
		}
	}
}

// TestParallelErrorPaths runs every error case on several engines at once,
// on separate goroutines, and asserts each reports the same error text as
// a lone run: a failing engine (deadlock, MaxRounds, a panicking node, a
// message over the bit budget) must not disturb, or be disturbed by, the
// engines running beside it.
func TestParallelErrorPaths(t *testing.T) {
	for _, tc := range errorCases() {
		g := graph.Path(40, graph.UnitWeights)
		_, werr := New(g, tc.cfg).Run(tc.prog)
		if werr == nil {
			t.Fatalf("%s: expected an error from a lone run", tc.name)
		}
		errs := make([]error, concurrentEngines)
		var wg sync.WaitGroup
		for w := range errs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				_, errs[w] = New(g, tc.cfg).Run(tc.prog)
			}(w)
		}
		wg.Wait()
		for w, gerr := range errs {
			if gerr == nil {
				t.Fatalf("%s engine %d: expected an error", tc.name, w)
			}
			if werr.Error() != gerr.Error() {
				t.Fatalf("%s engine %d: error text divergence:\nlone:       %v\nconcurrent: %v", tc.name, w, werr, gerr)
			}
		}
	}
}
