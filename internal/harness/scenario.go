// Package harness is the scenario-sweep subsystem: a registry of named,
// self-describing graph workloads (family × weights × model × algorithm), a
// concurrent runner that fans independent simulations out over a worker
// pool, and a reporting layer that emits machine-readable JSON and markdown
// tables next to the paper's predicted polylog envelopes.
//
// Scenarios are pure descriptions — a Scenario is a value, an Execute turns
// it into a Result, and nothing in between touches shared state — so runs
// are deterministic regardless of the worker count: the same scenario list
// always yields byte-identical results.
package harness

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"slices"

	"dsssp/internal/graph"
	"dsssp/internal/proto"
)

// Algorithm names a distributed (or baseline) algorithm a scenario runs.
type Algorithm string

// Algorithms the harness can drive.
const (
	// AlgSSSP is the paper's exact single-source shortest path
	// (Theorems 2.6/2.7 in CONGEST, Theorem 3.15 in the sleeping model).
	AlgSSSP Algorithm = "sssp"
	// AlgCSSP is the multi-source closest-source problem with offsets
	// (Definition 2.3).
	AlgCSSP Algorithm = "cssp"
	// AlgBFS is hop-distance computation: the cover-driven low-energy BFS
	// in the sleeping model (Thms 3.13/3.14), plain distributed BFS in
	// CONGEST.
	AlgBFS Algorithm = "bfs"
	// AlgAPSP is the Section 1.1 composition: one CSSP instance per source
	// under staggered-delay scheduling.
	AlgAPSP Algorithm = "apsp"
	// AlgBellmanFord is the classic distributed Bellman-Ford baseline.
	AlgBellmanFord Algorithm = "bellman-ford"
	// AlgDijkstra is the sequential-style distributed Dijkstra baseline.
	AlgDijkstra Algorithm = "dijkstra"
)

// Model selects the execution model of a scenario.
type Model string

// Models.
const (
	ModelCongest  Model = "congest"
	ModelSleeping Model = "sleeping"
)

// WeightKind selects a weight distribution.
type WeightKind string

// Weight distributions.
const (
	// WeightUnit gives every edge weight 1 (the BFS/unweighted regime).
	WeightUnit WeightKind = "unit"
	// WeightUniform draws uniformly from [1, MaxW].
	WeightUniform WeightKind = "uniform"
	// WeightZeroHeavy mixes weight 0 (probability 1/4) with uniform
	// [1, MaxW], exercising the Theorem 2.7 zero-weight extension.
	WeightZeroHeavy WeightKind = "zero-heavy"
)

// WeightSpec describes a weight distribution; the concrete WeightFn is
// derived deterministically from the scenario seed.
type WeightSpec struct {
	Kind WeightKind `json:"kind"`
	// MaxW is the maximum weight for the seeded kinds (ignored for unit).
	MaxW int64 `json:"max_w,omitempty"`
}

// Fn is the distribution's weight function, drawn from seed for the seeded
// kinds; any other kind, the empty one included, is unit weight. It is the
// one mapping from a weight kind to a graph.WeightFn, shared by scenarios
// and the daemon's generator specs.
func (w WeightSpec) Fn(seed int64) graph.WeightFn {
	switch w.Kind {
	case WeightUniform:
		return graph.UniformWeights(w.MaxW, seed)
	case WeightZeroHeavy:
		return graph.ZeroHeavyWeights(w.MaxW, seed)
	default:
		return graph.UnitWeights
	}
}

// Scenario is one named, self-describing workload: everything needed to
// build a graph and run one algorithm on it, deterministically.
type Scenario struct {
	// Name uniquely identifies the scenario in the registry, conventionally
	// "<model>-<alg>/<family>/n=<n>".
	Name string `json:"name"`
	// Description says which claim of the paper the scenario exercises.
	Description string       `json:"description,omitempty"`
	Family      graph.Family `json:"family"`
	N           int          `json:"n"`
	Weights     WeightSpec   `json:"weights"`
	Model       Model        `json:"model"`
	Alg         Algorithm    `json:"alg"`
	// Sources is the number of sources for AlgCSSP (default 1; others
	// always use a single source, node 0).
	Sources int `json:"sources,omitempty"`
	// EpsNum/EpsDen override the cutter ε in (0,1) (0/0 = the algorithm
	// default of 1/2). Part of the scenario's stable identity, so the ε
	// sweep dimension survives the JSON round trip for diff tooling.
	EpsNum int64 `json:"eps_num,omitempty"`
	EpsDen int64 `json:"eps_den,omitempty"`
	// Strict runs the scenario in strict-CONGEST mode: every message is
	// sized and the run fails if any exceeds the O(log n)-bit budget
	// (proto.BitBudget). CONGEST SSSP/CSSP/APSP only.
	Strict bool `json:"strict,omitempty"`
	// Seed is the base seed; the graph-structure and weight seeds are
	// derived from it and the scenario name, so renaming or reseeding a
	// scenario changes its graph but nothing else does.
	Seed int64 `json:"seed"`
}

// Validate rejects scenarios the generators or algorithms would panic on.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("harness: scenario has no name")
	}
	if s.N < 4 {
		return fmt.Errorf("harness: scenario %q: N must be >= 4, got %d", s.Name, s.N)
	}
	switch s.Alg {
	case AlgSSSP, AlgCSSP, AlgBFS, AlgAPSP, AlgBellmanFord, AlgDijkstra:
	default:
		return fmt.Errorf("harness: scenario %q: unknown algorithm %q", s.Name, s.Alg)
	}
	switch s.Model {
	case ModelCongest, ModelSleeping:
	default:
		return fmt.Errorf("harness: scenario %q: unknown model %q", s.Name, s.Model)
	}
	if (s.Alg == AlgBellmanFord || s.Alg == AlgDijkstra || s.Alg == AlgAPSP) && s.Model != ModelCongest {
		return fmt.Errorf("harness: scenario %q: %s runs only in the congest model", s.Name, s.Alg)
	}
	switch s.Weights.Kind {
	case WeightUnit:
	case WeightUniform, WeightZeroHeavy:
		if s.Weights.MaxW < 1 {
			return fmt.Errorf("harness: scenario %q: %s weights need MaxW >= 1", s.Name, s.Weights.Kind)
		}
	default:
		return fmt.Errorf("harness: scenario %q: unknown weight kind %q", s.Name, s.Weights.Kind)
	}
	if s.Sources < 0 || s.Sources > s.N {
		return fmt.Errorf("harness: scenario %q: Sources %d out of range", s.Name, s.Sources)
	}
	if s.EpsNum != 0 || s.EpsDen != 0 {
		if s.EpsNum <= 0 || s.EpsDen <= 0 || s.EpsNum >= s.EpsDen {
			return fmt.Errorf("harness: scenario %q: ε must be in (0,1), got %d/%d", s.Name, s.EpsNum, s.EpsDen)
		}
		if s.Alg != AlgSSSP && s.Alg != AlgCSSP && s.Alg != AlgAPSP {
			return fmt.Errorf("harness: scenario %q: ε applies to the CSSP recursion (sssp/cssp/apsp), not %s", s.Name, s.Alg)
		}
	}
	if s.Strict {
		if s.Model != ModelCongest {
			return fmt.Errorf("harness: scenario %q: strict-CONGEST mode needs the congest model, got %s", s.Name, s.Model)
		}
		switch s.Alg {
		case AlgSSSP, AlgCSSP, AlgAPSP:
		default:
			return fmt.Errorf("harness: scenario %q: strict-CONGEST mode supports sssp/cssp/apsp, not %s", s.Name, s.Alg)
		}
	}
	if !slices.Contains(graph.Families(), s.Family) {
		return fmt.Errorf("harness: scenario %q: unknown family %q", s.Name, s.Family)
	}
	return nil
}

// seeds derives the (structure, weight) seeds from the base seed and name.
func (s *Scenario) seeds() (int64, int64) {
	h := fnv.New64a()
	h.Write([]byte(s.Name))
	base := s.Seed ^ int64(h.Sum64()&0x7fffffffffffffff)
	return base, base*6364136223846793005 + 1442695040888963407
}

// BuildGraph materializes the scenario's graph. Same scenario ⇒ identical
// graph (edges, order, and weights), which is what makes sweep results
// reproducible and diffable across PRs.
func (s *Scenario) BuildGraph() *graph.Graph {
	gseed, wseed := s.seeds()
	return graph.Make(s.Family, s.N, s.Weights.Fn(wseed), gseed)
}

// SourceOffsets returns the deterministic CSSP source set: Sources nodes
// spread evenly over the ID space, with small increasing offsets to
// exercise the imaginary-node offsets of Section 2.3.
func (s *Scenario) SourceOffsets() map[graph.NodeID]int64 {
	k := s.Sources
	if k < 1 {
		k = 1
	}
	srcs := make(map[graph.NodeID]int64, k)
	for i := 0; i < k; i++ {
		srcs[graph.NodeID(i*s.N/k)] = int64(i)
	}
	return srcs
}

// Envelope holds the paper's asymptotic bounds instantiated with fixed,
// generous constants, so measured/predicted ratios are comparable across
// PRs: a ratio drifting toward (or past) 1 flags a complexity regression
// even while distances stay correct. Zero fields mean "no bound claimed".
type Envelope struct {
	// Rounds bounds time: Õ(n) for the paper's algorithms (Thms 2.6/2.7,
	// 3.15), Θ(n·D)-ish worst cases for the baselines are left unbounded.
	Rounds int64 `json:"rounds,omitempty"`
	// Congestion bounds max messages per edge: poly(log n) for CSSP/SSSP.
	Congestion int64 `json:"congestion,omitempty"`
	// MaxAwake bounds per-node awake rounds: poly(log n) in the sleeping
	// model (Thm 1.1).
	MaxAwake int64 `json:"max_awake,omitempty"`
	// MessageBits bounds the size of any single message: the strict
	// CONGEST O(log n)-bit budget (set only for Strict scenarios, where
	// the simulator enforces it).
	MessageBits int64 `json:"message_bits,omitempty"`
}

// lg is ⌈log₂ n⌉, and 1 for n < 2.
func lg(n int64) int64 {
	if n < 2 {
		return 1
	}
	return int64(bits.Len64(uint64(n - 1)))
}

// PredictedEnvelope returns the scenario's envelope. The Õ(·) bounds hide
// polylog factors in both n and the weighted diameter D ≤ n·maxW (the
// recursion has log D levels), so the envelopes carry both. The constants
// are calibrated once against the seed implementation (with ~4× headroom)
// and must only change deliberately — they are the regression baseline.
func (s *Scenario) PredictedEnvelope() Envelope {
	n := int64(s.N)
	l := lg(n)
	maxW := s.Weights.MaxW
	if maxW < 1 {
		maxW = 1
	}
	if s.Family == graph.FamilyBFGadget {
		maxW = 2*n + 1 // the gadget's chord weights are structural, not from WeightSpec
	}
	ld := lg(n * maxW) // recursion depth: log of the initial threshold D0
	// The strict-CONGEST bit budget grows with the effective weight range:
	// zero-weight graphs are rescaled by n+1 before the run (Thm 2.7), so
	// their distance values — and hence message payloads — are wider.
	bitW := maxW
	if s.Weights.Kind == WeightZeroHeavy {
		bitW = maxW * (n + 1)
	}
	var bits int64
	if s.Strict {
		bits = proto.BitBudget(s.N, bitW)
	}
	// The cutter's round cost per recursion level scales like 1/ε (the
	// fragment windows are Θ(D/ε) for the small-ε sweep); fold the
	// configured ε into the rounds envelope so the sweep stays comparable.
	epsFactor := int64(1)
	if s.EpsNum > 0 && s.EpsDen/s.EpsNum > 2 {
		epsFactor = (s.EpsDen + s.EpsNum - 1) / s.EpsNum / 2
	}
	switch s.Alg {
	case AlgSSSP, AlgCSSP:
		e := Envelope{Rounds: 64 * epsFactor * n * l * ld * ld, Congestion: 8 * l * l * ld * ld, MessageBits: bits}
		if s.Model == ModelSleeping {
			// The sleeping-model recursion pays polylog awake rounds
			// (Thm 3.15) but much larger constants in wall-clock rounds.
			e.Rounds = 0
			e.MaxAwake = 64 * l * l * ld * ld * ld
		}
		return e
	case AlgBFS:
		if s.Model == ModelSleeping {
			return Envelope{MaxAwake: 64 * l * l * l}
		}
		return Envelope{Rounds: 4 * n, Congestion: 8}
	case AlgAPSP:
		// Per-instance bounds; the composition metrics get their own
		// columns (staggered makespan vs C+T) in the report.
		return Envelope{Rounds: 64 * epsFactor * n * l * ld * ld, Congestion: 8 * n * l * l * ld * ld, MessageBits: bits}
	default:
		return Envelope{}
	}
}
