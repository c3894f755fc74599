package core

import "math/bits"

// Phase describes one stage of the CSSP phase pipeline: the span-ledger key
// it reports under, the paper construct it implements, and the per-level
// round-envelope term the paper charges it with. The pipeline (pipeline.go)
// opens a ledger span around every stage, so BENCH reports can break a
// scenario's rounds down against exactly these terms — the per-phase
// accounting Forster–Nanongkai (arXiv:1711.01364) and Elkin
// (arXiv:1703.01939) use to argue their round bounds.
type Phase struct {
	// Key is the span-ledger / report identifier ("cutter", "barrier", …).
	Key string
	// Title is the human-readable stage name.
	Title string
	// Ref cites the paper construct the stage implements.
	Ref string
	// Envelope is the paper's per-recursion-level round bound for the
	// stage (n̂ = component size, D = the call's threshold).
	Envelope string
}

// The pipeline's phases. PhaseCutter and PhaseBFSLayers are the two
// instantiations of the model-sensitive cut stage: the CONGEST recursion
// runs the fragment cutter, the sleeping-model recursion runs bounded-hop
// BFS layers over the rounded metric.
var (
	// PhaseRun is the span every node starts in; it collects engine rounds
	// spent outside any pipeline stage (startup and teardown residue). Its
	// key must match the engine's implicit root span (simnet.RootSpanName).
	PhaseRun = Phase{
		Key: "run", Title: "Outside the pipeline",
		Ref: "—", Envelope: "O(1)",
	}
	PhaseParticipate = Phase{
		Key: "participate", Title: "Participation exchange",
		Ref: "Sec 2.3 (subproblem entry)", Envelope: "O(1)",
	}
	PhaseBase = Phase{
		Key: "base", Title: "Base case D = 1",
		Ref: "Sec 2.3 step 1", Envelope: "O(1)",
	}
	PhaseDecompose = Phase{
		Key: "decompose", Title: "Spanning-forest decomposition",
		Ref: "Thm 3.1", Envelope: "O(n̂ log n̂)",
	}
	PhaseCutter = Phase{
		Key: "cutter", Title: "Approximate cutter",
		Ref: "Lemma 2.1", Envelope: "O(n̂/ε)",
	}
	PhaseBFSLayers = Phase{
		Key: "bfs-layers", Title: "Bounded-hop BFS layers",
		Ref: "Thm 3.13/3.14 (energy cutter)", Envelope: "O((D/ρ + n̂) polylog)",
	}
	PhaseBarrier = Phase{
		Key: "barrier", Title: "Component barrier",
		Ref: "Sec 2.3 step 4 / Sec 3.1.1", Envelope: "O(n̂)",
	}
	PhaseMerge = Phase{
		Key: "merge", Title: "Cut offsets & merge",
		Ref: "Sec 2.3 steps 5–6", Envelope: "O(1)",
	}
	// PhaseTree is the shortest-path tree extraction that follows the
	// recursion in dsssp.CSSPTree: one exchange round in which every node
	// picks the neighbor witnessing its distance.
	PhaseTree = Phase{
		Key: "tree", Title: "Shortest-path tree extraction",
		Ref: "witness-parent exchange", Envelope: "O(1)",
	}
)

// PipelinePhases returns every phase the pipeline can report, in execution
// order — renderers use the order for flamegraph-style tables and the Ref
// column for self-describing reports.
func PipelinePhases() []Phase {
	return []Phase{
		PhaseRun, PhaseParticipate, PhaseBase, PhaseDecompose,
		PhaseCutter, PhaseBFSLayers, PhaseBarrier, PhaseMerge, PhaseTree,
	}
}

// PhaseByKey looks a phase up by its ledger key.
func PhaseByKey(key string) (Phase, bool) {
	for _, p := range PipelinePhases() {
		if p.Key == key {
			return p, true
		}
	}
	return Phase{}, false
}

// PhaseRank returns the phase's position in execution order (unknown keys
// sort last) — the deterministic ordering for breakdown tables.
func PhaseRank(key string) int {
	for i, p := range PipelinePhases() {
		if p.Key == key {
			return i
		}
	}
	return len(PipelinePhases())
}

// depthOf recovers the recursion depth from a call's heap path (path 1 is
// the root call at depth 0).
func depthOf(path uint64) int {
	return bits.Len64(path) - 1
}
