// Package phase is the catalogue of the CSSP pipeline's phases: the keys
// internal/core opens its span-ledger spans under, with the paper construct
// and round envelope of each. Reports (internal/harness) read it to order
// and annotate a run's per-phase breakdown without depending on the
// algorithm itself.
package phase

// Phase describes one stage of the CSSP phase pipeline: the span-ledger key
// it reports under, the paper construct it implements, and the per-level
// round-envelope term the paper charges it with. The pipeline
// (internal/core) opens a ledger span around every stage, so BENCH reports
// can break a scenario's rounds down against exactly these terms — the
// per-phase accounting Forster–Nanongkai (arXiv:1711.01364) and Elkin
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

// The pipeline's phases. Cutter and BFSLayers are the two
// instantiations of the model-sensitive cut stage: the CONGEST recursion
// runs the fragment cutter, the sleeping-model recursion runs bounded-hop
// BFS layers over the rounded metric.
var (
	// Run is the span every node starts in; it collects engine rounds
	// spent outside any pipeline stage (startup and teardown residue). Its
	// key must match the engine's implicit root span (simnet.RootSpanName).
	Run = Phase{
		Key: "run", Title: "Outside the pipeline",
		Ref: "—", Envelope: "O(1)",
	}
	Participate = Phase{
		Key: "participate", Title: "Participation exchange",
		Ref: "Sec 2.3 (subproblem entry)", Envelope: "O(1)",
	}
	Base = Phase{
		Key: "base", Title: "Base case D = 1",
		Ref: "Sec 2.3 step 1", Envelope: "O(1)",
	}
	Decompose = Phase{
		Key: "decompose", Title: "Spanning-forest decomposition",
		Ref: "Thm 3.1", Envelope: "O(n̂ log n̂)",
	}
	Cutter = Phase{
		Key: "cutter", Title: "Approximate cutter",
		Ref: "Lemma 2.1", Envelope: "O(n̂/ε)",
	}
	BFSLayers = Phase{
		Key: "bfs-layers", Title: "Bounded-hop BFS layers",
		Ref: "Thm 3.13/3.14 (energy cutter)", Envelope: "O((D/ρ + n̂) polylog)",
	}
	Barrier = Phase{
		Key: "barrier", Title: "Component barrier",
		Ref: "Sec 2.3 step 4 / Sec 3.1.1", Envelope: "O(n̂)",
	}
	Merge = Phase{
		Key: "merge", Title: "Cut offsets & merge",
		Ref: "Sec 2.3 steps 5–6", Envelope: "O(1)",
	}
	// Tree is the shortest-path tree extraction that follows the
	// recursion in dsssp.CSSPTree: one exchange round in which every node
	// picks the neighbor witnessing its distance.
	Tree = Phase{
		Key: "tree", Title: "Shortest-path tree extraction",
		Ref: "witness-parent exchange", Envelope: "O(1)",
	}
)

// Pipeline returns every phase the pipeline can report, in execution
// order — renderers use the order for flamegraph-style tables and the Ref
// column for self-describing reports.
func Pipeline() []Phase {
	return []Phase{
		Run, Participate, Base, Decompose,
		Cutter, BFSLayers, Barrier, Merge, Tree,
	}
}

// ByKey looks a phase up by its ledger key.
func ByKey(key string) (Phase, bool) {
	for _, p := range Pipeline() {
		if p.Key == key {
			return p, true
		}
	}
	return Phase{}, false
}

// Rank returns the phase's position in execution order (unknown keys
// sort last) — the deterministic ordering for breakdown tables.
func Rank(key string) int {
	for i, p := range Pipeline() {
		if p.Key == key {
			return i
		}
	}
	return len(Pipeline())
}
