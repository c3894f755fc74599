package harness

import (
	"fmt"

	"dsssp/internal/graph"
)

// Registry holds named scenarios in registration order.
type Registry struct {
	byName map[string]Scenario
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Scenario)}
}

// Register validates and adds a scenario; duplicate names are rejected.
func (r *Registry) Register(s Scenario) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if _, dup := r.byName[s.Name]; dup {
		return fmt.Errorf("harness: duplicate scenario %q", s.Name)
	}
	r.byName[s.Name] = s
	r.order = append(r.order, s.Name)
	return nil
}

// MustRegister is Register that panics; for building static suites.
func (r *Registry) MustRegister(s Scenario) {
	if err := r.Register(s); err != nil {
		panic(err)
	}
}

// Get returns the named scenario.
func (r *Registry) Get(name string) (Scenario, bool) {
	s, ok := r.byName[name]
	return s, ok
}

// Names returns all scenario names in registration order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.order...)
}

// Len returns the number of registered scenarios.
func (r *Registry) Len() int { return len(r.order) }

// Select resolves patterns to scenarios in registration order. Each pattern
// is either an exact name or a glob where '*' matches any run of characters
// (including '/') and '?' one character — so "congest-sssp/*" selects every
// CONGEST SSSP scenario and "*/random/*" every random-family one. "all" or
// an empty pattern list selects everything. A pattern matching nothing is
// an error — it almost always means a typo.
func (r *Registry) Select(patterns []string) ([]Scenario, error) {
	all := len(patterns) == 0
	for _, p := range patterns {
		if p == "all" {
			all = true
		}
	}
	if all {
		out := make([]Scenario, 0, len(r.order))
		for _, name := range r.order {
			out = append(out, r.byName[name])
		}
		return out, nil
	}
	picked := make(map[string]bool)
	for _, p := range patterns {
		hit := false
		for _, name := range r.order {
			if name == p || globMatch(p, name) {
				picked[name] = true
				hit = true
			}
		}
		if !hit {
			return nil, fmt.Errorf("harness: pattern %q matches no scenario (try -list)", p)
		}
	}
	out := make([]Scenario, 0, len(picked))
	for _, name := range r.order {
		if picked[name] {
			out = append(out, r.byName[name])
		}
	}
	return out, nil
}

// globMatch reports whether name matches pattern: '*' matches any run of
// characters (separators included, unlike path.Match — scenario names are
// hierarchical and sweeps routinely select whole subtrees), '?' exactly one.
func globMatch(p, name string) bool {
	px, nx := 0, 0
	star, mark := -1, 0
	for nx < len(name) {
		switch {
		case px < len(p) && (p[px] == '?' || p[px] == name[nx]):
			px++
			nx++
		case px < len(p) && p[px] == '*':
			star, mark = px, nx
			px++
		case star >= 0:
			px = star + 1
			mark++
			nx = mark
		default:
			return false
		}
	}
	for px < len(p) && p[px] == '*' {
		px++
	}
	return px == len(p)
}

// Default builds the standard sweep suite. With quick=true the sizes shrink
// to smoke-test scale (CI runs `dsssp-bench -quick`). The suite covers
// every generator family on the flagship CONGEST SSSP, plus targeted
// sweeps per claim: sleeping-model energy bounds, multi-source CSSP,
// zero-weight handling, cutter ε sweeps, multi-component (+Inf) graphs,
// strict-CONGEST bit-budget enforcement, APSP composition, and the classic
// baselines for contrast.
func Default(quick bool) *Registry {
	r := NewRegistry()
	name := func(model Model, alg Algorithm, fam graph.Family, n int) string {
		return fmt.Sprintf("%s-%s/%s/n=%d", model, alg, fam, n)
	}

	ssspSizes := []int{64, 128, 256}
	if quick {
		ssspSizes = []int{32, 64}
	}
	// Flagship: CONGEST SSSP over every family — Õ(n) rounds and polylog
	// congestion should hold regardless of topology (Thms 2.6/2.7). The
	// Bellman-Ford gadget is registered below with the baselines, at the
	// baseline sizes, so the contrast rows pair up.
	for _, fam := range graph.Families() {
		if fam == graph.FamilyBFGadget {
			continue
		}
		for _, n := range ssspSizes {
			r.MustRegister(Scenario{
				Name:        name(ModelCongest, AlgSSSP, fam, n),
				Description: "Thm 2.6/2.7: exact SSSP in Õ(n) rounds, polylog congestion",
				Family:      fam, N: n,
				Weights: WeightSpec{Kind: WeightUniform, MaxW: int64(n)},
				Model:   ModelCongest, Alg: AlgSSSP, Seed: 7,
			})
		}
	}

	// Multi-source CSSP with offsets, including the zero-weight extension.
	csspSizes := []int{64, 128}
	if quick {
		csspSizes = []int{32}
	}
	for _, n := range csspSizes {
		r.MustRegister(Scenario{
			Name:        name(ModelCongest, AlgCSSP, graph.FamilyRandom, n),
			Description: "Def 2.3: closest-source distances with offsets, 4 sources",
			Family:      graph.FamilyRandom, N: n, Sources: 4,
			Weights: WeightSpec{Kind: WeightUniform, MaxW: int64(n)},
			Model:   ModelCongest, Alg: AlgCSSP, Seed: 11,
		})
		r.MustRegister(Scenario{
			Name:        fmt.Sprintf("congest-cssp/random-zerow/n=%d", n),
			Description: "Thm 2.7: zero-weight edges handled exactly",
			Family:      graph.FamilyRandom, N: n, Sources: 2,
			Weights: WeightSpec{Kind: WeightZeroHeavy, MaxW: int64(n)},
			Model:   ModelCongest, Alg: AlgCSSP, Seed: 13,
		})
	}

	// ε sweep (Lemma 2.1): the cutter's approximation parameter must not
	// affect exactness, only the round/congestion constants — the envelopes
	// fold ε in, so drifting ratios flag an ε-dependent regression.
	epsSizes := []int{64}
	epsValues := [][2]int64{{1, 8}, {1, 4}, {3, 4}}
	if quick {
		epsSizes = []int{32}
		epsValues = [][2]int64{{1, 4}, {3, 4}}
	}
	for _, n := range epsSizes {
		for _, eps := range epsValues {
			r.MustRegister(Scenario{
				Name:        fmt.Sprintf("congest-cssp/random/n=%d/eps=%d-%d", n, eps[0], eps[1]),
				Description: "Lemma 2.1: cutter ε sweep — exact for every ε in (0,1)",
				Family:      graph.FamilyRandom, N: n, Sources: 2,
				Weights: WeightSpec{Kind: WeightUniform, MaxW: int64(n)},
				Model:   ModelCongest, Alg: AlgCSSP,
				EpsNum: eps[0], EpsDen: eps[1], Seed: 17,
			})
		}
	}

	// Multi-component graphs: sources sit in one component, so every other
	// component must report the exact +Inf sentinel (and self-verify via
	// the Unreachable count). CSSP spreads its sources across components.
	for _, n := range csspSizes {
		r.MustRegister(Scenario{
			Name:        name(ModelCongest, AlgCSSP, graph.FamilyDisconnected, n),
			Description: "multi-component CSSP: sources in two of three components, +Inf in the third",
			Family:      graph.FamilyDisconnected, N: n, Sources: 2,
			Weights: WeightSpec{Kind: WeightUniform, MaxW: int64(n)},
			Model:   ModelCongest, Alg: AlgCSSP, Seed: 19,
		})
	}

	// Sleeping-model BFS: polylog awake rounds (Thms 3.13/3.14), with the
	// always-awake CONGEST BFS alongside for the energy contrast.
	bfsSizes := []int{128, 256}
	if quick {
		bfsSizes = []int{64}
	}
	for _, fam := range []graph.Family{graph.FamilyPath, graph.FamilyGrid, graph.FamilyExpander, graph.FamilyDisconnected} {
		for _, n := range bfsSizes {
			r.MustRegister(Scenario{
				Name:        name(ModelSleeping, AlgBFS, fam, n),
				Description: "Thm 3.13/3.14: BFS with polylog awake rounds per node",
				Family:      fam, N: n,
				Weights: WeightSpec{Kind: WeightUnit},
				Model:   ModelSleeping, Alg: AlgBFS, Seed: 3,
			})
			r.MustRegister(Scenario{
				Name:        name(ModelCongest, AlgBFS, fam, n),
				Description: "always-awake BFS baseline for the energy contrast",
				Family:      fam, N: n,
				Weights: WeightSpec{Kind: WeightUnit},
				Model:   ModelCongest, Alg: AlgBFS, Seed: 3,
			})
		}
	}

	// Sleeping-model exact SSSP (Thm 3.15 / Thm 1.1) at small sizes, which
	// keep these pinned rows few: a run is no longer slow (random, weights
	// <= 4, one core of a 2-vCPU Xeon: ≈30 ms at n=24, ≈0.14 s at n=64,
	// ≈1.4 s at n=256), but two sizes cannot show how energy grows with n.
	energySizes := []int{16, 24}
	if quick {
		energySizes = []int{12}
	}
	for _, n := range energySizes {
		r.MustRegister(Scenario{
			Name:        name(ModelSleeping, AlgSSSP, graph.FamilyRandom, n),
			Description: "Thm 3.15/1.1: exact SSSP with polylog awake rounds",
			Family:      graph.FamilyRandom, N: n,
			Weights: WeightSpec{Kind: WeightUniform, MaxW: 4},
			Model:   ModelSleeping, Alg: AlgSSSP, Seed: 7,
		})
	}

	// APSP composition (Section 1.1): barbell maximizes bottleneck
	// congestion, random is the typical case.
	apspSizes := []int{32, 48}
	if quick {
		apspSizes = []int{16}
	}
	for _, fam := range []graph.Family{graph.FamilyRandom, graph.FamilyBarbell} {
		for _, n := range apspSizes {
			r.MustRegister(Scenario{
				Name:        name(ModelCongest, AlgAPSP, fam, n),
				Description: "Sec 1.1: n CSSP instances under staggered-delay scheduling",
				Family:      fam, N: n,
				Weights: WeightSpec{Kind: WeightUniform, MaxW: int64(n)},
				Model:   ModelCongest, Alg: AlgAPSP, Seed: 42,
			})
		}
	}

	// Strict-CONGEST mode: the same algorithms with the O(log n)-bit
	// message budget enforced by the simulator — any oversized message
	// fails the scenario loudly. The zero-heavy row checks that the
	// Thm 2.7 rescaling stays inside the (wider) rescaled-word budget.
	strictSizes := []int{64, 128}
	strictAPSP := 32
	if quick {
		strictSizes = []int{32}
		strictAPSP = 16
	}
	strictName := func(alg Algorithm, fam graph.Family, n int) string {
		return fmt.Sprintf("%s-%s-strict/%s/n=%d", ModelCongest, alg, fam, n)
	}
	for _, n := range strictSizes {
		for _, fam := range []graph.Family{graph.FamilyRandom, graph.FamilyExpander} {
			r.MustRegister(Scenario{
				Name:        strictName(AlgSSSP, fam, n),
				Description: "strict CONGEST: exact SSSP with every message within the O(log n)-bit budget",
				Family:      fam, N: n,
				Weights: WeightSpec{Kind: WeightUniform, MaxW: int64(n)},
				Model:   ModelCongest, Alg: AlgSSSP, Strict: true, Seed: 7,
			})
		}
		r.MustRegister(Scenario{
			Name:        fmt.Sprintf("congest-cssp-strict/random-zerow/n=%d", n),
			Description: "strict CONGEST + Thm 2.7: zero-weight rescaling fits the rescaled-word budget",
			Family:      graph.FamilyRandom, N: n, Sources: 2,
			Weights: WeightSpec{Kind: WeightZeroHeavy, MaxW: int64(n)},
			Model:   ModelCongest, Alg: AlgCSSP, Strict: true, Seed: 13,
		})
	}
	r.MustRegister(Scenario{
		Name:        strictName(AlgAPSP, graph.FamilyRandom, strictAPSP),
		Description: "strict CONGEST APSP: every composed instance within the bit budget",
		Family:      graph.FamilyRandom, N: strictAPSP,
		Weights: WeightSpec{Kind: WeightUniform, MaxW: int64(strictAPSP)},
		Model:   ModelCongest, Alg: AlgAPSP, Strict: true, Seed: 42,
	})

	// Large-n scenarios (full suite only): n=10^5 graphs exercising the
	// engine's memory engineering at real scale — the sizes where comparisons against Forster–Nanongkai-style
	// algorithms become meaningful. Low-diameter families keep the
	// always-awake BFS at O(n·diameter) total work; the CSSP pipelines stay
	// at the regular sizes (their Õ(n) rounds don't sweep at 10^5 yet).
	if !quick {
		hugeName := func(model Model, fam graph.Family, n int) string {
			return fmt.Sprintf("huge/%s-%s/%s/n=%d", model, AlgBFS, fam, n)
		}
		const hugeN = 100_000
		for _, fam := range []graph.Family{graph.FamilyRandom, graph.FamilyStar, graph.FamilyExpander} {
			r.MustRegister(Scenario{
				Name:        hugeName(ModelCongest, fam, hugeN),
				Description: "large-n smoke: BFS at n=10^5 through the arena-backed engine",
				Family:      fam, N: hugeN,
				Weights: WeightSpec{Kind: WeightUnit},
				Model:   ModelCongest, Alg: AlgBFS, Seed: 3,
			})
		}
		r.MustRegister(Scenario{
			Name:        hugeName(ModelSleeping, graph.FamilyStar, hugeN),
			Description: "large-n smoke: sleeping-model BFS at n=10^5, polylog awake rounds",
			Family:      graph.FamilyStar, N: hugeN,
			Weights: WeightSpec{Kind: WeightUnit},
			Model:   ModelSleeping, Alg: AlgBFS, Seed: 3,
		})
	}

	// Baselines on typical random graphs, plus the congestion contrast on
	// the Bellman-Ford worst-case gadget: its improving chords force 2n−4
	// messages onto Bellman-Ford's busiest edge. The paper's SSSP sends more
	// per edge at these sizes (2 272 vs 60 at n=32), but its busiest edge
	// grows by a polylog factor per doubling (Thm 2.6/2.7), not by 2×.
	blSizes := []int{64, 128}
	if quick {
		blSizes = []int{32}
	}
	for _, n := range blSizes {
		r.MustRegister(Scenario{
			Name:        name(ModelCongest, AlgBellmanFord, graph.FamilyRandom, n),
			Description: "baseline: distributed Bellman-Ford",
			Family:      graph.FamilyRandom, N: n,
			Weights: WeightSpec{Kind: WeightUniform, MaxW: int64(n)},
			Model:   ModelCongest, Alg: AlgBellmanFord, Seed: 7,
		})
		r.MustRegister(Scenario{
			Name:        name(ModelCongest, AlgDijkstra, graph.FamilyRandom, n),
			Description: "baseline: distributed Dijkstra",
			Family:      graph.FamilyRandom, N: n,
			Weights: WeightSpec{Kind: WeightUniform, MaxW: int64(n)},
			Model:   ModelCongest, Alg: AlgDijkstra, Seed: 7,
		})
		r.MustRegister(Scenario{
			Name:        name(ModelCongest, AlgBellmanFord, graph.FamilyBFGadget, n),
			Description: "Bellman-Ford worst case: 2n−4 messages on its busiest edge",
			Family:      graph.FamilyBFGadget, N: n,
			Weights: WeightSpec{Kind: WeightUnit},
			Model:   ModelCongest, Alg: AlgBellmanFord, Seed: 7,
		})
		r.MustRegister(Scenario{
			Name:        name(ModelCongest, AlgSSSP, graph.FamilyBFGadget, n),
			Description: "Thm 2.6/2.7 on the Bellman-Ford worst case: polylog growth per doubling; more messages per edge than Bellman-Ford at these sizes",
			Family:      graph.FamilyBFGadget, N: n,
			Weights: WeightSpec{Kind: WeightUnit},
			Model:   ModelCongest, Alg: AlgSSSP, Seed: 7,
		})
	}

	return r
}
