package energybfs

import (
	"testing"

	"dsssp/internal/decomp"
	"dsssp/internal/graph"
	"dsssp/internal/proto"
	"dsssp/internal/simnet"
)

// A cover can be reused across multiple BFS runs with different sources.
func TestCoverReuseAcrossSources(t *testing.T) {
	g := graph.Grid2D(6, 6, graph.UnitWeights)
	cv, err := decomp.Build(g, nil, nil, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []graph.NodeID{0, 35, 17} {
		eng := simnet.New(g, simnet.Config{Model: simnet.Sleeping})
		res, err := eng.Run(func(c *simnet.Ctx) {
			mb := proto.NewMailbox(c)
			off := NotSource
			if c.ID() == src {
				off = 0
			}
			d := Run(mb, Params{Tag: 1, StartRound: 0, Cover: cv, Threshold: 12, SourceOffset: off})
			c.SetOutput(d)
		})
		if err != nil {
			t.Fatal(err)
		}
		ref := graph.BFSDist(g, src)
		for v := 0; v < g.N(); v++ {
			want := ref[v]
			if want > 12 {
				want = graph.Inf
			}
			if res.Outputs[v].(int64) != want {
				t.Fatalf("src=%d node %d: got %v want %d", src, v, res.Outputs[v], want)
			}
		}
		if res.Metrics.LostMessages != 0 {
			t.Fatalf("src=%d: lost %d messages", src, res.Metrics.LostMessages)
		}
	}
}

// Threshold 1: only the source and its unit-distance neighbors resolve.
func TestThresholdOne(t *testing.T) {
	g := graph.Star(8, graph.UnitWeights)
	got, met, err := RunBFS(g, map[graph.NodeID]int64{1: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		want := graph.Inf
		switch v {
		case 1:
			want = 0
		case 0:
			want = 1
		}
		if got[v] != want {
			t.Fatalf("node %d: got %d want %d", v, got[v], want)
		}
	}
	if met.LostMessages != 0 {
		t.Fatalf("lost %d", met.LostMessages)
	}
}

// No sources at all: everyone reports Inf with near-zero energy after init.
func TestNoSources(t *testing.T) {
	g := graph.Path(12, graph.UnitWeights)
	got, met, err := RunBFS(g, nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range got {
		if d != graph.Inf {
			t.Fatalf("node %d: %d", v, d)
		}
	}
	// Only the init phase costs energy when nothing is relevant.
	if met.MaxAwake > 100 {
		t.Fatalf("sourceless run awake %d rounds", met.MaxAwake)
	}
}

// Offsets exceeding the threshold are ignored as sources.
func TestOversizedOffset(t *testing.T) {
	g := graph.Path(6, graph.UnitWeights)
	got, _, err := RunBFS(g, map[graph.NodeID]int64{0: 99, 5: 0}, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{5, 4, 3, 2, 1, 0}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("node %d: got %d want %d", v, got[v], want[v])
		}
	}
}

// The step interval derived from a cover must respect the activation
// latency condition for every layer (Lemma 3.7's inequality).
func TestStepIntervalCondition(t *testing.T) {
	g := graph.RandomConnected(60, 60, graph.UnitWeights, 7)
	cv, err := decomp.Build(g, nil, nil, 30)
	if err != nil {
		t.Fatal(err)
	}
	i := StepInterval(cv)
	for _, l := range cv.Layers {
		if 6*l.Period > i*l.Radius {
			t.Fatalf("interval %d too small for layer radius %d period %d", i, l.Radius, l.Period)
		}
	}
}

// nextDuty must pick the earliest duty round after now over every window
// from firstWindow on, as a scan listing each window's duty rounds in
// closed form does: a listen round before the upward send (with children),
// the send at w+ld-d, and the broadcast round bStart+d (with a listen round
// before it below the root), bStart = w+ld+1. The memberships are
// scheduled by the slot code Run uses.
func TestNextDutyMatchesWindowScan(t *testing.T) {
	const bfsStart = 17
	for ld := int64(0); ld <= 4; ld++ {
		for d := int64(0); d <= ld; d++ {
			for _, hasChildren := range []bool{false, true} {
				if hasChildren && d == ld {
					continue
				}
				m := &decomp.Membership{Depth: d, Parent: -1}
				if d > 0 {
					m.Parent = 0
				}
				if hasChildren {
					m.Children = []int{1}
				}
				mm := &membership{period: 2*ld + 4}
				mm.schedule(proto.NewMailbox(nil), m, ld)
				r := &runner{bfsStart: bfsStart}
				for fw := int64(0); fw <= 3; fw++ {
					mm.firstWindow = fw
					for now := int64(0); now < bfsStart+6*mm.period; now++ {
						want := int64(-1)
						for k := fw; want < 0; k++ {
							w := bfsStart + k*mm.period
							var rounds []int64
							if hasChildren {
								rounds = append(rounds, w+ld-d-1)
							}
							rounds = append(rounds, w+ld-d)
							if d > 0 {
								rounds = append(rounds, w+ld+d)
							}
							rounds = append(rounds, w+ld+1+d)
							for _, x := range rounds {
								if x > now && (want < 0 || x < want) {
									want = x
								}
							}
						}
						if got := r.nextDuty(mm, now); got != want {
							t.Fatalf("ld=%d d=%d children=%v firstWindow=%d now=%d: nextDuty %d, want %d", ld, d, hasChildren, fw, now, got, want)
						}
					}
				}
			}
		}
	}
}
