package simnet

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dsssp/internal/graph"
)

// stepFunc adapts a closure to Stepper.
type stepFunc func(in []Inbound) (int64, bool)

func (f stepFunc) Step(in []Inbound) (int64, bool) { return f(in) }

// driveScript returns one pseudo-random node program in two forms. Both
// run a coroutine prologue, a middle section of sends and waits, and a
// coroutine epilogue, folding every arrival into the hash it answers. With
// driven set the middle section runs as a Drive stepper; otherwise it is
// the same logic as straight-line SleepUntil code. Waits mix "continue in
// this wake" (the stepper loops inline), next-round, near and far-future
// wakes (the heap fallback), and the section may be empty, so Drive
// returns from its first inline call.
func driveScript(seed int64, model Model, driven bool) func(*Ctx) uint64 {
	return func(c *Ctx) uint64 {
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
		send := func() {
			if c.Degree() > 0 && x%3 != 0 {
				c.SendTagged(int(x>>8)%c.Degree(), x>>60, h^x)
			}
		}
		// wait is a middle-section step's delay: 0 continues in this wake.
		wait := func() int64 {
			switch x >> 20 % 4 {
			case 0:
				return 0
			case 1:
				return 1
			case 2:
				return 1 + int64(x>>32)%4
			default:
				return 1 + int64(x>>32)%3000
			}
		}

		c.OpenSpan("prologue", 0)
		for k := 0; k < 2; k++ {
			x = splitmix64(x)
			send()
			consume(c.Next())
		}
		c.CloseSpan()

		c.OpenSpan("middle", 1)
		steps := int(x % 17)
		if driven {
			c.Drive(stepFunc(func(in []Inbound) (int64, bool) {
				consume(in)
				for ; steps > 0; steps-- {
					x = splitmix64(x)
					send()
					if d := wait(); d > 0 {
						steps--
						return c.Round() + d, false
					}
				}
				return 0, true
			}))
		} else {
			for ; steps > 0; steps-- {
				x = splitmix64(x)
				send()
				if d := wait(); d > 0 {
					consume(c.SleepUntil(c.Round() + d))
				}
			}
		}
		c.CloseSpan()

		x = splitmix64(x)
		send()
		if model == Congest && x%2 == 0 {
			consume(c.WaitMessage(c.Round() + 1 + int64(x>>5)%5))
		} else {
			consume(c.Next())
		}
		return h ^ uint64(c.Round())
	}
}

// TestDriveMatchesCoroutine diffs Drive against the coroutine form of the
// same logic: identical Metrics (per-node awake rounds, per-edge messages,
// spans, strict rounds), answers and Sends, in both models. The frozen
// oracle scheduler, which shares the engine's dispatch, must agree as well.
func TestDriveMatchesCoroutine(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		for _, model := range []Model{Congest, Sleeping} {
			n := int(splitmix64(uint64(seed)+5)%22) + 3
			g := equivGraph(seed, n)
			cfg := Config{Model: model, RecordTrace: true, MaxRounds: 1 << 20}
			wantOut, gotOut := make([]uint64, n), make([]uint64, n)
			want, werr := New(g, cfg).Run(recording(wantOut, driveScript(seed, model, false)))
			if werr != nil {
				t.Fatalf("seed=%d %s: coroutine run: %v", seed, model, werr)
			}
			got, gerr := New(g, cfg).Run(recording(gotOut, driveScript(seed, model, true)))
			name := fmt.Sprintf("seed=%d model=%s n=%d", seed, model, n)
			if gerr != nil {
				t.Fatalf("%s: driven run: %v", name, gerr)
			}
			if !reflect.DeepEqual(want.Metrics, got.Metrics) {
				t.Fatalf("%s: metrics divergence:\ncoroutine: %+v\ndriven:    %+v", name, want.Metrics, got.Metrics)
			}
			if !slices.Equal(wantOut, gotOut) {
				t.Fatalf("%s: answers divergence", name)
			}
			if d := sendsDiff(want.Sends, got.Sends); d != "" {
				t.Fatalf("%s: sends divergence (coroutine, driven): %s", name, d)
			}
			owOut, ogOut := make([]uint64, n), make([]uint64, n)
			ow, _ := New(g, cfg).runOracle(recording(owOut, driveScript(seed, model, false)))
			og, err := New(g, cfg).runOracle(recording(ogOut, driveScript(seed, model, true)))
			if err != nil || !reflect.DeepEqual(ow, og) || !slices.Equal(owOut, ogOut) {
				t.Fatalf("seed=%d %s: oracle scheduler diverges on Drive (err %v)", seed, model, err)
			}
		}
	}
}

// TestDrivePanicText: a step that panics, or asks for a wake that
// is not in the future, fails the run with exactly the error its coroutine
// twin gives — at a later wake through the engine, and on the first,
// inline call through Drive itself. Receiving (or driving) inside a step
// is refused.
func TestDrivePanicText(t *testing.T) {
	// at returns a stepper that wakes at round r, then runs last there.
	at := func(r int64, last func(c *Ctx) (int64, bool)) func(c *Ctx) Stepper {
		return func(c *Ctx) Stepper {
			first := true
			return stepFunc(func([]Inbound) (int64, bool) {
				if first {
					first = false
					return r, false
				}
				return last(c)
			})
		}
	}
	cases := []struct {
		name      string
		coroutine Program
		driven    func(c *Ctx) Stepper
	}{
		{
			name: "panic",
			coroutine: func(c *Ctx) {
				c.SleepUntil(3)
				panic(fmt.Sprintf("boom from %d", c.ID()))
			},
			driven: at(3, func(c *Ctx) (int64, bool) { panic(fmt.Sprintf("boom from %d", c.ID())) }),
		},
		{
			name: "wake-not-after-current",
			coroutine: func(c *Ctx) {
				c.SleepUntil(2)
				c.SleepUntil(2)
			},
			driven: at(2, func(c *Ctx) (int64, bool) { return 2, false }),
		},
		{
			name: "first-wake-not-after-current",
			coroutine: func(c *Ctx) {
				c.Next()
				c.SleepUntil(c.Round())
			},
			driven: func(c *Ctx) Stepper {
				c.Next()
				return stepFunc(func([]Inbound) (int64, bool) { return c.Round(), false })
			},
		},
	}
	g := graph.Path(40, graph.UnitWeights)
	for _, tc := range cases {
		for _, model := range []Model{Congest, Sleeping} {
			_, werr := New(g, Config{Model: model}).Run(tc.coroutine)
			if werr == nil {
				t.Fatalf("%s: coroutine run did not fail", tc.name)
			}
			_, gerr := New(g, Config{Model: model}).Run(func(c *Ctx) { c.Drive(tc.driven(c)) })
			if gerr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("%s %s: error text divergence:\ncoroutine: %v\ndriven:    %v", tc.name, model, werr, gerr)
			}
		}
	}
	for name, inside := range map[string]func(c *Ctx){
		"Next":         func(c *Ctx) { c.Next() },
		"nested Drive": func(c *Ctx) { c.Drive(stepFunc(func([]Inbound) (int64, bool) { return 0, true })) },
	} {
		_, err := New(g, Config{Model: Congest}).Run(func(c *Ctx) {
			c.Drive(at(2, func(c *Ctx) (int64, bool) { inside(c); return 0, true })(c))
		})
		if err == nil || !strings.Contains(err.Error(), "cannot receive inside a Drive step") {
			t.Fatalf("%s inside a step: got %v", name, err)
		}
	}
}

// TestDriveDoneResumesSameRound: a step that reports done hands the node
// back to its program in the round of that wake — no extra awake round,
// and what the program sends there goes out that round — and a step done
// on its first call returns from Drive without yielding.
func TestDriveDoneResumesSameRound(t *testing.T) {
	g := graph.RandomConnected(30, 40, graph.UnitWeights, 2)
	for _, model := range []Model{Congest, Sleeping} {
		out, res, err := RunEach(g, Config{Model: model}, func(c *Ctx) [3]int64 {
			c.Drive(stepFunc(func([]Inbound) (int64, bool) { return 0, true }))
			inline := c.Round()
			woke := false
			c.Drive(stepFunc(func([]Inbound) (int64, bool) {
				if woke {
					return 0, true
				}
				woke = true
				return 4, false
			}))
			returned := c.Round()
			for i := 0; i < c.Degree(); i++ {
				c.Send(i, uint64(returned))
			}
			got := len(c.Next())
			return [3]int64{inline, returned, int64(c.Degree() - got)}
		})
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		for v, ans := range out {
			if ans != [3]int64{0, 4, 0} {
				t.Fatalf("%s: node %d (inline round, returned round, missing messages) = %v, want [0 4 0]", model, v, ans)
			}
			if a := res.Metrics.PerNodeAwake[v]; a != 3 {
				t.Fatalf("%s: node %d awake %d rounds, want 3 (rounds 0, 4, 5)", model, v, a)
			}
		}
	}
}

// TestDriveErrorLeaksNoGoroutines: a run that fails while nodes are
// suspended inside Drive — by a step panic or by MaxRounds — unwinds every
// node coroutine before Run returns its error.
func TestDriveErrorLeaksNoGoroutines(t *testing.T) {
	sleeper := func(fail bool) Program {
		return func(c *Ctx) {
			c.Drive(stepFunc(func([]Inbound) (int64, bool) {
				if fail && c.ID() == 7 && c.Round() >= 10 {
					panic("boom")
				}
				return c.Round() + 5, false
			}))
		}
	}
	cases := []struct {
		name string
		cfg  Config
		prog Program
		want string
	}{
		{"step-panic", Config{Model: Sleeping}, sleeper(true), "node 7 panicked: boom"},
		{"max-rounds", Config{Model: Congest, MaxRounds: 50}, sleeper(false), "exceeded MaxRounds=50"},
	}
	g := graph.Path(64, graph.UnitWeights)
	for _, tc := range cases {
		before := runtime.NumGoroutine()
		_, err := New(g, tc.cfg).Run(tc.prog)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got error %v, want %q", tc.name, err, tc.want)
		}
		// Give the runtime a moment to retire the unwound coroutines.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("%s: %d goroutines before the run, %d after", tc.name, before, after)
		}
	}
}
