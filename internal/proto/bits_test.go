package proto

import (
	"reflect"
	"strings"
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/simnet"
)

func TestMessageBitsSizing(t *testing.T) {
	// Bodies are sized by information content; MessageBits adds the tag.
	bodies := []struct {
		name string
		body any
		want int64
	}{
		{"bool", true, 1},
		{"zero int", int64(0), 2},    // sign + 1 magnitude bit
		{"int 255", int64(255), 9},   // sign + 8
		{"negative", int64(-255), 9}, // magnitude of -255
		{"uint", uint64(1024), 11},   // Len64(1024)
		{"struct", struct{ A, B int64 }{3, 4}, (1 + 2) + (1 + 3)},
		{"empty struct", struct{}{}, 0},
		{"slice charges elements", []int64{1, 1, 1, 1}, 8 + 4*2},
		{"string", "ab", 8 + 16},
	}
	for _, c := range bodies {
		if got := valueBits(reflect.ValueOf(c.body)); got != c.want {
			t.Errorf("%s: body %v sized at %d bits, want %d", c.name, c.body, got, c.want)
		}
	}
	tagged := []struct {
		name string
		tag  uint64
		body any
		want int64
	}{
		{"tagged", 7, int64(1), 3 + 2}, // Len64(7) + (sign+1)
		{"nil body", 1, nil, 1 + 1},
		{"tag 0", 0, true, 1 + 1},
	}
	for _, c := range tagged {
		if got := MessageBits(c.tag, c.body); got != c.want {
			t.Errorf("%s: MessageBits(%d, %v) = %d, want %d", c.name, c.tag, c.body, got, c.want)
		}
	}
	// A Θ(n) payload must be charged Θ(n) bits — no smuggling a vector
	// inside "one message".
	big := make([]int64, 1000)
	if got := MessageBits(1, big); got < 1000 {
		t.Errorf("1000-element slice sized at only %d bits", got)
	}
}

func TestBitBudgetMonotone(t *testing.T) {
	if BitBudget(16, 1) <= 0 {
		t.Fatal("non-positive budget")
	}
	if BitBudget(1024, 1024) <= BitBudget(16, 1) {
		t.Error("budget must grow with n·maxW")
	}
	// O(log n): doubling n adds O(1) words' worth of bits.
	d := BitBudget(2048, 16) - BitBudget(1024, 16)
	if d <= 0 || d > 64 {
		t.Errorf("budget growth per doubling = %d bits, want a small positive constant", d)
	}
}

// TestStrictBudgetEnforced: the engine must fail loudly the moment a
// message exceeds MaxMessageBits, and must report MaxMessageBits in the
// metrics when sizing is on.
func TestStrictBudgetEnforced(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights)

	// Within budget: runs clean and measures.
	eng := simnet.New(g, simnet.Config{Model: simnet.Congest, MessageBits: MessageBits, MaxMessageBits: 64})
	res, err := eng.Run(func(c *simnet.Ctx) {
		if c.ID() == 0 {
			c.SendTagged(0, 1, int64(42))
		}
		c.Next()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.MaxMessageBits; got != 1+(1+6) { // tag 1 + (sign + Len64(42))
		t.Errorf("MaxMessageBits = %d, want 8", got)
	}

	// Oversized: loud failure naming the offender's tag and body type.
	eng = simnet.New(g, simnet.Config{Model: simnet.Congest, MessageBits: MessageBits, MaxMessageBits: 64})
	_, err = eng.Run(func(c *simnet.Ctx) {
		if c.ID() == 0 {
			c.SendTagged(0, 5, make([]int64, 64))
		}
		c.Next()
	})
	if err == nil {
		t.Fatal("oversized message accepted")
	}
	for _, want := range []string{"strict CONGEST violation", "64-bit budget", "(tag 5, []int64)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("violation %q does not mention %q", err, want)
		}
	}

	// No budget: sizing only, never fails.
	eng = simnet.New(g, simnet.Config{Model: simnet.Congest, MessageBits: MessageBits})
	res, err = eng.Run(func(c *simnet.Ctx) {
		if c.ID() == 0 {
			c.SendTagged(0, 1, make([]int64, 64))
		}
		c.Next()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.MaxMessageBits < 64 {
		t.Errorf("big message sized at %d bits", res.Metrics.MaxMessageBits)
	}
}
