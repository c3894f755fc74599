package forest

import (
	"bytes"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/proto"
	"dsssp/internal/simnet"
)

// diffProgram wraps a forest build in a program that exercises what
// surrounds it in the pipeline: nodes may enter before StartRound or at
// it, some nodes may sit the construction out, the build runs inside an
// open span, and the program goes on in the round Build returns — sending
// over its new tree and receiving once more — so a machine that resumed
// the coroutine in the wrong round, or lost a wake's arrivals, shows up in
// the answers, the metrics or the trace.
func diffProgram(build func(*proto.Mailbox, Params) Result, p Params, enter int64, sitsOut func(graph.NodeID) bool) func(*simnet.Ctx) diffAnswer {
	return func(c *simnet.Ctx) diffAnswer {
		mb := proto.NewMailbox(c)
		if enter > 0 {
			mb.SleepUntil(enter)
		}
		if sitsOut != nil && sitsOut(c.ID()) {
			mb.SleepUntil(p.StartRound + Duration(p.SizeBound))
			return diffAnswer{returned: c.Round()}
		}
		c.OpenSpan("forest", 1)
		r := build(mb, p)
		c.CloseSpan()
		returned := c.Round()
		for _, ch := range r.Tree.Children {
			mb.Send(ch, 999, returned)
		}
		mb.Next()
		return diffAnswer{r, returned, len(mb.Take(999))}
	}
}

// diffAnswer is a node's answer in diffProgram: its build's Result, the
// round the build returned in, and how many of its parent's post-build
// messages it heard. A node that sat the build out answers only the round
// it woke in.
type diffAnswer struct {
	r        Result
	returned int64
	heard    int
}

// TestBuildMatchesOracle diffs the step machine against the frozen
// coroutine construction: identical per-node Results, Metrics (awake
// rounds, per-edge messages, spans, strict rounds) and Trace, in both
// models, over random, star and disconnected graphs, eligibility masks,
// slack size bounds, a StartRound in the future, an entry exactly at
// StartRound, and nodes that do not participate.
func TestBuildMatchesOracle(t *testing.T) {
	random := graph.RandomConnected(40, 60, graph.UniformWeights(8, 3), 3)
	evenWeight := func(c *simnet.Ctx) func(int) bool {
		return func(i int) bool { return c.Weight(i)%2 == 0 }
	}
	sitOut := func(v graph.NodeID) bool { return v%4 == 0 }
	cases := []struct {
		name     string
		g        *graph.Graph
		bound    int64 // 0: n
		start    int64
		enter    int64
		eligible func(c *simnet.Ctx) func(int) bool
		sitsOut  func(graph.NodeID) bool
	}{
		{name: "random", g: random},
		{name: "star", g: graph.Star(24, graph.UnitWeights)},
		{name: "disconnected", g: graph.Disconnected(3, 30, 12, graph.UniformWeights(5, 4), 4)},
		{name: "eligible-mask", g: random, eligible: evenWeight},
		{name: "slack-bound", g: graph.Cycle(12, graph.UnitWeights), bound: 40},
		{name: "future-start", g: random, start: 9},
		{name: "enter-at-start", g: random, start: 5, enter: 5},
		{name: "non-participants", g: random, start: 3, sitsOut: sitOut,
			eligible: func(c *simnet.Ctx) func(int) bool {
				return func(i int) bool { return !sitOut(c.NeighborID(i)) }
			}},
	}
	for _, tc := range cases {
		for _, model := range []simnet.Model{simnet.Congest, simnet.Sleeping} {
			name := fmt.Sprintf("%s/%s", tc.name, model)
			bound := tc.bound
			if bound == 0 {
				bound = int64(tc.g.N())
			}
			run := func(build func(*proto.Mailbox, Params) Result) ([]diffAnswer, *simnet.Result, error) {
				cfg := simnet.Config{Model: model, RecordTrace: true}
				return simnet.RunEach(tc.g, cfg, func(c *simnet.Ctx) diffAnswer {
					p := Params{Tag: 7, StartRound: tc.start, SizeBound: bound}
					if tc.eligible != nil {
						p.Eligible = tc.eligible(c)
					}
					return diffProgram(build, p, tc.enter, tc.sitsOut)(c)
				})
			}
			wantOut, want, werr := run(buildOracle)
			gotOut, got, gerr := run(Build)
			if werr != nil || gerr != nil {
				t.Fatalf("%s: oracle err %v, machine err %v", name, werr, gerr)
			}
			for v := range wantOut {
				if !reflect.DeepEqual(wantOut[v], gotOut[v]) {
					t.Fatalf("%s: node %d answer:\noracle:  %+v\nmachine: %+v", name, v, wantOut[v], gotOut[v])
				}
			}
			if !reflect.DeepEqual(want.Metrics, got.Metrics) {
				t.Fatalf("%s: metrics:\noracle:  %+v\nmachine: %+v", name, want.Metrics, got.Metrics)
			}
			if !slices.EqualFunc(want.Sends, got.Sends, bytes.Equal) {
				t.Fatalf("%s: send records differ", name)
			}
		}
	}
}

// TestBuildAllocsPerResume pins the machine's allocation rate on a
// forest-only CONGEST run: the coroutine construction allocated 0.347
// objects per awake resume here (message bodies above one word, child-set
// growth, per-node setup), and the machine must not add to it — in
// particular it must never rebuild per-wake state such as its step value.
func TestBuildAllocsPerResume(t *testing.T) {
	g := graph.RandomConnected(256, 512, graph.UniformWeights(256, 7), 7)
	var met simnet.Metrics
	allocs := testing.AllocsPerRun(1, func() {
		res, err := simnet.New(g, simnet.Config{Model: simnet.Congest}).Run(func(c *simnet.Ctx) {
			Build(proto.NewMailbox(c), Params{Tag: 1, SizeBound: int64(c.N())})
		})
		if err != nil {
			t.Fatal(err)
		}
		met = res.Metrics
	})
	perResume := allocs / float64(met.TotalAwake)
	t.Logf("%.0f allocs over %d awake resumes = %.3f per resume", allocs, met.TotalAwake, perResume)
	if perResume > 0.35 {
		t.Errorf("%.3f allocations per awake resume, want <= 0.35", perResume)
	}
}

// Below: buildOracle, a frozen copy of the coroutine implementation of
// Build — every phase written as straight-line code over proto.Mailbox
// receives and the coroutine sweeps proto.SweepUp/SweepDown — kept as a
// differential oracle for the engine-driven step machine in forest.go. It
// shares only Params, Result, the message bodies, the tag offsets, the
// schedule constants (Phases, phaseLen, Duration) and proto's sweep
// schedule with the production code, so any divergence in per-node
// Results, Metrics or Trace is the machine's.
//
// Do not "improve" this code: its value is being the old semantics. (The
// only edits since freezing are the renames that let it live beside the
// machine: node → oracleNode, Build → buildOracle, cvStep → oracleCVStep,
// pickNonNil → oraclePickNonNil, and the SweepDown calls dropping the nil
// transform argument SweepDown no longer takes.)

// oracleNode is the per-node construction state.
type oracleNode struct {
	mb  *proto.Mailbox
	p   Params
	s   int64 // SizeBound
	deg int

	eligible []bool

	compID   graph.NodeID
	color    int64
	hasOut   bool
	parent   int   // nbIndex or -1
	children []int // sorted nbIndexes; doubles as the tree's Children
	depth    int64

	nbComp     []graph.NodeID // per edge, neighbor's component this phase
	chosenEdge int            // my adjacency index of my component's chosen edge, or -1
	incoming   []int          // edges on which a chooser registered this phase (reused)

	// adopt bookkeeping (per sub-step)
	pathChild int
	pathHops  int64
	marker    *markerBody
}

func (f *oracleNode) tag(off int) uint64 { return f.p.Tag + uint64(off) }

// tree returns the node's current tree view. Children aliases f.children:
// sweeps only read it, and the final Result outlives the construction.
func (f *oracleNode) tree() proto.Tree {
	return proto.Tree{Parent: f.parent, Children: f.children, Depth: f.depth}
}

// addChild inserts edge i into the sorted child set (a no-op if present).
func (f *oracleNode) addChild(i int) {
	if k, found := slices.BinarySearch(f.children, i); !found {
		f.children = slices.Insert(f.children, k, i)
	}
}

// removeChild deletes edge i from the sorted child set (a no-op if absent).
func (f *oracleNode) removeChild(i int) {
	if k, found := slices.BinarySearch(f.children, i); found {
		f.children = slices.Delete(f.children, k, k+1)
	}
}

// buildOracle runs the construction. Only participants call it; each returns its
// Result at round StartRound + Duration(SizeBound).
func buildOracle(mb *proto.Mailbox, p Params) Result {
	if p.SizeBound < 1 {
		panic("forest: SizeBound must be >= 1")
	}
	f := &oracleNode{
		mb:         mb,
		p:          p,
		s:          p.SizeBound,
		deg:        mb.C.Degree(),
		compID:     mb.C.ID(),
		color:      int64(mb.C.ID()),
		parent:     -1,
		chosenEdge: -1,
	}
	f.eligible = make([]bool, f.deg)
	for i := 0; i < f.deg; i++ {
		f.eligible[i] = p.Eligible == nil || p.Eligible(i)
	}
	f.nbComp = make([]graph.NodeID, f.deg)

	phases := Phases(f.s)
	for ph := int64(0); ph < phases; ph++ {
		f.phase(p.StartRound + ph*phaseLen(f.s))
	}

	// Final size agreement.
	fin := p.StartRound + phases*phaseLen(f.s)
	agg, isRoot := proto.SweepUp(mb, f.tree(), f.tag(tagSizeUp), fin, f.s, int64(1),
		func(a, b any) any { return a.(int64) + b.(int64) })
	var rv any
	if isRoot {
		rv = agg
	}
	size := proto.SweepDown(mb, f.tree(), f.tag(tagSizeDown), fin+f.s+2, rv).(int64)
	mb.AdvanceTo(p.StartRound + Duration(f.s))
	return Result{Tree: f.tree(), CompID: f.compID, Size: size}
}

func (f *oracleNode) phase(r0 int64) {
	mb := f.mb
	s := f.s

	// Colors restart from the (component-wide unique) component ID: CV
	// properness needs distinct inputs, and last phase's 6-color palette
	// is not distinct across components.
	f.color = int64(f.compID)

	// (1) Component-ID exchange.
	mb.AdvanceTo(r0)
	for i := 0; i < f.deg; i++ {
		if f.eligible[i] {
			mb.Send(i, f.tag(tagExch), f.compID)
		}
	}
	mb.SleepUntil(r0 + 1)
	for i := range f.nbComp {
		f.nbComp[i] = -1
	}
	for _, m := range mb.Take(f.tag(tagExch)) {
		f.nbComp[m.NbIndex] = m.Body.(graph.NodeID)
	}

	// (2) Minimum outgoing edge via two sweeps.
	mine := minVal{}
	for i := 0; i < f.deg; i++ {
		if f.eligible[i] && f.nbComp[i] >= 0 && f.nbComp[i] != f.compID {
			id := mb.C.EdgeID(i)
			if !mine.Valid || id < mine.Edge {
				mine = minVal{Valid: true, Edge: id}
			}
		}
	}
	combineMin := func(a, b any) any {
		x, y := a.(minVal), b.(minVal)
		if !x.Valid {
			return y
		}
		if !y.Valid {
			return x
		}
		if y.Edge < x.Edge {
			return y
		}
		return x
	}
	agg, isRoot := proto.SweepUp(mb, f.tree(), f.tag(tagMinUp), r0+2, s, mine, combineMin)
	var rv any
	if isRoot {
		rv = agg
	}
	chosen := proto.SweepDown(mb, f.tree(), f.tag(tagMinDown), r0+s+4, rv).(minVal)
	f.hasOut = chosen.Valid
	f.chosenEdge = -1
	if chosen.Valid {
		for i := 0; i < f.deg; i++ {
			if f.eligible[i] && f.nbComp[i] >= 0 && f.nbComp[i] != f.compID && mb.C.EdgeID(i) == chosen.Edge {
				f.chosenEdge = i
			}
		}
	}

	// (3) Choice notification.
	a3 := r0 + 2*s + 6
	f.incoming = f.incoming[:0]
	mb.AdvanceTo(a3)
	if f.chosenEdge >= 0 {
		mb.Send(f.chosenEdge, f.tag(tagChosen), struct{}{})
	}
	mb.SleepUntil(a3 + 1)
	for _, m := range mb.Take(f.tag(tagChosen)) {
		f.incoming = append(f.incoming, m.NbIndex)
	}

	// (4) Cole–Vishkin coloring of the chooser pseudo-forest.
	a4 := r0 + 2*s + 8
	for t := 0; t < cvIters; t++ {
		f.cvIter(a4 + int64(t)*(2*s+6))
	}
	if f.hasOut && f.color >= numColors {
		panic(fmt.Sprintf("forest: node %d: CV color %d out of palette", mb.C.ID(), f.color))
	}

	// (5) Merge sub-steps, one per color.
	a5 := a4 + cvIters*(2*s+6)
	for c := int64(0); c < numColors; c++ {
		f.subStep(c, a5+c*(2*s+6))
	}
}

// cvIter performs one Cole–Vishkin iteration starting at round b: targets
// send their component's current color over incoming bridges; the chooser
// computes the new color; two sweeps distribute it component-wide.
func (f *oracleNode) cvIter(b int64) {
	mb := f.mb
	s := f.s
	if len(f.incoming) > 0 || f.chosenEdge >= 0 {
		mb.AdvanceTo(b)
		for _, e := range f.incoming {
			mb.Send(e, f.tag(tagColor), f.color)
		}
		mb.SleepUntil(b + 1)
	}
	if !f.hasOut {
		// Static components keep their color; they never move, so their
		// palette membership is irrelevant (see package comment).
		mb.Take(f.tag(tagColor))
		return
	}
	var myNew any
	if f.chosenEdge >= 0 {
		msgs := mb.Take(f.tag(tagColor))
		var tColor int64 = -1
		for _, m := range msgs {
			if m.NbIndex == f.chosenEdge {
				tColor = m.Body.(int64)
			}
		}
		if tColor < 0 {
			panic(fmt.Sprintf("forest: node %d: missing target color on bridge", mb.C.ID()))
		}
		myNew = oracleCVStep(f.color, tColor)
	}
	up, isRoot := proto.SweepUp(mb, f.tree(), f.tag(tagCVUp), b+2, s, myNew, oraclePickNonNil)
	var rv any
	if isRoot {
		rv = up
	}
	f.color = proto.SweepDown(mb, f.tree(), f.tag(tagCVDown), b+s+4, rv).(int64)
}

// oracleCVStep maps (mine, target) to the next color. When the colors coincide
// (possible only against a static target, which never conflicts), any
// self-derived bit keeps properness along active pointers.
func oracleCVStep(mine, target int64) int64 {
	if mine == target {
		return mine & 1
	}
	i := int64(bits.TrailingZeros64(uint64(mine ^ target)))
	return 2*i + ((mine >> i) & 1)
}

func oraclePickNonNil(a, b any) any {
	if a == nil {
		return b
	}
	return a
}

// subStep executes merge sub-step c starting at round sc.
func (f *oracleNode) subStep(c, sc int64) {
	mb := f.mb
	s := f.s
	attempting := f.hasOut && f.color == c
	chooserNow := attempting && f.chosenEdge >= 0

	if chooserNow || len(f.incoming) > 0 {
		mb.AdvanceTo(sc)
		if chooserNow {
			mb.Send(f.chosenEdge, f.tag(tagReq), f.compID)
		}
		mb.SleepUntil(sc + 1)
		for _, m := range mb.Take(f.tag(tagReq)) {
			switch {
			case m.Body.(graph.NodeID) == f.compID:
				mb.Send(m.NbIndex, f.tag(tagAck), ackBody{Verdict: ackSelf})
			case f.hasOut && f.color == c:
				mb.Send(m.NbIndex, f.tag(tagAck), ackBody{Verdict: ackBusy})
			default:
				mb.Send(m.NbIndex, f.tag(tagAck), ackBody{
					Verdict: ackOK, Comp: f.compID, Color: f.color, HasOut: f.hasOut, Depth: f.depth,
				})
				f.addChild(m.NbIndex)
			}
		}
	}
	if !attempting {
		return
	}

	// Adopt sweep A (marker up the old tree, old-depth schedule).
	f.marker = nil
	f.pathChild = -1
	f.pathHops = 0
	upStart := sc + 2
	sendRound := upStart + s - f.depth
	if len(f.children) > 0 {
		mb.AdvanceTo(sendRound - 1)
		mb.SleepUntil(sendRound)
	} else {
		mb.AdvanceTo(sendRound)
	}
	if chooserNow {
		// The chooser is awake at sc+1, so the ACK (sent in round sc+1) is
		// in the mailbox by now.
		for _, m := range mb.Take(f.tag(tagAck)) {
			ack := m.Body.(ackBody)
			if ack.Verdict == ackOK {
				f.marker = &markerBody{Hops: 0, Adopt: ack, UDepth: ack.Depth + 1}
			}
		}
	}
	for _, m := range mb.Take(f.tag(tagAdoptUp)) {
		mk := m.Body.(markerBody)
		f.pathChild = m.NbIndex
		f.pathHops = mk.Hops
		f.marker = &markerBody{Hops: mk.Hops, Adopt: mk.Adopt, UDepth: mk.UDepth}
	}
	if f.marker != nil && f.parent >= 0 {
		mb.Send(f.parent, f.tag(tagAdoptUp), markerBody{
			Hops: f.marker.Hops + 1, Adopt: f.marker.Adopt, UDepth: f.marker.UDepth,
		})
	}

	// Adopt sweep B (broadcast down the old tree, old-depth schedule).
	dwStart := sc + s + 3
	var body adoptDownBody
	if f.parent >= 0 {
		recvRound := dwStart + f.depth - 1
		mb.AdvanceTo(recvRound)
		mb.SleepUntil(recvRound + 1)
		msgs := mb.Take(f.tag(tagAdoptDown))
		if len(msgs) == 0 {
			panic(fmt.Sprintf("forest: node %d: missing adopt broadcast", mb.C.ID()))
		}
		body = msgs[0].Body.(adoptDownBody)
	} else {
		mb.AdvanceTo(dwStart)
		if f.marker == nil {
			body = adoptDownBody{Noop: true}
		} else {
			body = adoptDownBody{Adopt: f.marker.Adopt, UDepth: f.marker.UDepth}
		}
	}
	if body.Noop {
		for _, ch := range f.children {
			mb.Send(ch, f.tag(tagAdoptDown), body)
		}
		return
	}
	onPath := f.pathChild >= 0 || (f.marker != nil && f.pathChild < 0 && chooserNow)
	var newDepth int64
	if onPath {
		newDepth = body.UDepth + f.pathHops
	} else {
		newDepth = body.ParentDepth + 1
	}
	fwd := body
	fwd.ParentDepth = newDepth
	for _, ch := range f.children {
		mb.Send(ch, f.tag(tagAdoptDown), fwd)
	}
	// Apply the move: flip the path, adopt identity.
	oldParent := f.parent
	switch {
	case chooserNow && f.marker != nil:
		f.parent = f.chosenEdge
		if oldParent >= 0 {
			f.addChild(oldParent)
		}
	case f.pathChild >= 0:
		f.parent = f.pathChild
		f.removeChild(f.pathChild)
		if oldParent >= 0 {
			f.addChild(oldParent)
		}
	}
	f.compID = body.Adopt.Comp
	f.color = body.Adopt.Color
	f.hasOut = body.Adopt.HasOut
	f.depth = newDepth
	f.chosenEdge = -1
}
