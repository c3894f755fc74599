// Package energybfs implements the sleeping-model (energy) thresholded BFS
// of Section 3.3 of the paper (Theorem 3.8, and the from-scratch form of
// Theorems 3.13/3.14 with the cover supplied by package decomp):
//
//   - Clusters of the layered sparse cover run periodic convergecast +
//     broadcast cycles on their trees (Section 3.1.1): layer j uses period
//     P_j = Θ(B^j), so a node is awake O(1) rounds per cycle per cluster.
//     Within a cycle window a member listens and acts in the rounds of
//     proto.UpSlot and proto.DownSlot, and acts through proto.UpAct and
//     DownAct, the schedule every tree sweep in the repository shares.
//   - A cluster is activated when its parent cluster is reached by the BFS
//     (Definition 3.5's relevance seeds the cascade: clusters whose parent
//     contains a source start active). A cluster deactivates once it has
//     been reached and all its child clusters are active (layer 0: once
//     all members are reached).
//   - The BFS advances one unit of the metric per fixed interval I, chosen
//     from the cover's measured depths so that the activation cascade
//     provably outruns the frontier (Lemma 3.7's condition): a layer-j
//     cluster is fully awake before any of its nodes can be reached.
//   - A node listens at BFS step rounds while one of its layer-0 clusters
//     is active, so token messages are never lost — the tests assert
//     LostMessages == 0 and exact distances. Once reached and no longer
//     listening, a node at distance d wakes for steps only through
//     d + 2·(its heaviest eligible edge): a neighbour's token cannot arrive
//     later, so its energy does not grow with the threshold. Heavy metric
//     edges are safe because package decomp floors every layer radius
//     above the first at the heaviest edge no heavier than MaxDist, so a
//     parent cluster also holds its child's neighbours and is awake before
//     any token crosses into the child.
//
// Tokens carry the receiver's distance; an edge of metric weight w relays
// from a node at distance d in the round of step d+w (a sleeping-model
// Dial scheme supporting the rounded weights and source offsets the energy
// CSSP of Theorem 3.15 needs).
//
// Every wake is fixed in advance (duty rounds recur every P_j, step rounds
// every I), so Run is an engine-driven step machine (simnet.Ctx.Drive): at
// each wake the engine calls the runner's Step, a method call instead of a
// switch to the node's coroutine; the schedule above is unchanged by it.
package energybfs

import (
	"fmt"

	"dsssp/internal/decomp"
	"dsssp/internal/graph"
	"dsssp/internal/proto"
	"dsssp/internal/simnet"
)

// NotSource marks a non-source node.
const NotSource = int64(-1)

// Params configures one thresholded energy BFS over a prebuilt cover. All
// participants must pass identical Tag, StartRound, Cover, and Threshold.
type Params struct {
	// Tag is the base tag; the run uses Tag (tokens) and
	// Tag+1+2*cluster+{0,1} for cluster sweeps.
	Tag        uint64
	StartRound int64
	Cover      *decomp.Cover
	// Threshold is the inclusive metric distance bound (Definition 2.3);
	// it must be <= Cover.MaxDist.
	Threshold int64
	// SourceOffset is this node's offset (>= 0) or NotSource.
	SourceOffset int64
	// Eligible restricts usable edges (nil = all). Must agree with the
	// participant set the cover was built on.
	Eligible func(i int) bool
	// WeightOf is the metric weight of incident edge i (>= 1), matching
	// the cover's metric. Nil means unit weights (hop BFS).
	WeightOf func(i int) int64
}

// StepInterval returns the BFS pace I: rounds per unit of metric distance,
// large enough that one full activation hand-off (two cluster cycles of the
// parent plus the child window alignment) completes while the BFS crosses
// half a parent radius.
func StepInterval(cv *decomp.Cover) int64 {
	var best int64 = 1
	for _, l := range cv.Layers {
		need := 6 * ((l.Period + l.Radius - 1) / l.Radius)
		if need > best {
			best = need
		}
	}
	return best + 1
}

// initLen returns the initialization phase length: one cycle window per
// layer, scheduled top-down.
func initLen(cv *decomp.Cover) int64 {
	var sum int64
	for _, l := range cv.Layers {
		sum += l.Period
	}
	return sum
}

// Duration returns the full number of rounds a run occupies; every
// participant returns at StartRound + Duration. (The +1 shift lets callers
// invoke Run while already at StartRound.)
func Duration(cv *decomp.Cover, threshold int64) int64 {
	return 1 + initLen(cv) + (threshold+2)*StepInterval(cv) + 2
}

// membership tracks runtime state of one cluster membership.
type membership struct {
	m *decomp.Membership
	// tree is this node's view of the cluster tree.
	tree proto.Tree
	// up and down are the node's convergecast and broadcast slots within a
	// cycle window, as offsets from the window start (see schedule).
	up, down proto.SweepSlot
	// period is the layer's cycle period P_j.
	period int64
	// duty[:nDuty] are the wake rounds within a cycle window, as ascending
	// offsets from the window start: each slot's listen round, if it has
	// one, then its act round.
	duty  [4]int64
	nDuty int
	// initWindow is the start of this layer's initialization window.
	initWindow int64
	// parent is this node's membership of the parent cluster (nil at the
	// top layer).
	parent *membership
	// containsSource is learned during initialization.
	containsSource bool
	active         bool
	deactivated    bool
	// firstWindow is the earliest BFS-phase window index this membership
	// serves (set at activation).
	firstWindow int64
	// rootAgg accumulates the root's convergecast result within a window.
	rootAgg agg
}

// agg is a cluster convergecast value: a set of the flags below, one byte
// so that boxing it as a message body does not allocate.
type agg uint8

const (
	aggAnyReached agg = 1 << iota
	aggChildActive
	aggAllReached
	aggAnySource

	// aggAny are the flags combined by OR, the rest by AND.
	aggAny = aggAnyReached | aggAnySource
)

// combineAgg is the cluster convergecast's proto.Combine.
func combineAgg(a, b any) any {
	x, y := a.(agg), b.(agg)
	return (x|y)&aggAny | (x&y)&^aggAny
}

// downMsg is a cluster broadcast value: a set of the flags below.
type downMsg uint8

const (
	downReached downMsg = 1 << iota
	downDeactivate
	downSource
)

// edgeState is one incident edge's metric weight, eligibility, and whether
// the token for the node's current distance has been relayed over it.
type edgeState struct {
	w    int64
	elig bool
	sent bool
}

// runner is the per-node state of the step machine.
type runner struct {
	mb *proto.Mailbox
	p  Params
	cv *decomp.Cover
	ms []membership
	// live lists the active, not yet deactivated memberships in ms order;
	// liveStale marks it for rebuilding after an activation change.
	live      []*membership
	liveStale bool

	bfsStart int64
	stepI    int64
	end      int64
	st       state

	isSource bool
	dist     int64
	edges    []edgeState
	// maxW is the heaviest eligible edge's metric weight.
	maxW int64
}

// Run executes the thresholded energy BFS; only participants (nodes the
// cover was built over) may call it. Returns the node's distance, or
// graph.Inf above the threshold. The node returns at StartRound+Duration.
func Run(mb *proto.Mailbox, p Params) int64 {
	if p.Threshold > p.Cover.MaxDist {
		panic(fmt.Sprintf("energybfs: threshold %d exceeds cover MaxDist %d", p.Threshold, p.Cover.MaxDist))
	}
	c := mb.C
	cv := p.Cover
	r := &runner{
		mb: mb, p: p, cv: cv,
		dist:     graph.Inf,
		bfsStart: p.StartRound + 1 + initLen(cv),
		stepI:    StepInterval(cv),
		isSource: p.SourceOffset >= 0 && p.SourceOffset <= p.Threshold,
	}
	r.end = p.StartRound + Duration(cv, p.Threshold)
	nodeMs := cv.Node[c.ID()]
	r.ms = make([]membership, len(nodeMs))
	r.live = make([]*membership, 0, len(nodeMs))
	for i := range nodeMs {
		m := &nodeMs[i]
		mm := &r.ms[i]
		l := cv.Layers[m.Layer]
		mm.schedule(mb, m, l.MaxDepth)
		mm.period = l.Period
		// Initialization windows run top-down from StartRound+1.
		mm.initWindow = p.StartRound + 1
		for j := len(cv.Layers) - 1; j > m.Layer; j-- {
			mm.initWindow += cv.Layers[j].Period
		}
		for k := range r.ms {
			if nodeMs[k].Cluster == m.ParentCluster {
				mm.parent = &r.ms[k]
			}
		}
	}
	r.edges = make([]edgeState, c.Degree())
	for i := range r.edges {
		e := &r.edges[i]
		e.elig = p.Eligible == nil || p.Eligible(i)
		e.w = 1
		if p.WeightOf != nil {
			e.w = p.WeightOf(i)
		}
		if e.w < 1 {
			panic(fmt.Sprintf("energybfs: node %d edge %d has metric weight %d", c.ID(), i, e.w))
		}
		if e.elig {
			r.maxW = max(r.maxW, e.w)
		}
	}

	c.Drive(r)
	if r.dist > p.Threshold {
		return graph.Inf
	}
	return r.dist
}

func (r *runner) tagUp(cl int32) uint64   { return r.p.Tag + 1 + 2*uint64(cl) }
func (r *runner) tagDown(cl int32) uint64 { return r.p.Tag + 2 + 2*uint64(cl) }

// state is a position of the runner's step machine. The initialization
// runs one convergecast+broadcast cycle per cluster, top layer first, so
// every member learns which clusters contain sources (Section 3.3); the
// BFS phase runs the cluster cycles plus BFS steps.
type state int8

const (
	stStart state = iota // the call to Run: book the first init duty
	stInit               // an init duty round
	stBFS                // a BFS-phase wake
	stEnd                // the closing wake at end
)

// Step is the runner's simnet.Stepper, one wake of the node: it files the
// wake's arrivals in the mailbox, runs the phase's loop body and returns
// the round of the next wake. The initialization hands over to the BFS
// phase in the round of its last duty, and the BFS phase over to the
// closing wake at end.
func (r *runner) Step(in []simnet.Inbound) (int64, bool) {
	r.mb.Pump(in)
	now := r.mb.Round()
	switch r.st {
	case stInit:
		for i := range r.ms {
			r.serveWindow(&r.ms[i], r.ms[i].initWindow, now, true)
		}
		fallthrough
	case stStart:
		next := r.end
		for i := range r.ms {
			mm := &r.ms[i]
			if d, ok := mm.dutyAfter(mm.initWindow, now); ok && d < next {
				next = d
			}
		}
		if next < r.bfsStart {
			r.st = stInit
			return next, false
		}
		r.preActivate()
		r.st = stBFS
		fallthrough
	case stBFS:
		if next := r.bfsWake(now); next < r.end {
			return next, false
		}
		// Every wake lies before end, so the closing wake is ahead.
		r.st = stEnd
		return r.end, false
	}
	return 0, true
}

// preActivate closes the initialization: top-layer clusters containing
// sources start active; below, any cluster whose parent contains a source.
func (r *runner) preActivate() {
	top := len(r.cv.Layers) - 1
	for i := range r.ms {
		mm := &r.ms[i]
		pre := false
		if mm.m.Layer == top {
			pre = mm.containsSource
		} else if mm.parent != nil {
			pre = mm.parent.containsSource
		}
		if pre {
			mm.active = true
			mm.firstWindow = 0
		}
	}
	if r.isSource {
		r.dist = r.p.SourceOffset
	}
	r.refreshLive()
}

// schedule sets mm's cluster membership m, on a layer of depth bound ld,
// and its place in the layer's cycle window: the convergecast slot
// UpSlot(0, ld), the broadcast slot DownSlot(ld+1), and the duty rounds
// they imply. A window of period 2ld+4 holds every duty round.
func (mm *membership) schedule(mb *proto.Mailbox, m *decomp.Membership, ld int64) {
	mm.m = m
	mm.tree = proto.Tree{Parent: m.Parent, Children: m.Children, Depth: m.Depth}
	mm.up = proto.UpSlot(mb, mm.tree, 0, ld)
	mm.down = proto.DownSlot(mm.tree, ld+1)
	mm.nDuty = 0
	for _, sl := range [...]proto.SweepSlot{mm.up, mm.down} {
		if sl.Listen {
			mm.duty[mm.nDuty] = sl.Act - 1
			mm.nDuty++
		}
		mm.duty[mm.nDuty] = sl.Act
		mm.nDuty++
	}
}

// dutyAfter returns the membership's first duty round after now within the
// window starting at w.
func (mm *membership) dutyAfter(w, now int64) (int64, bool) {
	for _, o := range mm.duty[:mm.nDuty] {
		if w+o > now {
			return w + o, true
		}
	}
	return 0, false
}

// nextDuty returns the membership's first BFS-phase duty round after now:
// windows are indexed from bfsStart, and the membership serves those from
// firstWindow on.
func (r *runner) nextDuty(mm *membership, now int64) int64 {
	k := mm.firstWindow
	if now >= r.bfsStart {
		k = max(k, (now-r.bfsStart)/mm.period)
	}
	w := r.bfsStart + k*mm.period
	if d, ok := mm.dutyAfter(w, now); ok {
		return d
	}
	return w + mm.period + mm.duty[0]
}

// serveWindow performs whatever duty round `now` is within the window
// starting at w: the act round of mm's up or down slot (proto.UpAct,
// DownAct). Listen rounds need no action: being awake is the point. init
// selects the initialization semantics (aggregate AnySource, apply nothing
// but containsSource).
func (r *runner) serveWindow(mm *membership, w int64, now int64, init bool) {
	cl := mm.m.Cluster
	switch now - w {
	case mm.up.Act:
		if a, isRoot := proto.UpAct(r.mb, mm.tree, r.tagUp(cl), mm.up, r.ownAgg(mm, init), combineAgg); isRoot {
			mm.rootAgg = a.(agg)
		}
	case mm.down.Act:
		var rootVal any
		if mm.tree.Parent < 0 {
			rootVal = r.decide(mm, init)
		}
		dm := proto.DownAct(r.mb, mm.tree, r.tagDown(cl), mm.down, rootVal, nil)
		r.apply(mm, dm.(downMsg), w, init)
	}
}

// ownAgg is this node's convergecast contribution to mm's cluster.
func (r *runner) ownAgg(mm *membership, init bool) agg {
	if init {
		a := aggChildActive | aggAllReached
		if r.isSource {
			a |= aggAnySource
		}
		return a
	}
	var a agg
	if r.dist != graph.Inf {
		a |= aggAnyReached | aggAllReached
	}
	if r.childClustersActive(mm) {
		a |= aggChildActive
	}
	return a
}

func (r *runner) decide(mm *membership, init bool) downMsg {
	a := mm.rootAgg
	if init {
		if a&aggAnySource != 0 {
			return downSource
		}
		return 0
	}
	var dm downMsg
	if a&aggAnyReached != 0 {
		dm |= downReached
	}
	deact := false
	if mm.m.Layer == 0 {
		deact = a&aggAllReached != 0
	} else {
		deact = a&aggAnyReached != 0 && a&aggChildActive != 0
	}
	if deact {
		dm |= downDeactivate
	}
	return dm
}

func (r *runner) apply(mm *membership, dm downMsg, w int64, init bool) {
	if init {
		mm.containsSource = dm&downSource != 0
		return
	}
	if dm&downReached != 0 {
		// Activate the child clusters this node belongs to.
		kEnd := w + mm.period // parent window end
		for i := range r.ms {
			other := &r.ms[i]
			if other.parent == mm && !other.active && !other.deactivated {
				other.active = true
				other.firstWindow = (kEnd - r.bfsStart + other.period - 1) / other.period
				r.liveStale = true
			}
		}
	}
	if dm&downDeactivate != 0 {
		mm.deactivated = true
		r.liveStale = true
	}
}

// refreshLive rebuilds the live list after activations or deactivations.
func (r *runner) refreshLive() {
	r.live = r.live[:0]
	for i := range r.ms {
		if mm := &r.ms[i]; mm.active && !mm.deactivated {
			r.live = append(r.live, mm)
		}
	}
	r.liveStale = false
}

// bfsWake is one wake of the main phase, cluster cycles plus BFS steps:
// it returns the round of the next wake, or end if the node has none left.
func (r *runner) bfsWake(now int64) int64 {
	// Process tokens (pumped at this wake).
	r.drainTokens()
	// Serve cluster windows scheduled for this round. A membership
	// activated here starts at a later window, so serving the list as it
	// stood at the wake is exact.
	if now >= r.bfsStart {
		for _, mm := range r.live {
			k := (now - r.bfsStart) / mm.period
			if k < mm.firstWindow {
				continue
			}
			r.serveWindow(mm, r.bfsStart+k*mm.period, now, false)
		}
	}
	if r.liveStale {
		r.refreshLive()
	}
	// Send relays due now (step rounds).
	if r.dist != graph.Inf && r.isStepRound(now) {
		step := (now - r.bfsStart) / r.stepI
		for i := range r.edges {
			e := &r.edges[i]
			if e.elig && !e.sent && r.dist+e.w == step && step <= r.p.Threshold {
				r.mb.Send(i, r.p.Tag, step)
				e.sent = true
			}
		}
	}
	// Next wake.
	next := r.end
	for _, mm := range r.live {
		next = min(next, r.nextDuty(mm, now))
	}
	// Step wakes run through the step after the last one that can carry a
	// token here, whose wake drains it. For a listening node that is
	// Threshold. A reached node that is not listening has its own relays
	// due by step dist+maxW, and a neighbour u's token carries
	// d_u + w(u,v) <= dist + 2·w(u,v), so nothing reaches it later.
	if listening := r.listening(); listening || r.dist != graph.Inf {
		lastToken := r.p.Threshold
		if !listening {
			lastToken = min(lastToken, r.dist+2*r.maxW)
		}
		if s := r.nextStepRound(now); s < next && s <= r.bfsStart+(lastToken+1)*r.stepI {
			next = s
		}
	}
	return next
}

func (r *runner) drainTokens() {
	for _, msg := range r.mb.Take(r.p.Tag) {
		d := msg.Body.(int64)
		if d < r.dist {
			r.dist = d
			for i := range r.edges {
				r.edges[i].sent = false
			}
		}
	}
}

func (r *runner) childClustersActive(mm *membership) bool {
	for i := range r.ms {
		if other := &r.ms[i]; other.parent == mm && !other.active && !other.deactivated {
			return false
		}
	}
	return true
}

// listening reports whether one of this node's layer-0 clusters is live.
func (r *runner) listening() bool {
	for _, mm := range r.live {
		if mm.m.Layer == 0 {
			return true
		}
	}
	return false
}

func (r *runner) isStepRound(now int64) bool {
	return now >= r.bfsStart && (now-r.bfsStart)%r.stepI == 0
}

func (r *runner) nextStepRound(now int64) int64 {
	if now < r.bfsStart {
		return r.bfsStart
	}
	return now + r.stepI - (now-r.bfsStart)%r.stepI
}

// RunBFS is the standalone whole-graph wrapper (Theorem 3.13/3.14 shape):
// it builds the layered cover for the hop metric and computes thresholded
// hop distances from the sources in the Sleeping model. Threshold 0 reaches
// the sources only; the cover is built for distance 1, its least.
func RunBFS(g *graph.Graph, sources map[graph.NodeID]int64, threshold int64) ([]int64, simnet.Metrics, error) {
	cv, err := decomp.Build(g, nil, nil, max(threshold, 1))
	if err != nil {
		return nil, simnet.Metrics{}, err
	}
	eng := simnet.New(g, simnet.Config{Model: simnet.Sleeping})
	res, err := eng.Run(func(c *simnet.Ctx) {
		mb := proto.NewMailbox(c)
		off := NotSource
		if o, ok := sources[c.ID()]; ok {
			off = o
		}
		d := Run(mb, Params{
			Tag: 1, StartRound: 0, Cover: cv, Threshold: threshold, SourceOffset: off,
		})
		c.SetOutput(d)
	})
	if err != nil {
		return nil, simnet.Metrics{}, err
	}
	out := make([]int64, g.N())
	for i, v := range res.Outputs {
		out[i] = v.(int64)
	}
	return out, res.Metrics, nil
}
