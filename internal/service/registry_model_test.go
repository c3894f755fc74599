package service

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dsssp/internal/graph"
	"dsssp/internal/incr"
)

// ledgerRegistry is a frozen copy of the registry's trace bookkeeping as it
// stood before the change log: the head revision holds a map of exact
// traces and a map of stale traces, and every stale trace carries its own
// base-weight ledger that every PATCH extends (first touch wins). It is the
// model TestRegistryMatchesLedgerModel checks the change-log registry
// against; keep it as it is.
type ledgerRegistry struct {
	head *ledgerRevision
}

type ledgerRevision struct {
	num    int
	digest [32]byte
	g      *graph.Graph
	traces map[graph.NodeID]*ledgerExact
	stale  map[graph.NodeID]*ledgerStale
}

type ledgerExact struct {
	dist   []int64
	parent []graph.NodeID
}

type ledgerStale struct {
	dist   []int64
	parent []graph.NodeID
	base   map[uint64]int64
}

func newLedgerRegistry(g *graph.Graph) *ledgerRegistry {
	return &ledgerRegistry{head: &ledgerRevision{
		num: 1, digest: canonicalGraphDigest(g), g: g,
		traces: make(map[graph.NodeID]*ledgerExact),
		stale:  make(map[graph.NodeID]*ledgerStale),
	}}
}

func ledgerRecordBase(base map[uint64]int64, changes []graph.WeightChange) {
	for _, c := range changes {
		k := graph.PairKey(c.U, c.V)
		if _, ok := base[k]; !ok {
			base[k] = c.OldW
		}
	}
}

// ledgerNetChanges diffs a stale trace's base ledger against the head g:
// every ledger pair whose weight moved, in pair order; nil for an empty
// ledger.
func ledgerNetChanges(base map[uint64]int64, g *graph.Graph) []graph.WeightChange {
	if len(base) == 0 {
		return nil
	}
	out := make([]graph.WeightChange, 0, len(base))
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		for v := u + 1; int(v) < g.N(); v++ {
			oldw, ok := base[graph.PairKey(u, v)]
			if !ok {
				continue
			}
			neww := int64(-1)
			if w, ok := g.Weight(u, v); ok {
				neww = w
			}
			if oldw != neww {
				out = append(out, graph.WeightChange{U: u, V: v, OldW: oldw, NewW: neww})
			}
		}
	}
	return out
}

func (m *ledgerRegistry) patch(id string, deltas []graph.EdgeDelta) (PatchInfo, error) {
	old := m.head
	changes, err := graph.ResolveDeltas(old.g, deltas)
	if err != nil {
		return PatchInfo{}, badRequest{err}
	}
	ng := graph.ApplyChanges(old.g, changes)
	next := &ledgerRevision{
		num: old.num + 1, digest: canonicalGraphDigest(ng), g: ng,
		traces: make(map[graph.NodeID]*ledgerExact),
		stale:  make(map[graph.NodeID]*ledgerStale),
	}
	info := PatchInfo{
		ID: id, Revision: next.num, ParentRevision: old.num,
		Digest: hex.EncodeToString(next.digest[:]),
		N:      ng.N(), M: ng.M(),
		DeltasApplied: len(deltas), Effects: len(changes),
	}
	for src, tr := range old.traces {
		if incr.SourceDirty(changes, tr.dist) {
			info.SourcesDropped++
			if tr.parent != nil {
				st := &ledgerStale{dist: tr.dist, parent: tr.parent, base: make(map[uint64]int64)}
				ledgerRecordBase(st.base, changes)
				next.stale[src] = st
				info.SourcesRepairable++
			}
			continue
		}
		info.SourcesKept++
		next.traces[src] = tr
	}
	for src, st := range old.stale {
		ledgerRecordBase(st.base, changes)
		next.stale[src] = st
		info.SourcesRepairable++
	}
	if classified := info.SourcesKept + info.SourcesDropped; classified > 0 {
		info.DirtyFraction = float64(info.SourcesDropped) / float64(classified)
	}
	m.head = next
	return info, nil
}

func (m *ledgerRegistry) record(digest [32]byte, src graph.NodeID, dist []int64, parent []graph.NodeID) {
	if m.head.digest != digest {
		return
	}
	if _, ok := m.head.traces[src]; !ok {
		m.head.traces[src] = &ledgerExact{dist: dist, parent: parent}
		delete(m.head.stale, src)
	}
}

func (m *ledgerRegistry) sourceTrace(digest [32]byte, src graph.NodeID) (incr.Trace, []graph.WeightChange, bool, bool) {
	if m.head.digest != digest {
		return incr.Trace{}, nil, false, false
	}
	if t, ok := m.head.traces[src]; ok {
		return incr.Trace{Dist: t.dist, Parent: t.parent}, nil, true, true
	}
	if st, ok := m.head.stale[src]; ok {
		return incr.Trace{Dist: st.dist, Parent: st.parent}, ledgerNetChanges(st.base, m.head.g), false, true
	}
	return incr.Trace{}, nil, false, false
}

// TestRegistryMatchesLedgerModel runs seeded random Register / Record /
// Patch / sourceTrace sequences on the change-log registry and on the
// frozen per-trace-ledger model, and requires the same PatchInfo (or the
// same error), the same exact flag, dist, parent and net changes for every
// source after every step, and the same traced and stale counts. Batches
// mix ±1 reweights, deletes and inserts, stack several changes on one pair
// within a batch, undo the previous batch, and name missing edges; traces
// are recorded from scratch and from repairs at every point of the
// history, and some records race a PATCH.
//
// The model has no log, so no log cap: the test applies the cap to it
// from its own bookkeeping — each trace's revision and each PATCH's batch
// bytes — forgetting the stale traces at the oldest revision while the
// batches after it outweigh the head snapshot, exactly as the registry
// must. The registry's own counters are rechecked after every step.
//
// Nor does the model keep bodies. After every step the test offers one,
// drawn from a second generator so the histories stay as they were: the
// body of a random source's exact trace, offered for the trace's own row,
// for a copy of it, or for a wrong m. It books the bodies the registry
// must keep, drops them where a PATCH dirties their trace or inserts or
// deletes an edge, and requires the registry to keep exactly those, each
// equal to a fresh render at the head and counted in its charge.
//
// The registry spills to a directory throughout. Each history runs twice.
// The first time, a fresh registry boots from the directory after the
// last step without a Flush, as after a crash: its journal replay must
// reproduce the live head and serve the live rows (see checkReplayed).
// The second time, the registry is flushed after every step and a fresh
// registry booted from the rewrite must be the live one exactly (see
// checkBooted).
func TestRegistryMatchesLedgerModel(t *testing.T) {
	journaled, logged := 0, 0
	for seed := int64(1); seed <= 120; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			if checkLedgerModel(t, seed, false) {
				journaled++
			}
			if checkLedgerModel(t, seed, true) {
				logged++
			}
		})
	}
	// Most histories must end with PATCHes in a journal, and most flushed
	// ones with a change log in it, or the boot checks above would only
	// ever read bases.
	if journaled < 60 || logged < 60 {
		t.Fatalf("only %d of 120 histories end with a journal, and %d flushed ones with a change log", journaled, logged)
	}
}

// checkLedgerModel runs one seeded history and reports whether its spill
// ended with a journal. With flush, it flushes the registry after every
// step and boots a fresh one from the rewrite.
func checkLedgerModel(t *testing.T, seed int64, flush bool) bool {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(8)
	g0 := graph.Make(graph.FamilyRandom, n, graph.UniformWeights(8, rng.Int63()), rng.Int63())
	r := NewGraphRegistry(1<<40, nil, nil)
	dir := t.TempDir()
	if _, err := r.EnablePersistence(dir); err != nil {
		t.Fatal(err)
	}
	info, _ := r.Register(g0)
	model := newLedgerRegistry(g0)
	orng := rand.New(rand.NewSource(^seed)) // draws the body offers
	bodies := make(map[graph.NodeID][]byte) // the bodies the registry must keep

	var undo []graph.EdgeDelta        // the inverse of the last applied batch
	rev := make(map[graph.NodeID]int) // the revision each model trace is exact at
	batchBytes := map[int]int64{}     // revision → the bytes its batch is charged
	// capModel forgets the model's stale traces the registry's log cap
	// forgets, and returns how many.
	capModel := func() (forgot int) {
		h := model.head
		for {
			oldest := h.num
			for src := range h.stale {
				oldest = min(oldest, rev[src])
			}
			var need int64
			for k := oldest + 1; k <= h.num; k++ {
				need += batchBytes[k]
			}
			if need <= graphBytes(h.g) {
				return forgot
			}
			for src := range h.stale {
				if rev[src] == oldest {
					delete(h.stale, src)
					forgot++
				}
			}
		}
	}

	randomBatch := func(g *graph.Graph) []graph.EdgeDelta {
		edges := g.Edges()
		var out []graph.EdgeDelta
		for k := 1 + rng.Intn(3); k > 0; k-- {
			switch op := rng.Intn(10); {
			case op < 4 && len(edges) > 0: // ±1 reweight
				e := edges[rng.Intn(len(edges))]
				w := e.W + 1
				if rng.Intn(2) == 0 && e.W > 1 {
					w = e.W - 1
				}
				out = append(out, graph.EdgeDelta{Op: graph.DeltaReweight, U: e.U, V: e.V, W: w})
			case op < 6 && len(edges) > 0: // the same pair twice in one batch
				e := edges[rng.Intn(len(edges))]
				out = append(out,
					graph.EdgeDelta{Op: graph.DeltaReweight, U: e.V, V: e.U, W: e.W + 2},
					graph.EdgeDelta{Op: graph.DeltaReweight, U: e.U, V: e.V, W: e.W + rng.Int63n(3)})
			case op < 7 && len(edges) > 1:
				e := edges[rng.Intn(len(edges))]
				out = append(out, graph.EdgeDelta{Op: graph.DeltaDelete, U: e.U, V: e.V})
			case op < 9:
				u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
				if u != v {
					out = append(out, graph.EdgeDelta{Op: graph.DeltaInsert, U: u, V: v, W: 1 + rng.Int63n(8)})
				}
			default: // may name a missing edge: both registries must refuse it
				u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
				out = append(out, graph.EdgeDelta{Op: graph.DeltaDelete, U: u, V: v})
			}
		}
		return out
	}
	inverse := func(g *graph.Graph, batch []graph.EdgeDelta) []graph.EdgeDelta {
		changes, err := graph.ResolveDeltas(g, batch)
		if err != nil {
			return nil
		}
		var out []graph.EdgeDelta
		for i := len(changes) - 1; i >= 0; i-- {
			c := changes[i]
			switch {
			case c.OldW < 0:
				out = append(out, graph.EdgeDelta{Op: graph.DeltaDelete, U: c.U, V: c.V})
			case c.NewW < 0:
				out = append(out, graph.EdgeDelta{Op: graph.DeltaInsert, U: c.U, V: c.V, W: c.OldW})
			default:
				out = append(out, graph.EdgeDelta{Op: graph.DeltaReweight, U: c.U, V: c.V, W: c.OldW})
			}
		}
		return out
	}

	for step := 0; step < 40; step++ {
		g, digest, _, err := r.Resolve(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		for src := range model.head.traces {
			rev[src] = model.head.num
		}
		switch op := rng.Intn(10); {
		case op < 3: // a from-scratch record
			src := graph.NodeID(rng.Intn(n))
			d := graph.Dijkstra(g, src)
			p := graph.WitnessParents(g, src, d)
			r.Record(info.ID, digest, src, d, p, "")
			model.record(digest, src, d, p)
		case op < 5: // a repaired record, as the row provider makes them
			src := graph.NodeID(rng.Intn(n))
			tr, changes, _, exact, ok := r.sourceTrace(info.ID, digest, src)
			if !ok || exact {
				continue
			}
			rr, ok := incr.Repair(g, src, tr, changes, 0)
			if !ok {
				t.Fatalf("step %d: repair of source %d declined", step, src)
			}
			r.Record(info.ID, digest, src, rr.Dist, rr.Parent, "")
			model.record(digest, src, rr.Dist, rr.Parent)
		default:
			batch := randomBatch(g)
			if rng.Intn(4) == 0 && undo != nil {
				batch = undo
			}
			if len(batch) == 0 {
				continue
			}
			inv := inverse(g, batch)
			changes, _ := graph.ResolveDeltas(g, batch)
			got, gerr := r.Patch(info.ID, batch)
			want, werr := model.patch(info.ID, batch)
			if werr == nil {
				batchBytes[model.head.num] = logBatchBytes(logBatch{changes: changes})
				want.SourcesRepairable -= capModel()
			}
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || got != want {
				t.Fatalf("step %d: patch %v\n got %+v, %v\nwant %+v, %v", step, batch, got, gerr, want, werr)
			}
			if gerr == nil {
				undo = inv
				resized := slices.ContainsFunc(changes, func(c graph.WeightChange) bool { return c.OldW < 0 || c.NewW < 0 })
				for src := range bodies {
					if _, ok := model.head.traces[src]; !ok || resized {
						delete(bodies, src)
					}
				}
				// A record that raced this PATCH names the old digest: both drop it.
				src := graph.NodeID(rng.Intn(n))
				d := graph.Dijkstra(g, src)
				r.Record(info.ID, digest, src, d, graph.WitnessParents(g, src, d), "")
				model.record(digest, src, d, graph.WitnessParents(g, src, d))
			}
		}

		g, digest, _, _ = r.Resolve(info.ID)
		fresh := func(dist []int64) []byte {
			return mustRender(t, renderSSSP, ssspResponse(g, row{dist: dist, served: rowRepaired}, nil))
		}
		osrc := graph.NodeID(orng.Intn(n))
		otr, _, obody, exact, ok := r.sourceTrace(info.ID, digest, osrc)
		switch offer := orng.Intn(3); {
		case !ok || !exact:
		case offer == 0:
			r.keepBody(info.ID, osrc, otr.Dist, g.M(), fresh(otr.Dist))
			if obody == nil {
				bodies[osrc] = fresh(otr.Dist)
			}
		case offer == 1:
			r.keepBody(info.ID, osrc, slices.Clone(otr.Dist), g.M(), fresh(otr.Dist))
		default:
			r.keepBody(info.ID, osrc, otr.Dist, g.M()+1, fresh(otr.Dist))
		}
		traced, stale := 0, 0
		for v := 0; v < n; v++ {
			src := graph.NodeID(v)
			gt, gc, gb, gx, gok := r.sourceTrace(info.ID, digest, src)
			mt, mc, mx, mok := model.sourceTrace(digest, src)
			if gok != mok || gx != mx || !reflect.DeepEqual(gt, mt) || !reflect.DeepEqual(gc, mc) {
				t.Fatalf("step %d, source %d:\n got ok=%v exact=%v %+v %+v\nwant ok=%v exact=%v %+v %+v", step, src, gok, gx, gt, gc, mok, mx, mt, mc)
			}
			if !bytes.Equal(gb, bodies[src]) || gb != nil && !bytes.Equal(gb, fresh(gt.Dist)) {
				t.Fatalf("step %d, source %d: kept body %s\nwant %s, a fresh render of the head", step, src, gb, bodies[src])
			}
			if gok && gx {
				traced++
			} else if gok {
				stale++
			}
		}
		checkLogInvariants(t, r.graphs[info.ID])
		checkDigest(t, fmt.Sprint("step ", step), r.graphs[info.ID])
		gi, _ := r.Get(info.ID)
		if gi.TracedSources != len(model.head.traces) || gi.StaleSources != len(model.head.stale) ||
			gi.TracedSources != traced || gi.StaleSources != stale {
			t.Fatalf("step %d: info %+v, model %d traced %d stale", step, gi, len(model.head.traces), len(model.head.stale))
		}
		if flush {
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
			checkBooted(t, r, info.ID, dir)
		}
	}
	if !flush {
		checkReplayed(t, r, info.ID, dir)
	}
	return r.graphs[info.ID].journal > 0
}

// checkBooted boots a fresh registry from dir, just after a Flush, and
// requires the live graph exactly, less its kept bodies, which are never
// spilled: the head's edges and digest, every trace's revision, dist and
// parent, the log with its batch times, logBytes, the charge, patchedAt
// and the journal's byte count.
func checkBooted(t *testing.T, live *GraphRegistry, id, dir string) {
	t.Helper()
	booted := NewGraphRegistry(1<<40, nil, nil)
	if _, err := booted.EnablePersistence(dir); err != nil {
		t.Fatal(err)
	}
	got, want := booted.graphs[id], live.graphs[id]
	checkDigest(t, "booted", got)
	bare := make(map[graph.NodeID]*sourceTrace, len(want.traces))
	for src, tr := range want.traces {
		bare[src] = &sourceTrace{rev: tr.rev, dist: tr.dist, parent: tr.parent}
	}
	switch {
	case got.num != want.num || got.digest != want.digest || !reflect.DeepEqual(got.g.Edges(), want.g.Edges()):
		t.Fatalf("booted head: revision %d (live %d), digest equal %v, or its edges differ", got.num, want.num, got.digest == want.digest)
	case !reflect.DeepEqual(got.traces, bare):
		t.Fatal("booted traces differ from the live ones")
	case !sameLog(got.log, want.log):
		t.Fatalf("booted log %+v, live %+v", got.log, want.log)
	case got.logBytes != want.logBytes || got.bodyBytes != 0 || got.charge() != want.charge()-want.bodyBytes || !got.patchedAt.Equal(want.patchedAt) || got.journal != want.journal:
		t.Fatalf("booted: log %d bytes, bodies %d, charge %d, patched %v, journal %d; live %d, %d, %d, %v, %d",
			got.logBytes, got.bodyBytes, got.charge(), got.patchedAt, got.journal, want.logBytes, want.bodyBytes, want.charge(), want.patchedAt, want.journal)
	}
}

// checkDigest requires rg's digest and leaves to be those of its head
// snapshot hashed whole.
func checkDigest(t *testing.T, step string, rg *regGraph) {
	t.Helper()
	if !slices.Equal(rg.leaves, digestLeaves(rg.g)) || rg.digest != canonicalGraphDigest(rg.g) {
		t.Fatalf("%s: the registry's digest or leaves differ from its head's", step)
	}
}

// sameLog reports whether two change logs hold the same batches, made at
// the same times; a change's pair may be named either way round.
func sameLog(a, b []logBatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].rev != b[i].rev || !a[i].at.Equal(b[i].at) || len(a[i].changes) != len(b[i].changes) {
			return false
		}
		for j, c := range a[i].changes {
			d := b[i].changes[j]
			if graph.PairKey(c.U, c.V) != graph.PairKey(d.U, d.V) || c.OldW != d.OldW || c.NewW != d.NewW {
				return false
			}
		}
	}
	return true
}

// checkReplayed boots a fresh registry from dir without a Flush, as after
// a crash, and requires the live head's revision, digest and edges, and
// for every source the booted registry holds a trace of, the row the live
// registry serves — exact, or stale and repaired through incr.Repair —
// byte for byte. The booted registry may hold fewer traces, never more: a
// row recorded since the last rewrite is not on disk, and a repaired row
// stays stale on disk, so the replayed log is longer and its cap may
// forget a trace the live one keeps.
func checkReplayed(t *testing.T, live *GraphRegistry, id, dir string) {
	t.Helper()
	booted := NewGraphRegistry(1<<40, nil, nil)
	if _, err := booted.EnablePersistence(dir); err != nil {
		t.Fatal(err)
	}
	g, digest, rev, _ := live.Resolve(id)
	bg, bdigest, brev, err := booted.Resolve(id)
	if err != nil || brev != rev || bdigest != digest || !reflect.DeepEqual(bg.Edges(), g.Edges()) {
		t.Fatalf("replayed head: revision %d (live %d), digest equal %v, err %v", brev, rev, bdigest == digest, err)
	}
	checkLogInvariants(t, booted.graphs[id])
	checkDigest(t, "replayed", booted.graphs[id])
	row := func(r *GraphRegistry, g *graph.Graph, src graph.NodeID) (*incr.RepairResult, bool) {
		tr, changes, _, exact, ok := r.sourceTrace(id, digest, src)
		switch {
		case !ok:
			return nil, false
		case exact:
			return &incr.RepairResult{Dist: tr.Dist, Parent: tr.Parent}, true
		}
		rr, ok := incr.Repair(g, src, tr, changes, 0)
		if !ok {
			t.Fatalf("repair of source %d declined", src)
		}
		return rr, true
	}
	for v := 0; v < g.N(); v++ {
		src := graph.NodeID(v)
		brow, bok := row(booted, bg, src)
		lrow, lok := row(live, g, src)
		switch {
		case bok && !lok:
			t.Fatalf("source %d: the replayed registry holds a trace the live one does not", src)
		case bok && (!reflect.DeepEqual(brow.Dist, lrow.Dist) || !reflect.DeepEqual(brow.Parent, lrow.Parent)):
			t.Fatalf("source %d: replayed row %v %v, live %v %v", src, brow.Dist, brow.Parent, lrow.Dist, lrow.Parent)
		}
	}
}
