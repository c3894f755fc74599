package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dsssp"
	"dsssp/bench/internal/inputs"
	"dsssp/bench/internal/stats"
	"dsssp/internal/bfs"
	"dsssp/internal/decomp"
	"dsssp/internal/energybfs"
	"dsssp/internal/forest"
	"dsssp/internal/graph"
	"dsssp/internal/harness"
	"dsssp/internal/incr"
	"dsssp/internal/obs/trace"
	"dsssp/internal/proto"
	"dsssp/internal/service"
	"dsssp/internal/simnet"
)

// layerSizes are the probe inputs: the workloads' sizes plus the probes'
// own.
type layerSizes struct {
	inputs.Sizes
	floodRounds int // rounds of the dense flood program
	reps        int // repetitions of a millisecond-scale probe
}

// layerProbe times each layer of the stack in isolation, through the
// layer's own Go API, under one root span of a benchmark-side trace (the
// internal/obs/trace library). Its times are wall times, not scaled to the
// reference host: per-layer metrics have no bound.
type layerProbe struct {
	root    *trace.Span
	seed    int64
	sz      layerSizes
	work    string
	metrics map[string]float64
}

// runLayers runs every layer probe, adds their metrics to res and writes
// the probe spans, kept in memory until then, as JSONL to spansPath.
func runLayers(cfg config, res *result, spansPath string) error {
	tr := trace.New(trace.Config{SampleRate: 1, Recent: 1, MaxSpans: 4096})
	root, _ := tr.StartRequest("bench.layers", trace.SpanContext{})
	p := &layerProbe{root: root, seed: cfg.seed, sz: layerSizes{inputs.For(false), 200, 5},
		work: filepath.Join(cfg.work, "layers"), metrics: res.metrics}
	if cfg.smoke {
		p.sz = layerSizes{inputs.For(true), 20, 2}
	}
	for _, f := range []func() error{p.simnet, p.core, p.subroutines, p.graphLayer, p.incr, p.service} {
		if err := f(); err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
	}
	root.End()
	res.tally.ok()
	return writeSpans(tr, spansPath)
}

func writeSpans(tr *trace.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Recorder().WriteJSONL(f, trace.Filter{Limit: 1}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cost is one probe's measurement: median wall time per call and mean
// heap allocations and bytes per call.
type cost struct {
	wall   time.Duration
	allocs float64
	bytes  float64
}

// measure runs f reps times inside a span named name.
func (p *layerProbe) measure(name string, reps int, f func() error) (cost, error) {
	sp := p.root.StartChild(name)
	defer sp.End()
	sp.SetAttr("reps", reps)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		if err := f(); err != nil {
			sp.SetError(err.Error())
			return cost{}, fmt.Errorf("%s: %w", name, err)
		}
		ds[i] = float64(time.Since(t0))
	}
	runtime.ReadMemStats(&m1)
	return cost{
		wall:   time.Duration(stats.Median(ds)),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(reps),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(reps),
	}, nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// simnet: the engine alone. A dense flood (every node awake every round,
// one message per edge direction per round) prices a resume and a
// message; a sleep-only program prices the awake-sparse path through
// SleepUntil and the far-future wake heap.
func (p *layerProbe) simnet() error {
	g := inputs.SimGraph(p.sz.CongestN, int64(p.sz.CongestN))
	rounds := p.sz.floodRounds
	var met simnet.Metrics
	c, err := p.measure("simnet.flood", p.sz.reps, func() error {
		res, err := simnet.New(g, simnet.Config{Model: simnet.Congest}).Run(func(c *simnet.Ctx) {
			for r := 0; r < rounds; r++ {
				for i := 0; i < c.Degree(); i++ {
					// A payload above 255 boxes like a real message body.
					c.Send(i, int64(c.ID())<<20|c.Round())
				}
				c.Next()
			}
		})
		if err == nil {
			met = res.Metrics
		}
		return err
	})
	if err != nil {
		return err
	}
	p.metrics["simnet.flood_ns_per_resume"] = float64(c.wall) / float64(met.TotalAwake)
	p.metrics["simnet.flood_allocs_per_resume"] = c.allocs / float64(met.TotalAwake)
	p.metrics["simnet.flood_ns_per_message"] = float64(c.wall) / float64(met.Messages)

	gs := inputs.SimGraph(p.sz.SleepingN, p.sz.SleepingMaxW)
	c, err = p.measure("simnet.sleep", p.sz.reps, func() error {
		res, err := simnet.New(gs, simnet.Config{Model: simnet.Sleeping}).Run(func(c *simnet.Ctx) {
			v := int64(c.ID())
			for step := int64(0); step < 50*int64(rounds); step++ {
				gap := 1 + (v*7+step*13)%29
				if step%16 == 0 {
					gap += 3000 // beyond the calendar window: the far heap
				}
				c.SleepUntil(c.Round() + gap)
			}
		})
		if err == nil {
			met = res.Metrics
		}
		return err
	})
	if err != nil {
		return err
	}
	p.metrics["simnet.sleep_ns_per_resume"] = float64(c.wall) / float64(met.TotalAwake)
	return nil
}

// core: one SSSP per model on the sim workloads' graphs from the seed's
// first source — exact counts, per-resume cost and allocation without the
// span ledger, and phase shares from a second run with it.
func (p *layerProbe) core() error {
	for _, m := range []struct {
		name   string
		model  dsssp.Model
		g      *graph.Graph
		phases []string
	}{
		{"congest", dsssp.ModelCongest, inputs.SimGraph(p.sz.CongestN, int64(p.sz.CongestN)), []string{"decompose", "cutter"}},
		{"sleeping", dsssp.ModelSleeping, inputs.SimGraph(p.sz.SleepingN, p.sz.SleepingMaxW), []string{"decompose", "bfs-layers"}},
	} {
		src := inputs.SimSources(m.g.N(), p.seed)[0]
		var met simnet.Metrics
		c, err := p.measure("core."+m.name, 1, func() error {
			res, err := dsssp.SSSP(m.g, src, &dsssp.Options{Model: m.model, IntraWorkers: 1})
			if err == nil {
				met = res.Metrics
			}
			return err
		})
		if err != nil {
			return err
		}
		pre := "core." + m.name + "."
		p.metrics[pre+"rounds"] = float64(met.Rounds)
		p.metrics[pre+"messages"] = float64(met.Messages)
		p.metrics[pre+"awake_resumes"] = float64(met.TotalAwake)
		p.metrics[pre+"ns_per_resume"] = float64(c.wall) / float64(met.TotalAwake)
		p.metrics[pre+"allocs_per_resume"] = c.allocs / float64(met.TotalAwake)
		p.metrics[pre+"kb_per_run"] = c.bytes / 1024

		if _, err := p.measure("core."+m.name+".phases", 1, func() error {
			res, err := dsssp.SSSP(m.g, src, &dsssp.Options{Model: m.model, IntraWorkers: 1, RecordPhases: true})
			if err == nil {
				met = res.Metrics
			}
			return err
		}); err != nil {
			return err
		}
		for _, ph := range m.phases {
			p.metrics[pre+"phase."+ph+".round_share"] = 0
			p.metrics[pre+"phase."+ph+".message_share"] = 0
		}
		for _, st := range harness.PhasesFromSpans(met.Spans) {
			if _, ok := p.metrics[pre+"phase."+st.Phase+".round_share"]; ok {
				p.metrics[pre+"phase."+st.Phase+".round_share"] = float64(st.Rounds) / float64(met.Rounds)
				p.metrics[pre+"phase."+st.Phase+".message_share"] = float64(st.Messages) / float64(met.Messages)
			}
		}
	}
	return nil
}

// subroutines: the building blocks the core recursion calls, each run
// alone on a sim workload's graph.
func (p *layerProbe) subroutines() error {
	g := inputs.SimGraph(p.sz.CongestN, int64(p.sz.CongestN))
	c, err := p.measure("forest.build", p.sz.reps, func() error {
		_, err := simnet.New(g, simnet.Config{Model: simnet.Congest}).Run(func(c *simnet.Ctx) {
			c.SetOutput(forest.Build(proto.NewMailbox(c), forest.Params{Tag: 1, SizeBound: int64(c.N())}))
		})
		return err
	})
	if err != nil {
		return err
	}
	p.metrics["forest.build_ms"] = msOf(c.wall)
	p.metrics["forest.build_allocs"] = c.allocs

	w := graph.WeightedDiameterUpper(g) / 2
	if c, err = p.measure("bfs.cutter", p.sz.reps, func() error {
		_, _, err := bfs.RunCutter(g, map[graph.NodeID]int64{0: 0}, w, 1, 2)
		return err
	}); err != nil {
		return err
	}
	p.metrics["bfs.cutter_ms"] = msOf(c.wall)

	gs := inputs.SimGraph(p.sz.SleepingN, p.sz.SleepingMaxW)
	if c, err = p.measure("decomp.build", 4*p.sz.reps, func() error {
		_, err := decomp.Build(gs, nil, nil, int64(gs.N()))
		return err
	}); err != nil {
		return err
	}
	p.metrics["decomp.build_ms"] = msOf(c.wall)

	if c, err = p.measure("energybfs.bfs", p.sz.reps, func() error {
		_, _, err := energybfs.RunBFS(gs, map[graph.NodeID]int64{0: 0}, int64(gs.N()))
		return err
	}); err != nil {
		return err
	}
	p.metrics["energybfs.bfs_ms"] = msOf(c.wall)
	return nil
}

// graphLayer: what serve-hot pays per generator-spec request (building
// the spec's graph) and what a PATCH pays to build the next revision.
func (p *layerProbe) graphLayer() error {
	seed := p.seed
	c, err := p.measure("graph.make", 100*p.sz.reps, func() error {
		graph.Make(graph.FamilyRandom, p.sz.HotN, graph.UnitWeights, seed)
		seed++
		return nil
	})
	if err != nil {
		return err
	}
	p.metrics["graph.make_ms"] = msOf(c.wall)

	g, _ := inputs.Dynamic(p.seed, p.sz.DynN, p.sz.DynSources)
	edges := g.Edges()
	rng := rand.New(rand.NewSource(p.seed))
	if c, err = p.measure("graph.apply_deltas", 4*p.sz.reps, func() error {
		e := edges[rng.Intn(len(edges))]
		_, err := graph.ApplyDeltas(g, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: e.U, V: e.V, W: e.W + 1}})
		return err
	}); err != nil {
		return err
	}
	p.metrics["graph.apply_deltas_ms"] = msOf(c.wall)
	return nil
}

// incr: the repair kernel behind every serve-dynamic query — the
// zero-change path an untouched source takes, and a real repair after one
// of the source's witness-tree edges got heavier — plus the PATCH-time
// classification of every traced source.
func (p *layerProbe) incr() error {
	g, srcs := inputs.Dynamic(p.seed, p.sz.DynN, p.sz.DynSources)
	traces := make([]incr.Trace, len(srcs))
	rows := make(map[graph.NodeID][]int64, len(srcs))
	for i, s := range srcs {
		d := graph.Dijkstra(g, s)
		traces[i] = incr.Trace{Dist: d, Parent: graph.WitnessParents(g, s, d)}
		rows[s] = d
	}
	i := 0
	c, err := p.measure("incr.repair_zero", 100*p.sz.reps, func() error {
		k := i % len(srcs)
		i++
		if _, ok := incr.Repair(g, srcs[k], traces[k], nil, 0); !ok {
			return fmt.Errorf("zero-change repair declined")
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.metrics["incr.repair_zero_us"] = usOf(c.wall)

	// Each case bumps one witness-tree edge of one source by +1; building
	// the patched graph is set-up, the repair is measured.
	rng := rand.New(rand.NewSource(p.seed))
	type repairCase struct {
		g      *graph.Graph
		k      int
		change incr.NetChange
	}
	cases := make([]repairCase, 8*p.sz.reps)
	for j := range cases {
		k := rng.Intn(len(srcs))
		v := graph.NodeID(rng.Intn(g.N()))
		for traces[k].Parent[v] < 0 {
			v = graph.NodeID(rng.Intn(g.N()))
		}
		u := traces[k].Parent[v]
		w := traces[k].Dist[v] - traces[k].Dist[u]
		ng, err := graph.ApplyDeltas(g, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: u, V: v, W: w + 1}})
		if err != nil {
			return err
		}
		cases[j] = repairCase{ng, k, incr.NetChange{U: u, V: v, OldW: w, NewW: w + 1}}
	}
	var affected float64
	i = 0
	if c, err = p.measure("incr.repair_delta", len(cases), func() error {
		rc := cases[i]
		i++
		rr, ok := incr.Repair(rc.g, srcs[rc.k], traces[rc.k], []incr.NetChange{rc.change}, 0)
		if !ok {
			return fmt.Errorf("repair declined")
		}
		affected += float64(rr.Affected) / float64(rc.g.N())
		return nil
	}); err != nil {
		return err
	}
	p.metrics["incr.repair_delta_us"] = usOf(c.wall)
	p.metrics["incr.repair_delta_kb"] = c.bytes / 1024
	p.metrics["incr.affected_fraction_mean"] = affected / float64(len(cases))

	edges := g.Edges()
	if c, err = p.measure("incr.classify", 20*p.sz.reps, func() error {
		e := edges[rng.Intn(len(edges))]
		eff, err := incr.Effects(g, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: e.U, V: e.V, W: e.W + 1}})
		if err == nil {
			incr.DirtySources(eff, rows)
		}
		return err
	}); err != nil {
		return err
	}
	p.metrics["incr.classify_us"] = usOf(c.wall)
	return nil
}

// service: the serving layer in-process, without a network — a cache hit
// through the whole handler, the cache alone, a repaired query through the
// handler, response marshalling, and the registry's PATCH with and without
// the on-disk spill.
func (p *layerProbe) service() error {
	srv, err := service.New(service.Config{HistoryDir: filepath.Join(p.work, "history"), TraceSampleRate: -1})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	hit := fmt.Appendf(nil, `{"graph":{"family":"random","n":%d,"seed":%d},"source":0}`, p.sz.HotN, p.seed)
	if _, err := serveInProcess(h, http.MethodPost, "/v1/sssp", hit); err != nil { // the miss that fills the cache
		return err
	}
	c, err := p.measure("service.handler_hit", 200*p.sz.reps, func() error {
		rec, err := serveInProcess(h, http.MethodPost, "/v1/sssp", hit)
		if err == nil && rec.Header().Get("X-Dsssp-Cache") != "hit" {
			err = fmt.Errorf("expected a cache hit")
		}
		return err
	})
	if err != nil {
		return err
	}
	p.metrics["service.handler_hit_us"] = usOf(c.wall)

	cache := service.NewCache(64 << 20)
	body := bytes.Repeat([]byte("x"), 1024)
	cache.GetOrCompute("key", func() ([]byte, error) { return body, nil })
	const batch = 10000
	if c, err = p.measure("service.cache_hit", 5, func() error {
		for j := 0; j < batch; j++ {
			if _, hit, _ := cache.GetOrCompute("key", nil); !hit {
				return fmt.Errorf("expected a cache hit")
			}
		}
		return nil
	}); err != nil {
		return err
	}
	p.metrics["service.cache_hit_ns"] = float64(c.wall) / batch

	for _, m := range []struct {
		name string
		n    int
	}{{"service.marshal_n128", p.sz.HotN}, {"service.marshal_n10k", p.sz.DynN}} {
		g, _ := inputs.Dynamic(p.seed, m.n, 1)
		resp := service.SSSPResponse{N: g.N(), M: g.M(), Dist: graph.Dijkstra(g, 0)}
		if c, err = p.measure(m.name, 20*p.sz.reps, func() error {
			_, err := json.Marshal(resp)
			return err
		}); err != nil {
			return err
		}
		p.metrics[m.name+"_us"] = usOf(c.wall)
	}

	if err := p.repairedHandler(); err != nil {
		return err
	}
	return p.registryPatch()
}

// repairedHandler times serve-dynamic's query through the whole handler:
// a daemon-equivalent server warm-started from a registry, PATCHed between
// batches so dirty sources take a real repair and the rest the zero-change
// path.
func (p *layerProbe) repairedHandler() error {
	g, srcs := inputs.Dynamic(p.seed, p.sz.DynN, p.sz.DynSources)
	dir := filepath.Join(p.work, "registry-handler")
	id, err := inputs.WriteRegistry(dir, g, srcs)
	if err != nil {
		return err
	}
	srv, err := service.New(service.Config{
		HistoryDir: filepath.Join(p.work, "history-handler"), RegistryDir: dir,
		RepairMaxAffected: 1, TraceSampleRate: -1,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	edges := g.Edges()
	rng := rand.New(rand.NewSource(p.seed))
	var ds []float64
	sp := p.root.StartChild("service.handler_repaired")
	for round := 0; round < 2*p.sz.reps; round++ {
		e := edges[rng.Intn(len(edges))]
		w := e.W + 1
		if round%2 == 1 {
			w = e.W // keep the graph near the original
		}
		if _, err := serveInProcess(h, http.MethodPatch, "/v1/graphs/"+id+"/edges",
			fmt.Appendf(nil, `{"deltas":[{"op":"reweight","u":%d,"v":%d,"w":%d}]}`, e.U, e.V, w)); err != nil {
			sp.End()
			return err
		}
		for _, s := range srcs {
			q := fmt.Appendf(nil, `{"graph":{"graph_id":%q},"source":%d}`, id, s)
			t0 := time.Now()
			rec, err := serveInProcess(h, http.MethodPost, "/v1/sssp", q)
			if err == nil && rec.Header().Get("X-Dsssp-Incr") != "repaired" {
				err = fmt.Errorf("query not served by repair: %q", rec.Header().Get("X-Dsssp-Incr"))
			}
			if err != nil {
				sp.End()
				return err
			}
			ds = append(ds, float64(time.Since(t0)))
		}
	}
	sp.End()
	p.metrics["service.handler_repaired_us"] = stats.Median(ds) / float64(time.Microsecond)
	return nil
}

// registryPatch times GraphRegistry.Patch at serve-dynamic's size, with
// every source traced, in memory and with the per-PATCH spill to disk.
func (p *layerProbe) registryPatch() error {
	g, srcs := inputs.Dynamic(p.seed, p.sz.DynN, p.sz.DynSources)
	for _, m := range []struct {
		name string
		dir  string
	}{{"service.registry_patch", ""}, {"service.registry_patch_spill", filepath.Join(p.work, "registry-patch")}} {
		reg, id, err := inputs.Registry(m.dir, g, srcs)
		if err != nil {
			return err
		}
		edges := g.Edges()
		rng := rand.New(rand.NewSource(p.seed))
		bumped := make(map[int]bool)
		c, err := p.measure(m.name, 4*p.sz.reps, func() error {
			i := rng.Intn(len(edges))
			w := edges[i].W + 1
			if bumped[i] {
				w = edges[i].W
			}
			bumped[i] = !bumped[i]
			_, err := reg.Patch(id, []graph.EdgeDelta{{Op: graph.DeltaReweight, U: edges[i].U, V: edges[i].V, W: w}})
			return err
		})
		if err != nil {
			return err
		}
		p.metrics[m.name+"_ms"] = msOf(c.wall)
	}
	return nil
}

// serveInProcess runs one request through an in-process handler.
func serveInProcess(h http.Handler, method, path string, body []byte) (*httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec, nil
}
