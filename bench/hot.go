package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"dsssp/bench/internal/inputs"
	"dsssp/internal/graph"
)

// hotQuery is one cache key of serve-hot: a generator-spec query and what
// its reference check needs.
type hotQuery struct {
	endpoint string // sssp, path or apsp
	body     []byte
	key      string       // endpoint and body: what the daemon caches on
	g        *graph.Graph // the spec's graph, built locally
	source   graph.NodeID
	target   graph.NodeID
}

// hotMix is serve-hot's query population: one SSSP key per generator
// spec, one path key on half of the specs, and one APSP key on a small
// spec.
type hotMix struct {
	sssp, path []*hotQuery
	apsp       *hotQuery
}

func (m *hotMix) all() []*hotQuery {
	out := append(append([]*hotQuery{}, m.sssp...), m.path...)
	return append(out, m.apsp)
}

// pick draws the seeded request mix: 70% SSSP, 20% path, 10% APSP, specs
// uniform.
func (m *hotMix) pick(rng *rand.Rand) *hotQuery {
	switch r := rng.Intn(10); {
	case r < 7:
		return m.sssp[rng.Intn(len(m.sssp))]
	case r < 9:
		return m.path[rng.Intn(len(m.path))]
	default:
		return m.apsp
	}
}

// newHotMix derives the specs, sources and targets from the seed. Unit
// weights keep the local graph build independent of the server's
// weight-stream derivation: a unit-weight spec is graph.Make verbatim.
func newHotMix(seed int64, smoke bool) *hotMix {
	sz := inputs.For(smoke)
	specs, n, apspN := sz.HotSpecs, sz.HotN, sz.HotAPSPN
	rng := rand.New(rand.NewSource(seed))
	m := &hotMix{}
	for i := 0; i < specs; i++ {
		gs := rng.Int63n(1 << 31)
		g := graph.Make(graph.FamilyRandom, n, graph.UnitWeights, gs)
		src, dst := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		spec := fmt.Sprintf(`{"family":"random","n":%d,"seed":%d}`, n, gs)
		m.sssp = append(m.sssp, &hotQuery{endpoint: "sssp", g: g, source: src,
			body: fmt.Appendf(nil, `{"graph":%s,"source":%d}`, spec, src)})
		if i%2 == 0 {
			m.path = append(m.path, &hotQuery{endpoint: "path", g: g, source: src, target: dst,
				body: fmt.Appendf(nil, `{"graph":%s,"source":%d,"target":%d}`, spec, src, dst)})
		}
	}
	gs := rng.Int63n(1 << 31)
	m.apsp = &hotQuery{endpoint: "apsp", g: graph.Make(graph.FamilyRandom, apspN, graph.UnitWeights, gs),
		body: fmt.Appendf(nil, `{"graph":{"family":"random","n":%d,"seed":%d},"seed":%d}`, apspN, gs, seed)}
	for _, q := range m.all() {
		q.key = q.endpoint + " " + string(q.body)
	}
	return m
}

// check verifies a response body against graph.Dijkstra on the locally
// built graph.
func (q *hotQuery) check(body []byte) error {
	switch q.endpoint {
	case "sssp":
		dist, err := decodeDist(body)
		if err != nil {
			return err
		}
		return checkDist(dist, graph.Dijkstra(q.g, q.source))
	case "path":
		var p struct {
			Dist int64   `json:"dist"`
			Path []int64 `json:"path"`
		}
		if err := json.Unmarshal(body, &p); err != nil {
			return fmt.Errorf("decoding path response: %w", err)
		}
		return checkPath(q.g, graph.Dijkstra(q.g, q.source), q.source, q.target, p.Dist, p.Path)
	default:
		var a struct {
			Dist [][]int64 `json:"dist"`
		}
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("decoding apsp response: %w", err)
		}
		if len(a.Dist) != q.g.N() {
			return fmt.Errorf("apsp has %d rows, want %d", len(a.Dist), q.g.N())
		}
		for s := range a.Dist {
			if err := checkDist(a.Dist[s], graph.Dijkstra(q.g, graph.NodeID(s))); err != nil {
				return fmt.Errorf("apsp row %d: %w", s, err)
			}
		}
		return nil
	}
}

func runServeHot(cfg config) (*result, error) {
	bin, err := buildServer(cfg)
	if err != nil {
		return nil, err
	}
	res := newResult()
	p, err := hotPass(cfg, res, bin, false, hotSetupReps, cfg.seconds, "-trace-sample", "-1")
	if err != nil {
		return nil, err
	}
	err = p.metrics(res)
	if serr := p.srv.stop(); err == nil {
		err = serr
	}
	return res, err
}

// hotPass boots the daemon reps times — each boot followed by a cache
// fill, the two together being serve-hot's set-up — then runs the closed
// loop for seconds on the last boot, one slice at a time. Every fill body
// is checked against the reference and every timed body must be a
// byte-identical cache hit.
func hotPass(cfg config, res *result, bin string, debug bool, reps int, seconds float64, flags ...string) (*servePass, error) {
	mix := newHotMix(cfg.seed, cfg.smoke)
	keys := mix.all()
	nc := clients()
	c := newClient(nc)
	defer c.CloseIdleConnections()
	hs := newHostSpeed()
	var fills [][][]byte
	srv, setups, err := boot(cfg, hs, bin, debug, reps, flags, func(s *server) error {
		bodies, err := fillCache(c, s.url, keys)
		fills = append(fills, bodies)
		return err
	})
	if err != nil {
		return nil, err
	}
	p := &servePass{srv: srv, hs: hs, setups: setups}
	ids := &identity{}
	for _, bodies := range fills {
		for i, q := range keys {
			first, err := ids.observe(q.key, bodies[i])
			switch {
			case err != nil:
				res.tally.fail("%v", err)
			case first:
				res.tally.check(q.check(bodies[i]))
			default:
				res.tally.ok()
			}
		}
	}

	// Each client draws from its own seeded stream for the whole pass.
	rngs := make([]*rand.Rand, nc)
	for k := range rngs {
		rngs[k] = rand.New(rand.NewSource(cfg.seed*7919 + int64(k)))
	}
	err = p.timeSlices(seconds, func(s *serveSlice, until time.Time) error {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, rng := range rngs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				var lats, sssp []time.Duration
				for time.Now().Before(until) {
					q := mix.pick(rng)
					t0 := time.Now()
					h, err := call(c, http.MethodPost, p.srv.url+"/v1/"+q.endpoint, q.body, &buf)
					lat := time.Since(t0)
					if err != nil {
						res.tally.fail("%s: %v", q.endpoint, err)
						continue
					}
					if h.Get("X-Dsssp-Cache") != "hit" {
						res.tally.fail("%s: cache %q in the timed part, want hit", q.endpoint, h.Get("X-Dsssp-Cache"))
						continue
					}
					if _, err := ids.observe(q.key, buf.Bytes()); err != nil {
						res.tally.fail("%v", err)
						continue
					}
					res.tally.ok()
					lats = append(lats, lat)
					if q.endpoint == "sssp" {
						sssp = append(sssp, lat)
					}
				}
				mu.Lock()
				defer mu.Unlock()
				s.lats = append(s.lats, lats...)
				s.sssp = append(s.sssp, sssp...)
				s.ops += len(lats)
			}()
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		p.srv.stop()
		return nil, err
	}
	return p, nil
}

// fillCache sends every key once, one at a time — the first request per
// key is the miss that computes and caches it — and returns the bodies in
// key order. One at a time, the fill — serve-hot's set-up — does the same
// work in the same order on every run.
func fillCache(c *http.Client, url string, keys []*hotQuery) ([][]byte, error) {
	bodies := make([][]byte, len(keys))
	var buf bytes.Buffer
	for i, q := range keys {
		if _, err := call(c, http.MethodPost, url+"/v1/"+q.endpoint, q.body, &buf); err != nil {
			return nil, fmt.Errorf("cache fill: %w", err)
		}
		bodies[i] = bytes.Clone(buf.Bytes())
	}
	return bodies, nil
}
