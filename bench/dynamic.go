package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"dsssp/bench/internal/inputs"
	"dsssp/bench/internal/stats"
	"dsssp/internal/graph"
)

// dynInputs is serve-dynamic's registered graph: written to a registry
// directory the daemon warm-starts from, with an exact trace per source so
// every query is served by incr.Repair — simulating n=10⁴ from scratch
// would take minutes per source.
type dynInputs struct {
	g        *graph.Graph
	edges    []graph.EdgeTriple
	sources  []graph.NodeID
	bodies   [][]byte // one SSSP request body per source
	id       string   // the graph handle
	dir      string   // registry directory
	perRound int      // queries between two PATCHes
}

func newDynInputs(cfg config) (*dynInputs, error) {
	sz := inputs.For(cfg.smoke)
	in := &dynInputs{dir: filepath.Join(cfg.work, "registry"), perRound: sz.DynPerRound}
	in.g, in.sources = inputs.Dynamic(cfg.seed, sz.DynN, sz.DynSources)
	in.edges = in.g.Edges()
	var err error
	if in.id, err = inputs.WriteRegistry(in.dir, in.g, in.sources); err != nil {
		return nil, err
	}
	for _, s := range in.sources {
		in.bodies = append(in.bodies, fmt.Appendf(nil, `{"graph":{"graph_id":%q},"source":%d}`, in.id, s))
	}
	return in, nil
}

func runServeDynamic(cfg config) (*result, error) {
	bin, err := buildServer(cfg)
	if err != nil {
		return nil, err
	}
	in, err := newDynInputs(cfg)
	if err != nil {
		return nil, err
	}
	res := newResult()
	p, err := dynamicPass(cfg, res, bin, in, false, dynamicSetupReps, cfg.seconds, "-trace-sample", "-1")
	if err != nil {
		return nil, err
	}
	err = p.metrics(res)
	if serr := p.srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	pl := p.scaledPatchMs()
	res.addInfo("patch_p50_ms", stats.Median(pl), "ms")
	res.addInfo("patch_p90_ms", stats.Quantile(pl, 0.9), "ms")
	res.addInfo("patch_samples", float64(len(pl)), "count")
	return res, nil
}

// dynSample is one query kept for the post-run reference check.
type dynSample struct {
	rev  int
	src  graph.NodeID
	body []byte
}

// dynJob is one query of a round.
type dynJob struct {
	src    int // index into dynInputs.sources
	rev    int // the revision the query must be answered at
	sample bool
}

// dynamicPass boots the daemon reps times from the registry directory
// (boot + warm-start is serve-dynamic's set-up), then runs rounds for
// seconds on the last boot: perRound queries round-robin over the sources
// from a closed loop of clients, drained, then one seeded ±1 reweight
// PATCH. Draining matters: a query that resolves revision k just before
// PATCH k+1 lands falls back to a full simulation. One query per round is
// kept and checked after the run against graph.Dijkstra on a local replay
// of its revision. A slice of the timed part is whole rounds until about a
// second has passed.
func dynamicPass(cfg config, res *result, bin string, in *dynInputs, debug bool, reps int, seconds float64, flags ...string) (*servePass, error) {
	flags = append([]string{"-registry-dir", in.dir, "-repair-max-affected", "1"}, flags...)
	nc := clients()
	hs := newHostSpeed()
	srv, setups, err := boot(cfg, hs, bin, debug, reps, flags, nil)
	if err != nil {
		return nil, err
	}
	p := &servePass{srv: srv, hs: hs, setups: setups}

	c := newClient(nc)
	defer c.CloseIdleConnections()
	var (
		mu      sync.Mutex
		samples []dynSample
		round   sync.WaitGroup
		cur     *serveSlice // the slice being timed; written only between rounds
	)
	jobs := make(chan dynJob)
	var workers sync.WaitGroup
	for k := 0; k < nc; k++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			var buf bytes.Buffer
			for j := range jobs {
				src := in.sources[j.src]
				t0 := time.Now()
				h, err := call(c, http.MethodPost, p.srv.url+"/v1/sssp", in.bodies[j.src], &buf)
				lat := time.Since(t0)
				if err == nil {
					err = checkIncr(h.Get("X-Dsssp-Incr"))
				}
				if got := h.Get("X-Dsssp-Graph-Revision"); err == nil && got != strconv.Itoa(j.rev) {
					err = fmt.Errorf("revision %q, want %d", got, j.rev)
				}
				if err != nil {
					res.tally.fail("sssp from %d: %v", src, err)
					round.Done()
					continue
				}
				mu.Lock()
				cur.lats = append(cur.lats, lat)
				cur.ops++
				if j.sample {
					samples = append(samples, dynSample{j.rev, src, bytes.Clone(buf.Bytes())})
				}
				mu.Unlock()
				if !j.sample {
					res.tally.ok() // sampled queries count after their check
				}
				round.Done()
			}
		}()
	}

	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	weights := make([]int64, len(in.edges))
	for i, e := range in.edges {
		weights[i] = e.W
	}
	deltas := map[int]graph.EdgeDelta{} // revision → the delta that made it
	var buf bytes.Buffer
	rev, next := 1, 0
	err = p.timeSlices(seconds, func(s *serveSlice, until time.Time) error {
		cur = s
		for time.Now().Before(until) {
			pick := rng.Intn(in.perRound)
			round.Add(in.perRound)
			for q := 0; q < in.perRound; q++ {
				jobs <- dynJob{src: next % len(in.sources), rev: rev, sample: q == pick}
				next++
			}
			round.Wait()

			i := rng.Intn(len(in.edges))
			e := in.edges[i]
			w := e.W + 1 // alternate between +1 and back, like dsssp-serve -load-dynamic
			if weights[i] != e.W {
				w = e.W
			}
			body := fmt.Appendf(nil, `{"deltas":[{"op":"reweight","u":%d,"v":%d,"w":%d}]}`, e.U, e.V, w)
			t0 := time.Now()
			_, err := call(c, http.MethodPatch, p.srv.url+"/v1/graphs/"+in.id+"/edges", body, &buf)
			lat := time.Since(t0)
			var pi struct {
				Revision int `json:"revision"`
			}
			if err == nil {
				err = json.Unmarshal(buf.Bytes(), &pi)
			}
			if err == nil && pi.Revision != rev+1 {
				err = fmt.Errorf("revision %d, want %d", pi.Revision, rev+1)
			}
			if err != nil {
				res.tally.fail("patch: %v", err)
				continue
			}
			res.tally.ok()
			rev++
			weights[i] = w
			deltas[rev] = graph.EdgeDelta{Op: graph.DeltaReweight, U: e.U, V: e.V, W: w}
			s.patchLats = append(s.patchLats, lat)
			s.ops++
		}
		return nil
	})
	close(jobs)
	workers.Wait()
	if err != nil {
		p.srv.stop()
		return nil, err
	}
	if err := checkSamples(res, in.g, samples, deltas); err != nil {
		p.srv.stop()
		return nil, err
	}
	return p, nil
}

// checkSamples replays the PATCH stream locally, revision by revision, and
// checks each kept query against graph.Dijkstra on its revision.
func checkSamples(res *result, g *graph.Graph, samples []dynSample, deltas map[int]graph.EdgeDelta) error {
	sort.SliceStable(samples, func(a, b int) bool { return samples[a].rev < samples[b].rev })
	cur := 1
	for _, s := range samples {
		for cur < s.rev {
			cur++
			ng, err := graph.ApplyDeltas(g, []graph.EdgeDelta{deltas[cur]})
			if err != nil {
				return fmt.Errorf("replaying revision %d: %w", cur, err)
			}
			g = ng
		}
		dist, err := decodeDist(s.body)
		if err == nil {
			err = checkDist(dist, graph.Dijkstra(g, s.src))
		}
		if err != nil {
			res.tally.fail("sssp from %d at revision %d: %v", s.src, s.rev, err)
			continue
		}
		res.tally.ok()
	}
	return nil
}
