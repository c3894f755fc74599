package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsssp/internal/graph"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// sim workload re-executes itself for a set-up sample.
func TestMain(m *testing.M) {
	if spec := os.Getenv(setupChildEnv); spec != "" {
		os.Exit(setupChild(spec))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload and the per-layer pass at -smoke size and
// checks that each metric BENCHMARK.json lists is printed with its unit
// and that nothing failed. It makes no timing assertions.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts dsssp-serve and runs every workload")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	cfg := config{seed: 1, seconds: 0.5, smoke: true, root: root, build: tmp, spans: filepath.Join(tmp, "spans")}
	type pass struct {
		name string
		run  func(config) (*result, error)
		want []metricSpec
	}
	var passes []pass
	for _, name := range sp.workloadNames() {
		passes = append(passes, pass{name, workloads[name], sp.EndToEnd})
	}
	passes = append(passes, pass{"per-layer", runTraced, sp.PerLayer})
	for _, p := range passes {
		t.Run(p.name, func(t *testing.T) {
			c := cfg
			c.workload, c.work = p.name, t.TempDir()
			res, err := p.run(c)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			code, err := report(&out, p.name, res, p.want)
			if err != nil {
				t.Fatal(err)
			}
			if code != 0 {
				t.Errorf("exit code %d, output:\n%s", code, out.String())
			}
			lines := make(map[string]string) // metric → unit
			for _, ln := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(ln); len(f) == 4 && f[0] == p.name {
					lines[f[1]] = f[3]
				}
			}
			for _, m := range p.want {
				if unit, ok := lines[m.Name]; !ok || unit != m.Unit {
					t.Errorf("metric %s: printed unit %q, want %q", m.Name, unit, m.Unit)
				}
			}
			if !strings.Contains(out.String(), p.name+" error_rate 0 ratio\n") {
				t.Errorf("error_rate is not 0:\n%s", out.String())
			}
		})
	}
}

// TestWrongAnswersFail feeds each check the kind of wrong answer it
// guards against and requires a non-zero error_rate and exit code, next
// to a control run of right answers that must pass.
func TestWrongAnswersFail(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 5)
	g.SortAdj()
	ref := graph.Dijkstra(g, 0) // [0 2 3 8]
	good := []byte(`{"dist":[0,2,3,8]}`)
	corrupt := []byte(`{"dist":[0,2,4,8]}`)
	key := `sssp {"graph":{"family":"random","n":4,"seed":1},"source":0}`

	cases := []struct {
		name string
		feed func(res *result)
	}{
		{"control", func(res *result) {
			res.tally.check(checkDist(ref, graph.Dijkstra(g, 0)))
		}},
		{"corrupted dist row", func(res *result) {
			dist, err := decodeDist(corrupt)
			if err == nil {
				err = checkDist(dist, ref)
			}
			res.tally.check(err)
		}},
		{"corrupted serve-hot reference", func(res *result) {
			q := &hotQuery{endpoint: "sssp", g: g, source: 0}
			res.tally.check(q.check(corrupt))
		}},
		{"stale serve-dynamic row", func(res *result) {
			// Right at revision 1, wrong at revision 2 after 2-3 got heavier.
			samples := []dynSample{{rev: 2, src: 0, body: good}}
			deltas := map[int]graph.EdgeDelta{2: {Op: graph.DeltaReweight, U: 2, V: 3, W: 6}}
			if err := checkSamples(res, g, samples, deltas); err != nil {
				t.Fatal(err)
			}
		}},
		{"mismatched body", func(res *result) {
			ids := &identity{}
			if _, err := ids.observe(key, good); err != nil {
				t.Fatal(err)
			}
			_, err := ids.observe(key, []byte(`{"dist":[0,2,3,9]}`))
			res.tally.check(err)
		}},
		{"recomputed header", func(res *result) {
			res.tally.check(checkIncr("recomputed"))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := newResult()
			res.tally.ok() // one right answer before the one under test
			c.feed(res)
			code, err := report(io.Discard, "test", res, nil)
			if err != nil {
				t.Fatal(err)
			}
			failed := res.tally.errorRate() > 0 && code != 0
			if wantFail := c.name != "control"; failed != wantFail {
				t.Errorf("error_rate %v, exit code %d; want failure %v", res.tally.errorRate(), code, wantFail)
			}
		})
	}
}

// TestCompareVerdicts pins the --against rules: worse than the bound is a
// regression only when both spreads are within the bound; otherwise the
// row is unresolved, unless every new run beats every old one.
func TestCompareVerdicts(t *testing.T) {
	sp := &spec{
		EndToEnd: []metricSpec{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.2}},
	}
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	agg := func(median, spread float64, values ...float64) *aggregate {
		return &aggregate{EndToEnd: map[string]map[string]*aggregateStat{
			"w": {"op_p50_ms": {Median: median, Spread: spread, Values: values}},
		}}
	}
	prev := agg(100, 0.05, 95, 100, 105)
	for _, c := range []struct {
		name    string
		cur     *aggregate
		ok      bool
		verdict string
	}{
		{"within bound", agg(110, 0.05, 105, 110, 115), true, " ok\n"},
		{"regression", agg(130, 0.05, 125, 130, 135), false, "REGRESSION"},
		{"noisy", agg(130, 0.3, 90, 130, 170), true, "unresolved"},
		{"every run better", agg(50, 0.3, 40, 50, 80), true, "every run better"},
	} {
		var out bytes.Buffer
		if ok := compare(&out, sp, prev, c.cur); ok != c.ok || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: ok=%v, output %q; want ok=%v and %q", c.name, ok, out.String(), c.ok, c.verdict)
		}
	}
}

// TestSelfTimesNestByInterval pins the self-time rule on the daemon's
// span shape: queue.wait and exec are children of the root but run inside
// cache.lookup, so they come out of cache.lookup's self time, not only
// out of the root's.
func TestSelfTimesNestByInterval(t *testing.T) {
	span := func(id, parent, name string, start, end int64) string {
		return fmt.Sprintf(`{"span_id":%q,"parent_id":%q,"name":%q,"start_unix_ns":%d,"duration_ns":%d}`,
			id, parent, name, 1000+start, end-start)
	}
	line := `{"endpoint":"sssp","spans":[` + strings.Join([]string{
		span("r", "", "HTTP sssp", 0, 100),
		span("g", "r", "graph.resolve", 5, 15),
		span("c", "r", "cache.lookup", 20, 90),
		span("q", "r", "queue.wait", 25, 30),
		span("e", "r", "exec", 30, 85),
		span("p", "e", "repair", 40, 60),
	}, ",") + "]}\n"
	s, err := reduceSpans([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"root": 20, "graph.resolve": 10, "cache.lookup": 10, "queue.wait": 5, "exec": 35, "repair": 20}
	for name, ns := range want {
		if got := s.self[name]; len(got) != 1 || got[0] != ns/1000 {
			t.Errorf("%s self time = %v µs, want %v µs", name, got, ns/1000)
		}
	}
}
