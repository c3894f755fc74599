package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dsssp/bench/internal/stats"
)

// runTraced is the per-layer pass. Every per-layer metric comes out of
// every --trace 1 run, so the pass is the same for every workload (the
// workload name only labels the span files): the layer probes, then short
// serve-hot and serve-dynamic passes against the daemon with its flight
// recorder on, whose exported span trees are reduced to per-layer self
// times.
func runTraced(cfg config) (*result, error) {
	res := newResult()
	base := filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := runLayers(cfg, res, base+"-layers.jsonl"); err != nil {
		return nil, err
	}
	bin, err := buildServer(cfg)
	if err != nil {
		return nil, err
	}
	secs := cfg.seconds / 3
	traceFlags := []string{"-trace-sample", "1", "-trace-recent", "4096"}

	// serve-hot twice: untraced (the end-to-end configuration) and traced,
	// for the recorder's cost and the span trees.
	plain, err := hotPass(cfg, res, bin, false, 1, secs, "-trace-sample", "-1")
	if err != nil {
		return nil, err
	}
	if err := plain.srv.stop(); err != nil {
		return nil, err
	}
	traced, err := hotPass(cfg, res, bin, true, 1, secs, traceFlags...)
	if err != nil {
		return nil, err
	}
	hot, err := exportSpans(traced.srv, base+"-serve-hot.jsonl")
	if serr := traced.srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	// Both passes' latencies are scaled to the reference host, so the
	// ratio does not follow the host's speed from one pass to the next.
	res.metrics["obs.trace_overhead"] = stats.Median(traced.scaledMs()) / stats.Median(plain.scaledMs())
	res.metrics["serve-hot.op_p90_ms"] = stats.Quantile(plain.scaledMs(), 0.9)
	// Transport is a difference of two wall times measured a few seconds
	// apart in this process, like the other per-layer times.
	var sssp []time.Duration
	for _, s := range plain.slices {
		sssp = append(sssp, s.sssp...)
	}
	res.metrics["service.transport_us"] = 1000*stats.Median(stats.Millis(sssp)) - res.metrics["service.handler_hit_us"]
	if err := spanMetrics(res, "serve-hot", hot, []string{"root", "graph.resolve", "cache.lookup"}); err != nil {
		return nil, err
	}
	res.metrics["service.hit_ratio"] = hot.matching("cache.lookup", "result", "hit") / float64(len(hot.spans["cache.lookup"]))

	in, err := newDynInputs(cfg)
	if err != nil {
		return nil, err
	}
	dyn, err := dynamicPass(cfg, res, bin, in, true, 1, secs, traceFlags...)
	if err != nil {
		return nil, err
	}
	dspans, err := exportSpans(dyn.srv, base+"-serve-dynamic.jsonl")
	if serr := dyn.srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if err := spanMetrics(res, "serve-dynamic", dspans, []string{"root", "graph.resolve", "cache.lookup", "queue.wait", "exec", "repair"}); err != nil {
		return nil, err
	}
	res.metrics["service.repaired_ratio"] = dspans.matching("repair", "outcome", "repaired") / float64(len(dspans.spans["root"]))
	// Unlike serve-hot's, this tail is taken with the flight recorder on.
	res.metrics["serve-dynamic.op_p90_ms"] = stats.Quantile(dyn.scaledMs(), 0.9)
	pl := dyn.scaledPatchMs()
	res.metrics["serve-dynamic.patch_p50_ms"] = stats.Median(pl)
	res.metrics["serve-dynamic.patch_p90_ms"] = stats.Quantile(pl, 0.9)
	return res, nil
}

// exportSpans downloads the daemon's flight recorder as JSONL, keeps a
// copy next to the layer spans, and reduces it.
func exportSpans(s *server, path string) (*spanSet, error) {
	c := newClient(1)
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	if _, err := call(c, http.MethodGet, s.debug+"/debug/traces?format=jsonl&limit=4096", nil, &buf); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return reduceSpans(buf.Bytes())
}

// wireTrace is one line of the flight recorder's JSONL export.
type wireTrace struct {
	Endpoint string     `json:"endpoint"`
	Spans    []wireSpan `json:"spans"`
}

type wireSpan struct {
	ID     string         `json:"span_id"`
	Parent string         `json:"parent_id"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_unix_ns"`
	Dur    int64          `json:"duration_ns"`
	Attrs  map[string]any `json:"attrs"`
}

// spanSet is the reduction of query traces: per span name (the root span
// of every query trace is "root") the self times in µs, and the spans for
// attribute ratios.
type spanSet struct {
	self  map[string][]float64
	spans map[string][]wireSpan
}

// matching counts name's spans whose attribute key equals value.
func (s *spanSet) matching(name, key, value string) float64 {
	match := 0
	for _, sp := range s.spans[name] {
		if v, _ := sp.Attrs[key].(string); v == value {
			match++
		}
	}
	return float64(match)
}

// reduceSpans turns query traces (sssp, path, apsp) into self times. A
// span's self time is its duration minus the part of its interval covered
// by the spans nested inside it. Nesting is by interval, not only by
// parent: the daemon opens queue.wait and exec as children of the root
// although they run inside cache.lookup.
func reduceSpans(jsonl []byte) (*spanSet, error) {
	out := &spanSet{self: make(map[string][]float64), spans: make(map[string][]wireSpan)}
	for _, line := range bytes.Split(jsonl, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var tr wireTrace
		if err := json.Unmarshal(line, &tr); err != nil {
			return nil, fmt.Errorf("decoding trace export: %w", err)
		}
		switch tr.Endpoint {
		case "sssp", "path", "apsp":
		default:
			continue
		}
		parent := make(map[string]string, len(tr.Spans))
		for _, sp := range tr.Spans {
			parent[sp.ID] = sp.Parent
		}
		for _, sp := range tr.Spans {
			name := sp.Name
			if sp.Parent == "" {
				name = "root"
			}
			ancestors := make(map[string]bool)
			for p := sp.Parent; p != ""; p = parent[p] {
				ancestors[p] = true
			}
			var inner [][2]int64
			for _, t := range tr.Spans {
				if t.ID != sp.ID && !ancestors[t.ID] && t.Start >= sp.Start && t.Start+t.Dur <= sp.Start+sp.Dur {
					inner = append(inner, [2]int64{t.Start, t.Start + t.Dur})
				}
			}
			self := float64(sp.Dur - covered(inner))
			out.self[name] = append(out.self[name], max(self, 0)/float64(time.Microsecond))
			out.spans[name] = append(out.spans[name], sp)
		}
	}
	return out, nil
}

// covered is the length of the union of the intervals (Unix-time
// nanoseconds, so all positive).
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	for _, x := range iv {
		switch {
		case x[0] >= end:
			total += x[1] - x[0]
			end = x[1]
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// spanMetrics records the median self time of each named span.
func spanMetrics(res *result, workload string, s *spanSet, names []string) error {
	for _, name := range names {
		if len(s.self[name]) == 0 {
			return fmt.Errorf("%s: no %s spans in the trace export", workload, name)
		}
		res.metrics["span."+workload+"."+name+".self_p50_us"] = stats.Median(s.self[name])
	}
	return nil
}
