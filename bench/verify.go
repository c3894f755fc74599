package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sync"

	"dsssp/internal/graph"
)

// tally counts attempted and failed operations. An operation fails when it
// errors or when its output is wrong; a run with any failure exits non-zero
// after printing its result line.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail records one failed operation; the first message is kept and every
// message goes to stderr so a failing run explains itself.
func (t *tally) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	t.mu.Lock()
	t.attempted++
	t.failed++
	if t.firstErr == "" {
		t.firstErr = msg
	}
	t.mu.Unlock()
	fmt.Fprintln(os.Stderr, "bench: wrong output:", msg)
}

// check records one operation as passed when err is nil, failed otherwise.
func (t *tally) check(err error) {
	if err != nil {
		t.fail("%v", err)
		return
	}
	t.ok()
}

func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// exitCode is the process status for a finished run: non-zero when any
// operation failed or none was attempted.
func (t *tally) exitCode() int {
	if t.failed > 0 || t.attempted == 0 {
		return 1
	}
	return 0
}

// checkDist compares a distance row against the sequential reference.
func checkDist(got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("dist has %d entries, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	return nil
}

// checkPath verifies a path response: the reference distance to target,
// and a walk target → … → source over real edges whose weights sum to it.
func checkPath(g *graph.Graph, ref []int64, source, target graph.NodeID, dist int64, path []int64) error {
	if dist != ref[target] {
		return fmt.Errorf("path dist %d→%d = %d, want %d", source, target, dist, ref[target])
	}
	if dist == graph.Inf {
		if len(path) != 0 {
			return fmt.Errorf("unreachable target %d has a path", target)
		}
		return nil
	}
	if len(path) == 0 || path[0] != int64(target) || path[len(path)-1] != int64(source) {
		return fmt.Errorf("path %v does not run from %d to %d", path, target, source)
	}
	var sum int64
	for i := 1; i < len(path); i++ {
		w, ok := edgeWeight(g, graph.NodeID(path[i-1]), graph.NodeID(path[i]))
		if !ok {
			return fmt.Errorf("path step %d-%d is not an edge", path[i-1], path[i])
		}
		sum += w
	}
	if sum != dist {
		return fmt.Errorf("path %d→%d weighs %d, want %d", source, target, sum, dist)
	}
	return nil
}

func edgeWeight(g *graph.Graph, u, v graph.NodeID) (int64, bool) {
	if u < 0 || int(u) >= g.N() {
		return 0, false
	}
	for _, h := range g.Adj(u) {
		if h.To == v {
			return h.W, true
		}
	}
	return 0, false
}

// checkIncr rejects a registered-graph query that the server answered by
// re-running the engine: serve-dynamic measures the repair path, and a
// recomputation at n=10⁴ takes minutes.
func checkIncr(header string) error {
	if header != "repaired" {
		return fmt.Errorf("X-Dsssp-Incr = %q, want \"repaired\"", header)
	}
	return nil
}

// bodyHash fingerprints a response body for the byte-identity check.
func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// identity tracks the first body seen per cache key: every later body for
// the key must be byte-identical to it. Safe for concurrent use.
type identity struct {
	mu    sync.Mutex
	first map[string]uint64
}

// observe returns (true, nil) for the first body of a key — the caller
// then checks it against the reference — and an error for a later body
// that differs from the first.
func (id *identity) observe(key string, body []byte) (first bool, err error) {
	h := bodyHash(body)
	id.mu.Lock()
	defer id.mu.Unlock()
	if id.first == nil {
		id.first = make(map[string]uint64)
	}
	prev, seen := id.first[key]
	if !seen {
		id.first[key] = h
		return true, nil
	}
	if prev != h {
		return false, fmt.Errorf("%s: body differs from the key's first body", key)
	}
	return false, nil
}

// distBody is the part of an SSSP response the checks read.
type distBody struct {
	Dist []int64 `json:"dist"`
}

func decodeDist(b []byte) ([]int64, error) {
	var d distBody
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return d.Dist, nil
}
