package service

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// entryOverhead approximates the per-entry bookkeeping bytes the Go heap
// pays beyond key and body: the list.Element (4 pointers + value header),
// the centry header, and the items map's bucket share. Charging it keeps
// the byte budget honest under many small entries — a cache full of
// 100-byte bodies behind 64-byte keys is mostly overhead, and a budget
// that only counted bodies would blow its memory target several-fold.
const entryOverhead = 128

// entryCost is the bytes an entry is charged against the budget: body,
// key, and fixed per-entry overhead.
func entryCost(key string, body []byte) int64 {
	return int64(len(key)) + int64(len(body)) + entryOverhead
}

// Cache is the content-addressed result cache: finished response bodies
// keyed by queryKey, evicted LRU under a byte budget, with in-flight
// deduplication — concurrent identical misses run the computation once and
// every waiter gets the same bytes. The whole-graph answers the paper's
// APSP ramification makes expensive are exactly cacheable (deterministic
// algorithms on content-addressed inputs), so repeats cost a map lookup.
//
// For registered graphs the key embeds the graph *revision* digest, which
// is what makes invalidation edge-granular: a PATCH migrates (Copy) the
// entries of sources its deltas provably cannot affect to the new
// revision's keys and drops (Invalidate) exactly the dirty ones, instead
// of orphaning the whole graph's worth of results.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	ll      *list.List               // front = most recently used
	items   map[string]*list.Element // key → element holding *centry
	flights map[string]*flight

	hits, misses, evictions int64
	// shared counts hits served by another request's in-flight computation
	// (singleflight dedup) — a subset of hits.
	shared int64
}

type centry struct {
	key  string
	body []byte
}

// flight is one in-progress computation; followers block on done.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// NewCache returns a cache with the given byte budget (<= 0 disables
// storage; deduplication of concurrent identical requests still applies).
func NewCache(budget int64) *Cache {
	return &Cache{
		budget:  budget,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
	}
}

// cacheOutcome distinguishes how a getOrCompute call was served; the
// tracing layer labels each request's cache span with it (a singleflight
// follower is a "shared" hit: its bytes came from another request's
// in-flight computation, and its trace has no engine span of its own).
type cacheOutcome uint8

const (
	cacheMiss   cacheOutcome = iota // this caller ran compute
	cacheHit                        // resident entry
	cacheShared                     // another request's in-flight computation
)

func (o cacheOutcome) String() string {
	switch o {
	case cacheHit:
		return "hit"
	case cacheShared:
		return "shared"
	default:
		return "miss"
	}
}

// GetOrCompute returns the cached body for key, or runs compute exactly
// once per key at a time and caches its result. hit reports whether the
// bytes came from the cache or a concurrent identical computation (a
// "shared" hit) rather than this caller's own compute. Errors are never
// cached: a failed computation leaves no entry, so a transient failure
// doesn't poison the key. One exception to error propagation: when a
// flight leader fails with a context cancellation, that error is specific
// to the leader's hung-up client, not to the computation — a waiting
// follower (whose own connection is alive) takes over as the new leader
// instead of inheriting the 499. Genuine compute errors propagate to
// every waiter unretried.
func (c *Cache) GetOrCompute(key string, compute func() ([]byte, error)) (body []byte, hit bool, err error) {
	body, out, err := c.getOrCompute(key, func() ([]byte, bool, error) {
		b, err := compute()
		return b, true, err
	})
	return body, out != cacheMiss, err
}

func (c *Cache) getOrCompute(key string, compute func() ([]byte, bool, error)) (body []byte, out cacheOutcome, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.hits++
			body = el.Value.(*centry).body
			c.mu.Unlock()
			return body, cacheHit, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			<-f.done
			if f.err != nil {
				if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
					continue // the leader's client died, not the computation
				}
				return nil, cacheMiss, f.err
			}
			c.mu.Lock()
			c.hits++ // served by the leader's computation, not our own
			c.shared++
			c.mu.Unlock()
			return f.body, cacheShared, nil
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.misses++
		c.mu.Unlock()
		c.lead(key, f, compute)
		return f.body, cacheMiss, f.err
	}
}

// lead runs the flight leader's computation and always releases the
// flight — even when compute panics (the HTTP layer recovers handler
// panics into a 500, so a panicking input must not leave followers parked
// on f.done forever and the key permanently poisoned). The panic
// propagates to the leader after cleanup; followers see a plain error.
func (c *Cache) lead(key string, f *flight, compute func() ([]byte, bool, error)) {
	completed := false
	store := false
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if completed && store && f.err == nil {
			c.insertLocked(key, f.body)
		}
		c.mu.Unlock()
		if !completed {
			f.body, f.err = nil, errors.New("service: computation panicked (see the leader request's error)")
		}
		close(f.done)
	}()
	f.body, store, f.err = compute()
	completed = true
}

// Copy duplicates the entry at src under dst (sharing the body bytes —
// entries are immutable) and reports whether src was resident. This is the
// reuse half of edge-granular invalidation: a PATCH carries an untouched
// source's result forward to the new revision's key without recomputing or
// copying the payload.
func (c *Cache) Copy(src, dst string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[src]
	if !ok {
		return false
	}
	c.insertLocked(dst, el.Value.(*centry).body)
	return true
}

// Invalidate removes the given keys and returns how many were resident —
// the dirty half of edge-granular invalidation (a PATCH drops exactly the
// sources its deltas can affect; everything else stays warm).
func (c *Cache) Invalidate(keys ...string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, key := range keys {
		if el, ok := c.items[key]; ok {
			c.removeLocked(el)
			n++
		}
	}
	return n
}

// insertLocked adds an entry and evicts LRU entries until the budget
// holds. Bodies whose charged cost exceeds the whole budget are served but
// not stored.
func (c *Cache) insertLocked(key string, body []byte) {
	if entryCost(key, body) > c.budget {
		return
	}
	if el, ok := c.items[key]; ok { // lost a race against a concurrent fill
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&centry{key: key, body: body})
	c.used += entryCost(key, body)
	for c.used > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
	}
}

// removeLocked drops an entry and refunds its charged cost.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*centry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.used -= entryCost(e.key, e.body)
}

// CacheStats is the observable cache state (GET /v1/stats and the
// dsssp_cache_* metrics).
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// SingleflightDedup counts hits served by another request's in-flight
	// computation (concurrent identical misses collapsed); ⊆ Hits.
	SingleflightDedup int64 `json:"singleflight_dedup"`
	Entries           int   `json:"entries"`
	// BytesUsed is the charged footprint: bodies plus keys plus the fixed
	// per-entry overhead (see entryOverhead), so it tracks real memory,
	// not just payload bytes.
	BytesUsed int64 `json:"bytes_used"`
	Budget    int64 `json:"bytes_budget"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions, SingleflightDedup: c.shared,
		Entries: len(c.items), BytesUsed: c.used, Budget: c.budget,
	}
}
