package service

import (
	"container/list"
	"context"
	"encoding/binary"
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
// keyed by keyFromDigest, evicted LRU under a byte budget, with in-flight
// deduplication — concurrent identical misses run the computation once and
// every waiter gets the same bytes. The whole-graph answers the paper's
// APSP ramification makes expensive are exactly cacheable (deterministic
// algorithms on content-addressed inputs), so repeats cost a map lookup.
//
// An entry holds only bytes computed for its own key, so a body is a pure
// function of (canonical graph, options) and never of the server's
// history. For registered graphs the key embeds the head revision's
// digest: a PATCH mints new keys, while the old revision's entries stay
// valid for that content and age out through the LRU. Nothing else writes
// into the cache; a source a PATCH leaves untouched is served from its
// trace (see GraphRegistry), not from a copied entry.
//
// The same LRU and budget hold the generator-spec memo (specDigest,
// putSpecDigest): spec → (canonical digest, n), so a generator-spec query
// finds its key without building the graph. Memo entries are charged to
// the budget like any other, but every counter in CacheStats except
// BytesUsed counts query results only.
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
	// memos counts the resident generator-spec memo entries.
	memos int
}

type centry struct {
	key  string
	body []byte
	memo bool // a generator-spec memo entry, not a query result
}

// flight is one in-progress computation; followers block on done.
type flight struct {
	done chan struct{}
	body []byte
	// incr is the leader's X-Dsssp-Incr, which its followers reply with:
	// they serve the rows the leader served.
	incr string
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
	body, _, out, err := c.getOrCompute(key, func() ([]byte, string, bool, error) {
		b, err := compute()
		return b, "", true, err
	})
	return body, out != cacheMiss, err
}

// getOrCompute is GetOrCompute whose compute also returns the reply's
// X-Dsssp-Incr, handed to every follower of the flight, and whether to
// store the body. A resident entry has no X-Dsssp-Incr.
func (c *Cache) getOrCompute(key string, compute func() ([]byte, string, bool, error)) (body []byte, incr string, out cacheOutcome, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.hits++
			body = el.Value.(*centry).body
			c.mu.Unlock()
			return body, "", cacheHit, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			<-f.done
			if f.err != nil {
				if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
					continue // the leader's client died, not the computation
				}
				return nil, "", cacheMiss, f.err
			}
			c.mu.Lock()
			c.hits++ // served by the leader's computation, not our own
			c.shared++
			c.mu.Unlock()
			return f.body, f.incr, cacheShared, nil
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.misses++
		c.mu.Unlock()
		c.lead(key, f, compute)
		return f.body, f.incr, cacheMiss, f.err
	}
}

// lead runs the flight leader's computation and always releases the
// flight — even when compute panics (the HTTP layer recovers handler
// panics into a 500, so a panicking input must not leave followers parked
// on f.done forever and the key permanently poisoned). The panic
// propagates to the leader after cleanup; followers see a plain error.
func (c *Cache) lead(key string, f *flight, compute func() ([]byte, string, bool, error)) {
	completed := false
	store := false
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if completed && store && f.err == nil {
			c.insertLocked(key, f.body, false)
		}
		c.mu.Unlock()
		if !completed {
			f.body, f.err = nil, errors.New("service: computation panicked (see the leader request's error)")
		}
		close(f.done)
	}()
	f.body, f.incr, store, f.err = compute()
	completed = true
}

// specDigest reads the generator-spec memo entry at key (see specMemoKey):
// the canonical digest and node count of the graph the spec generates. A
// lookup refreshes the entry's LRU position but is neither a hit nor a
// miss — those count query lookups only.
func (c *Cache) specDigest(key string) (digest [32]byte, n int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return digest, 0, false
	}
	c.ll.MoveToFront(el)
	v := el.Value.(*centry).body
	copy(digest[:], v)
	return digest, int(binary.LittleEndian.Uint64(v[32:])), true
}

// putSpecDigest memoizes a validated generator spec's digest and node
// count under key, charged to the byte budget like a result.
func (c *Cache) putSpecDigest(key string, digest [32]byte, n int) {
	v := make([]byte, 40)
	copy(v, digest[:])
	binary.LittleEndian.PutUint64(v[32:], uint64(n))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, v, true)
}

// insertLocked adds an entry and evicts LRU entries until the budget
// holds. Bodies whose charged cost exceeds the whole budget are served but
// not stored.
func (c *Cache) insertLocked(key string, body []byte, memo bool) {
	if entryCost(key, body) > c.budget {
		return
	}
	if el, ok := c.items[key]; ok { // lost a race against a concurrent fill
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&centry{key: key, body: body, memo: memo})
	c.used += entryCost(key, body)
	if memo {
		c.memos++
	}
	for c.used > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		if !back.Value.(*centry).memo {
			c.evictions++
		}
		c.removeLocked(back)
	}
}

// removeLocked drops an entry and refunds its charged cost.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*centry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.used -= entryCost(e.key, e.body)
	if e.memo {
		c.memos--
	}
}

// CacheStats is the observable cache state, read by the dsssp_cache_*
// metrics at scrape time. Hits, Misses, Evictions and Entries count query
// results only; generator-spec memo entries show only in BytesUsed.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// SingleflightDedup counts hits served by another request's in-flight
	// computation (concurrent identical misses collapsed); ⊆ Hits.
	SingleflightDedup int64
	Entries           int
	// BytesUsed is the charged footprint: bodies plus keys plus the fixed
	// per-entry overhead (see entryOverhead) of every resident entry, memo
	// entries included, so it tracks real memory, not just payload bytes.
	BytesUsed int64
	Budget    int64
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions, SingleflightDedup: c.shared,
		Entries: len(c.items) - c.memos, BytesUsed: c.used, Budget: c.budget,
	}
}
