package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustCompute(t *testing.T, c *Cache, key string, body []byte) (got []byte, hit bool) {
	t.Helper()
	got, hit, err := c.GetOrCompute(key, func() ([]byte, error) { return body, nil })
	if err != nil {
		t.Fatal(err)
	}
	return got, hit
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(1 << 20)
	body := []byte("hello")
	got, hit := mustCompute(t, c, "k", body)
	if hit || !bytes.Equal(got, body) {
		t.Fatalf("first access: hit=%v body=%q", hit, got)
	}
	got, hit = mustCompute(t, c, "k", []byte("should not be computed"))
	if !hit || !bytes.Equal(got, body) {
		t.Fatalf("second access: hit=%v body=%q", hit, got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.BytesUsed != entryCost("k", body) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheEvictionUnderByteBudget(t *testing.T) {
	// Budget for exactly two entries (each: 100-byte body + 2-byte key +
	// the fixed per-entry overhead).
	body := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 100) }
	budget := 2 * entryCost("k0", body(0))
	c := NewCache(budget)
	for i := 0; i < 3; i++ {
		mustCompute(t, c, fmt.Sprintf("k%d", i), body(i))
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 || st.BytesUsed != budget {
		t.Fatalf("stats after overflow = %+v", st)
	}
	// k0 was least recently used and must be gone; k1, k2 remain.
	if _, hit := mustCompute(t, c, "k1", nil); !hit {
		t.Fatal("k1 should have survived")
	}
	if _, hit := mustCompute(t, c, "k2", nil); !hit {
		t.Fatal("k2 should have survived")
	}
	if _, hit := mustCompute(t, c, "k0", body(0)); hit {
		t.Fatal("k0 should have been evicted")
	}
	// Touch order decides the victim: refresh k2, insert k3 — k1 goes.
	st = c.Stats() // k0's reinsert evicted one more
	mustCompute(t, c, "k2", nil)
	mustCompute(t, c, "k3", body(3))
	if _, hit := mustCompute(t, c, "k2", nil); !hit {
		t.Fatal("recently-touched k2 evicted instead of LRU")
	}
	if c.Stats().Evictions <= st.Evictions {
		t.Fatalf("no eviction recorded: %+v", c.Stats())
	}
}

// TestCacheCostIncludesKeyAndOverhead pins the accounting fix: an entry is
// charged for its key and fixed per-entry overhead, not just its body.
// Under body-only accounting a flood of tiny entries would never overflow
// the budget while the real heap footprint (keys, list elements, map
// buckets) grew without bound.
func TestCacheCostIncludesKeyAndOverhead(t *testing.T) {
	c := NewCache(1 << 10)
	mustCompute(t, c, "some-64-char-hex-key-standing-in-for-a-sha256-address", []byte{})
	st := c.Stats()
	if want := entryCost("some-64-char-hex-key-standing-in-for-a-sha256-address", nil); st.BytesUsed != want {
		t.Fatalf("empty-body entry charged %d bytes, want %d (key + overhead)", st.BytesUsed, want)
	}
	if st.BytesUsed <= entryOverhead {
		t.Fatalf("charge %d does not include the key", st.BytesUsed)
	}

	// 1-byte bodies under a budget that holds ~7 full entries but would
	// hold hundreds under body-only accounting: eviction must kick in.
	c = NewCache(1 << 10)
	for i := 0; i < 300; i++ {
		mustCompute(t, c, fmt.Sprintf("key-%03d", i), []byte{byte(i)})
	}
	st = c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("tiny-body flood evicted nothing: %+v", st)
	}
	if st.BytesUsed > st.Budget {
		t.Fatalf("budget overrun: %+v", st)
	}
	if want := int64(st.Entries) * entryCost("key-000", []byte{0}); st.BytesUsed != want {
		t.Fatalf("resident charge %d, want %d entries x %d", st.BytesUsed, st.Entries, entryCost("key-000", []byte{0}))
	}
}

func TestCacheOversizedBodyNotStored(t *testing.T) {
	c := NewCache(10)
	big := bytes.Repeat([]byte("x"), 100)
	if got, hit := mustCompute(t, c, "big", big); hit || !bytes.Equal(got, big) {
		t.Fatalf("oversized compute: hit=%v", hit)
	}
	if st := c.Stats(); st.Entries != 0 || st.BytesUsed != 0 {
		t.Fatalf("oversized body was stored: %+v", st)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(1 << 10)
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute("k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("error result was cached: %+v", st)
	}
	// The key still works after a failure.
	if got, hit := mustCompute(t, c, "k", []byte("ok")); hit || string(got) != "ok" {
		t.Fatalf("retry after error: hit=%v got=%q", hit, got)
	}
}

// TestCachePanicReleasesFlight: a panicking computation must release the
// flight (followers unblock, the key stays usable) while the panic itself
// propagates to the leader.
func TestCachePanicReleasesFlight(t *testing.T) {
	c := NewCache(1 << 10)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the leader")
			}
		}()
		c.GetOrCompute("k", func() ([]byte, error) { panic("boom") })
	}()
	// The key is not poisoned: no stale flight, no bogus entry.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if got, hit := mustCompute(t, c, "k", []byte("ok")); hit || string(got) != "ok" {
			t.Errorf("post-panic compute: hit=%v got=%q", hit, got)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("request after a panicking leader hung — flight not released")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("stats after recovery = %+v", st)
	}
}

// TestCacheLeaderCancellationHandoff: a flight leader failing with a
// context cancellation (its client hung up) must not poison the waiting
// followers — one of them takes over and computes.
func TestCacheLeaderCancellationHandoff(t *testing.T) {
	c := NewCache(1 << 10)
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, leaderErr = c.GetOrCompute("k", func() ([]byte, error) {
			close(leaderIn)
			<-leaderGo
			return nil, context.Canceled // the leader's request died
		})
	}()
	<-leaderIn // the follower only starts once the flight exists
	var followerBody []byte
	var followerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		followerBody, _, followerErr = c.GetOrCompute("k", func() ([]byte, error) {
			return []byte("follower-computed"), nil
		})
	}()
	// Give the follower a moment to block on the leader's flight, then
	// let the leader fail. (If the follower hasn't parked yet it simply
	// finds no flight after the leader exits — same outcome.)
	time.Sleep(10 * time.Millisecond)
	close(leaderGo)
	wg.Wait()
	if !errors.Is(leaderErr, context.Canceled) {
		t.Fatalf("leader error = %v", leaderErr)
	}
	if followerErr != nil || string(followerBody) != "follower-computed" {
		t.Fatalf("follower did not take over: body=%q err=%v", followerBody, followerErr)
	}
}

// TestCacheSingleflight: concurrent identical misses run the computation
// once; every follower gets the leader's bytes and counts as a hit.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(1 << 10)
	var calls atomic.Int64
	gate := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, waiters)
	hits := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, hit, err := c.GetOrCompute("k", func() ([]byte, error) {
				calls.Add(1)
				<-gate // hold every concurrent caller in the flight
				return []byte("computed-once"), nil
			})
			if err != nil {
				t.Error(err)
			}
			bodies[i], hits[i] = body, hit
		}()
	}
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	leaderMisses, followerHits := 0, 0
	for i := range bodies {
		if !bytes.Equal(bodies[i], []byte("computed-once")) {
			t.Fatalf("waiter %d got %q", i, bodies[i])
		}
		if hits[i] {
			followerHits++
		} else {
			leaderMisses++
		}
	}
	if leaderMisses != 1 || followerHits != waiters-1 {
		t.Fatalf("misses=%d hits=%d, want 1/%d", leaderMisses, followerHits, waiters-1)
	}
}

// TestSharedFlightCarriesIncr parks the leader of a registered-graph
// /v1/sssp flight on the only worker slot, lets a second identical query
// join the flight as a follower, and requires the follower's reply to
// carry the leader's body and headers, X-Dsssp-Incr included; only its
// own request ID, trace context and X-Dsssp-Cache differ.
func TestSharedFlightCarriesIncr(t *testing.T) {
	s, err := New(Config{Workers: 1, TraceSampleRate: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, _ := registerTraced(t, s, 200, 3)
	q := ssspQuery(id, 3)

	// inFlight waits until k queries are inside the cache's flight: the
	// leader parked on the worker slot, a follower on the leader.
	inFlight := func(k int) {
		t.Helper()
		buf := make([]byte, 1<<20)
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*Cache).getOrCompute(") >= k {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d queries never reached the flight", k)
			}
		}
	}
	s.querySem <- struct{}{} // the only worker slot: the leader waits for it
	replies := make([]*httptest.ResponseRecorder, 2)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i] = do(t, s, "POST", "/v1/sssp", q)
		}()
		inFlight(i + 1)
	}
	<-s.querySem
	wg.Wait()

	if replies[0].Header().Get("X-Dsssp-Cache") != "miss" {
		replies[0], replies[1] = replies[1], replies[0]
	}
	leader, follower := replies[0], replies[1]
	own := func(h http.Header) http.Header {
		h = h.Clone()
		for _, k := range []string{RequestIDHeader, TraceparentHeader, "X-Dsssp-Cache"} {
			h.Del(k)
		}
		return h
	}
	switch {
	case leader.Code != http.StatusOK || follower.Code != http.StatusOK:
		t.Fatalf("status %d and %d", leader.Code, follower.Code)
	case leader.Header().Get("X-Dsssp-Cache") != "miss" || follower.Header().Get("X-Dsssp-Cache") != "hit":
		t.Fatalf("X-Dsssp-Cache %q and %q, want a miss and a hit", leader.Header().Get("X-Dsssp-Cache"), follower.Header().Get("X-Dsssp-Cache"))
	case leader.Header().Get("X-Dsssp-Incr") != "repaired":
		t.Fatalf("leader's X-Dsssp-Incr %q, want repaired", leader.Header().Get("X-Dsssp-Incr"))
	case !reflect.DeepEqual(own(follower.Header()), own(leader.Header())):
		t.Fatalf("follower's headers %v, leader's %v", follower.Header(), leader.Header())
	case !bytes.Equal(follower.Body.Bytes(), leader.Body.Bytes()):
		t.Fatal("follower's body differs from the leader's")
	}
	if st := s.cache.Stats(); st.SingleflightDedup != 1 {
		t.Fatalf("cache stats %+v, want one shared hit", st)
	}
}
