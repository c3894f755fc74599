package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestEndToEnd is the acceptance test for the serving layer, run against a
// real httptest server (and under -race in CI): concurrent identical
// queries dedup into cache hits with byte-identical responses.
func TestEndToEnd(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()

	t.Run("concurrent-identical-queries", func(t *testing.T) { e2eConcurrentQueries(t, ts) })
}

func e2eConcurrentQueries(t *testing.T, ts *httptest.Server) {
	const clients = 8
	body := `{"graph":{"family":"expander","n":48,"seed":5,"weights":{"kind":"uniform","max_w":48}},"source":3}`
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
		hits   int
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sssp", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			payload, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != 200 {
				t.Errorf("status %d err %v: %s", resp.StatusCode, err, payload)
				return
			}
			mu.Lock()
			bodies = append(bodies, payload)
			if resp.Header.Get("X-Dsssp-Cache") == "hit" {
				hits++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(bodies) != clients {
		t.Fatalf("only %d/%d responses", len(bodies), clients)
	}
	if hits < 1 {
		t.Fatal("no cache hits across concurrent identical requests")
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs byte-wise from response 0", i)
		}
	}
}
