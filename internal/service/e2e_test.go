package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dsssp/internal/benchdiff"
)

// TestEndToEnd is the acceptance test for the serving layer, run against a
// real httptest server (and under -race in CI): concurrent identical
// queries dedup into cache hits with byte-identical responses, a sweep job
// survives submit → progress → completion and lands its report in the
// history store, and /v1/trends over the stored history agrees with
// internal/benchdiff run pairwise.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end sweep test")
	}
	srv := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	t.Run("concurrent-identical-queries", func(t *testing.T) { e2eConcurrentQueries(t, ts) })
	t.Run("sweep-job-lifecycle", func(t *testing.T) { e2eSweepJob(t, ts, srv, 0) })
	t.Run("second-sweep-and-trends", func(t *testing.T) {
		e2eSweepJob(t, ts, srv, 1)
		e2eTrends(t, ts, srv)
	})
	t.Run("sweep-cancellation", func(t *testing.T) { e2eSweepCancel(t, ts) })
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

// e2eSweepPatterns is the tiny quick-suite subset the sweep jobs run.
var e2eSweepPatterns = []string{"congest-bellman-ford/random/*", "congest-dijkstra/random/*"}

func e2eSweepJob(t *testing.T, ts *httptest.Server, srv *Server, priorReports int) {
	payload, _ := json.Marshal(SweepRequest{Patterns: e2eSweepPatterns, Quick: true, Parallel: 2})
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var job JobStatus
	mustDecode(t, resp, http.StatusAccepted, &job)
	if job.ID == "" || (job.State != JobQueued && job.State != JobRunning) {
		t.Fatalf("submitted job = %+v", job)
	}

	job = waitForJob(t, ts, job.ID, 60*time.Second)
	if job.State != JobDone {
		t.Fatalf("job finished in state %q (error %q)", job.State, job.Error)
	}
	if job.Done != job.Total || job.Total == 0 || job.Failures != 0 {
		t.Fatalf("job progress = %+v", job)
	}
	if job.StartedAt == nil || job.FinishedAt == nil || job.Report == "" {
		t.Fatalf("job bookkeeping = %+v", job)
	}

	// The report landed in the history store and is loadable.
	entries, err := srv.Store().List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != priorReports+1 {
		t.Fatalf("history has %d reports, want %d", len(entries), priorReports+1)
	}
	rep, err := srv.Store().Load(job.Report)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios != job.Total || rep.Failures != 0 || !rep.Quick {
		t.Fatalf("stored report = scenarios %d failures %d quick %v", rep.Scenarios, rep.Failures, rep.Quick)
	}
}

func waitForJob(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var job JobStatus
		mustDecode(t, resp, http.StatusOK, &job)
		switch job.State {
		case JobDone, JobFailed, JobCancelled:
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q after %v (%d/%d)", id, job.State, timeout, job.Done, job.Total)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func e2eTrends(t *testing.T, ts *httptest.Server, srv *Server) {
	resp, err := http.Get(ts.URL + "/v1/trends")
	if err != nil {
		t.Fatal(err)
	}
	var trend benchdiff.Trend
	mustDecode(t, resp, http.StatusOK, &trend)
	if trend.Schema != benchdiff.TrendSchema || len(trend.Labels) != 2 || len(trend.Steps) != 1 {
		t.Fatalf("trend = schema %q labels %v steps %+v", trend.Schema, trend.Labels, trend.Steps)
	}
	if !trend.OK || !trend.Steps[0].OK {
		t.Fatalf("identical back-to-back sweeps must not regress: %+v", trend.Steps)
	}

	// Consistency with benchdiff run pairwise over the same stored files.
	entries, err := srv.Store().List()
	if err != nil || len(entries) != 2 {
		t.Fatalf("history entries = %v (err %v)", entries, err)
	}
	old, err := srv.Store().Load(entries[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	new_, err := srv.Store().Load(entries[1].Name)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := benchdiff.Compare(old, new_, benchdiff.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, delta := range diff.Deltas {
		var st *benchdiff.ScenarioTrend
		for i := range trend.Scenarios {
			if trend.Scenarios[i].Scenario == delta.Scenario {
				st = &trend.Scenarios[i]
			}
		}
		if st == nil {
			t.Fatalf("scenario %q missing from the trend", delta.Scenario)
		}
		for _, md := range delta.Metrics {
			series := append(append([]benchdiff.TrendSeries(nil), st.Metrics...), st.Phases...)
			for _, s := range series {
				if s.Metric != md.Metric {
					continue
				}
				if s.Ratios[0] != md.OldRatio || s.Ratios[1] != md.NewRatio {
					t.Fatalf("%s/%s: trend ratios (%v, %v) disagree with pairwise benchdiff (%v, %v)",
						delta.Scenario, md.Metric, s.Ratios[0], s.Ratios[1], md.OldRatio, md.NewRatio)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no overlapping metrics checked between trend and pairwise diff")
	}

	// The markdown rendering serves too.
	resp, err = http.Get(ts.URL + "/v1/trends?format=markdown")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	md, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || !bytes.Contains(md, []byte("# Bench trends")) {
		t.Fatalf("markdown trends: %d %s", resp.StatusCode, md)
	}
}

func e2eSweepCancel(t *testing.T, ts *httptest.Server) {
	// A full (non-quick) whole-suite sweep takes long enough to cancel.
	payload, _ := json.Marshal(SweepRequest{Quick: false, Parallel: 1})
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var job JobStatus
	mustDecode(t, resp, http.StatusAccepted, &job)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+job.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	mustDecode(t, resp, http.StatusOK, &job)

	job = waitForJob(t, ts, job.ID, 60*time.Second)
	if job.State != JobCancelled {
		t.Fatalf("cancelled job ended as %q (error %q)", job.State, job.Error)
	}
	if job.Report != "" {
		t.Fatal("cancelled job must not store a partial report")
	}
	if job.Error == "" || !strings.Contains(job.Error, "cancel") {
		t.Fatalf("cancelled job error %q is not descriptive", job.Error)
	}
}

func mustDecode(t *testing.T, resp *http.Response, status int, into any) {
	t.Helper()
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, status, payload)
	}
	if err := json.Unmarshal(payload, into); err != nil {
		t.Fatalf("decoding %s: %v", payload, err)
	}
}
