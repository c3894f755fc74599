package service

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestStatusWriterFlusherPassthrough is the regression test for the
// streaming bug: the instrumented writer must still type-assert to
// http.Flusher (and forward the flush), or any handler that streams would
// silently buffer once wrapped.
func TestStatusWriterFlusherPassthrough(t *testing.T) {
	s := testServer(t)
	var sawFlusher bool
	h := s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		sawFlusher = ok
		if ok {
			w.Write([]byte("chunk"))
			f.Flush()
		}
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
	if !sawFlusher {
		t.Fatal("instrumented ResponseWriter does not type-assert to http.Flusher")
	}
	if !rec.Flushed {
		t.Fatal("Flush was not forwarded to the underlying writer")
	}

	// The unwrapped struct must also expose io.ReaderFrom (the sendfile
	// fast path) and keep the byte accounting Write performs.
	sw := &statusWriter{ResponseWriter: httptest.NewRecorder()}
	var w http.ResponseWriter = sw
	rf, ok := w.(io.ReaderFrom)
	if !ok {
		t.Fatal("statusWriter does not type-assert to io.ReaderFrom")
	}
	n, err := rf.ReadFrom(strings.NewReader("hello"))
	if err != nil || n != 5 {
		t.Fatalf("ReadFrom = (%d, %v), want (5, nil)", n, err)
	}
	if sw.bytes != 5 || sw.status != http.StatusOK {
		t.Fatalf("ReadFrom accounting: bytes=%d status=%d, want 5/200", sw.bytes, sw.status)
	}
}

// brokenWriter fails every body write — the shape of a client that hung up
// mid-response.
type brokenWriter struct {
	httptest.ResponseRecorder
}

func (w *brokenWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestWriteErrorLogged asserts a failed response write surfaces in the
// completion log line instead of vanishing: truncated responses must be
// visible.
func TestWriteErrorLogged(t *testing.T) {
	var buf syncBuffer
	s, err := New(Config{
		Workers: 2, Rev: "test",
		Logger: slog.New(slog.NewJSONHandler(&buf, nil)), SlowQueryThreshold: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	h := s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := w.Write([]byte("doomed")); err == nil {
			t.Error("broken writer reported success")
		}
	}))
	h.ServeHTTP(&brokenWriter{ResponseRecorder: *httptest.NewRecorder()}, httptest.NewRequest("GET", "/v1/healthz", nil))

	var completion map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec["msg"] == "request" {
			completion = rec
		}
	}
	if completion == nil {
		t.Fatalf("no completion log line in %s", buf.String())
	}
	we, _ := completion["write_error"].(string)
	if !strings.Contains(we, io.ErrClosedPipe.Error()) {
		t.Fatalf("completion write_error = %q, want it to carry %q", we, io.ErrClosedPipe)
	}
}
