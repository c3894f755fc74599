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

// TestStatusWriterFlusherPassthrough: a handler behind the instrumented
// writer still flushes the underlying one, through
// http.ResponseController and statusWriter.Unwrap.
func TestStatusWriterFlusherPassthrough(t *testing.T) {
	s := testServer(t)
	var flushErr error
	h := s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("chunk"))
		flushErr = http.NewResponseController(w).Flush()
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
	if flushErr != nil {
		t.Fatalf("Flush through the instrumented writer: %v", flushErr)
	}
	if !rec.Flushed {
		t.Fatal("Flush was not forwarded to the underlying writer")
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
		Workers: 2,
		Logger:  slog.New(slog.NewJSONHandler(&buf, nil)), SlowQueryThreshold: time.Hour,
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
