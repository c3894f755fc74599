package service

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dsssp/internal/obs/trace"
)

// RequestIDHeader carries the per-request correlation ID: minted from the
// trace ID when absent, echoed when the client supplies a reasonable one,
// always set on the response and embedded in error JSON bodies — so one
// ID links the client's view, the completion log line, the metrics
// exemplars, and the flight-recorder trace.
const RequestIDHeader = "X-Dsssp-Request-Id"

// requestID returns the inbound header's ID if it is sane (short,
// printable ASCII — it gets logged and echoed verbatim) or the request's
// 32-hex trace ID, so logs, exemplars, and traces join on one key even
// for clients that send neither header.
func requestID(r *http.Request, sc trace.SpanContext) string {
	if id := r.Header.Get(RequestIDHeader); id != "" && len(id) <= 64 {
		ok := true
		for _, c := range id {
			if c <= ' ' || c > '~' {
				ok = false
				break
			}
		}
		if ok {
			return id
		}
	}
	return sc.TraceID.String()
}

// statusWriter wraps the ResponseWriter to capture the status code and
// body size for metrics/logging, carry the request ID to writeError, and
// convert the mux's own plain-text 404/405 replies into the service's
// JSON error shape so *every* non-2xx body is machine-readable.
type statusWriter struct {
	http.ResponseWriter
	requestID   string
	status      int
	bytes       int64
	intercepted bool // mux-generated error body suppressed, JSON written instead
	// writeErr is the first body-write failure (usually the client hanging
	// up mid-response). Writes to a dead connection return errors that
	// handlers routinely ignore, so the completion log line surfaces it —
	// a truncated response must be visible, not silent.
	writeErr error
}

// recordWriteErr keeps the first write failure for the completion log line.
func (w *statusWriter) recordWriteErr(err error) {
	if err != nil && w.writeErr == nil {
		w.writeErr = err
	}
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status != 0 {
		w.ResponseWriter.WriteHeader(code) // let net/http log the superfluous call
		return
	}
	w.status = code
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		strings.HasPrefix(w.Header().Get("Content-Type"), "text/plain") {
		// The bare ServeMux wrote this (our handlers always set JSON):
		// keep the status and Allow header, replace the text body.
		w.intercepted = true
		w.Header().Set("Content-Type", "application/json")
		w.ResponseWriter.WriteHeader(code)
		body, _ := json.Marshal(ErrorResponse{
			Error:     http.StatusText(code),
			Code:      errorCode(code),
			RequestID: w.requestID,
		})
		body = append(body, '\n')
		n, err := w.ResponseWriter.Write(body)
		w.recordWriteErr(err)
		w.bytes += int64(n)
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.intercepted {
		return len(b), nil // swallow the mux's plain-text body
	}
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.recordWriteErr(err)
	w.bytes += int64(n)
	return n, err
}

// Unwrap exposes the underlying writer, so http.ResponseController reaches
// its optional methods (Flush, SetWriteDeadline, ...) through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// dssspRequestID is the interface writeError uses to recover the request
// ID from whatever writer it was handed (the instrumented one in serving,
// a bare recorder in unit tests).
func (w *statusWriter) dssspRequestID() string { return w.requestID }

// TraceparentHeader is the response echo of the W3C propagation header:
// set (canonicalized) whenever the client sent one or the request was
// sampled, so callers can join their own traces to the flight recorder.
const TraceparentHeader = "Traceparent"

// rootSpanName names the root span for the bounded endpoint vocabulary.
// The query endpoints return constants so the unsampled fast path does
// not pay a concatenation allocation; everything else (graphs, stats,
// health) allocates once, off the pinned path.
func rootSpanName(endpoint string) string {
	switch endpoint {
	case "sssp":
		return "HTTP sssp"
	case "apsp":
		return "HTTP apsp"
	case "path":
		return "HTTP path"
	}
	return "HTTP " + endpoint
}

// instrument wraps the mux with the per-request telemetry envelope:
// trace-root and request-ID assignment, in-flight/latency/status metrics,
// the one completion log line, slow-query logging, and panic recovery (a
// handler panic becomes a 500 JSON error, never a dead connection and
// never a dead server). The root span is started here — adopting the
// client's traceparent trace ID when one parses, minting otherwise — and
// ended here with the final status, so every child span a handler opens
// lands in one connected tree.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endpoint := endpointLabel(r.URL.Path)
		parent, hadParent := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader))
		span, sc := s.tracer.StartRequest(rootSpanName(endpoint), parent)
		sw := &statusWriter{ResponseWriter: w, requestID: requestID(r, sc)}
		sw.Header().Set(RequestIDHeader, sw.requestID)
		if hadParent || sc.Sampled {
			// Unsolicited traceparent echo is skipped when unsampled: the
			// cached-hit fast path must not pay the header rendering.
			sw.Header().Set(TraceparentHeader, sc.Traceparent())
		}
		if span != nil {
			span.SetEndpoint(endpoint)
			span.SetAttr("method", r.Method)
			span.SetAttr("path", r.URL.Path)
			span.SetAttr("request_id", sw.requestID)
			// The request clone is sampled-only: WithContext allocates, and
			// the nil span needs no carrier (FromContext yields nil anyway).
			r = r.WithContext(trace.NewContext(r.Context(), span))
		}
		s.metrics.inFlight.With(endpoint).Inc()
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				span.SetError(fmt.Sprintf("panic: %v", p))
				writeError(sw, http.StatusInternalServerError, "internal panic: %v", p)
			}
			elapsed := time.Since(start)
			status := sw.status
			if status == 0 {
				status = http.StatusOK // handler wrote nothing at all
			}
			span.SetStatus(status)
			span.End()
			s.metrics.inFlight.With(endpoint).Dec()
			s.metrics.requests.With(endpoint, strconv.Itoa(status)).Inc()
			if sc.Sampled {
				s.metrics.latency.With(endpoint).ObserveExemplar(elapsed.Seconds(), span.TraceIDString())
			} else {
				s.metrics.latency.With(endpoint).Observe(elapsed.Seconds())
			}
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("endpoint", endpoint),
				slog.Int("status", status),
				slog.Duration("latency", elapsed),
				slog.Int64("bytes", sw.bytes),
				slog.String("request_id", sw.requestID),
				slog.String("trace_id", sc.TraceID.String()),
			}
			if cacheState := sw.Header().Get("X-Dsssp-Cache"); cacheState != "" {
				attrs = append(attrs, slog.String("cache", cacheState))
			}
			if sw.writeErr != nil {
				attrs = append(attrs, slog.String("write_error", sw.writeErr.Error()))
			}
			s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
			if elapsed >= s.cfg.SlowQueryThreshold {
				s.metrics.slowQueries.Inc()
				s.logger.LogAttrs(r.Context(), slog.LevelWarn, "slow query",
					append(attrs, slog.Duration("threshold", s.cfg.SlowQueryThreshold))...)
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// errorCode maps a status to the stable machine-readable code clients
// switch on (the prose in "error" is for humans and may change).
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusRequestEntityTooLarge:
		return "body_too_large"
	case http.StatusUnprocessableEntity:
		return "unprocessable"
	case 499:
		return "cancelled"
	case http.StatusServiceUnavailable:
		return "overloaded"
	default:
		return "internal"
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	resp := ErrorResponse{Error: fmt.Sprintf(format, args...), Code: errorCode(status)}
	if rw, ok := w.(interface{ dssspRequestID() string }); ok {
		resp.RequestID = rw.dssspRequestID()
	}
	writeJSON(w, status, resp)
}
