package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	c := MintContext()
	h := c.Traceparent()
	if len(h) != 55 {
		t.Fatalf("traceparent length = %d, want 55 (%q)", len(h), h)
	}
	got, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected own output", h)
	}
	if got != c {
		t.Fatalf("round trip: got %+v want %+v", got, c)
	}
	if !got.Sampled {
		t.Fatal("minted context must be sampled")
	}
}

// validTraceparents and malformedTraceparents are the parser's accept and
// reject tables; they also seed FuzzParseTraceparent.
var validTraceparents = []string{
	"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
	"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00",       // unsampled
	"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", // future version, extra field
}

var malformedTraceparents = []string{
	"",
	"00",
	"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",     // missing flags
	"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-1",   // short flags
	"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",  // uppercase hex
	"00-0af7651916cd43dd8448eb211c80319c-B7AD6B7169203331-01",  // uppercase span
	"00-00000000000000000000000000000000-b7ad6b7169203331-01",  // zero trace ID
	"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",  // zero span ID
	"00-0af7651916cd43dd8448eb211c80319g-b7ad6b7169203331-01",  // non-hex
	"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // forbidden version
	"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01x", // version-00 trailing junk
	"0x-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // non-hex version
	"00_0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // wrong separator
}

func TestTraceparentParseValid(t *testing.T) {
	c, ok := ParseTraceparent(validTraceparents[0])
	if !ok {
		t.Fatal("valid traceparent rejected")
	}
	if c.TraceID.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace ID = %s", c.TraceID)
	}
	if c.SpanID.String() != "b7ad6b7169203331" {
		t.Fatalf("span ID = %s", c.SpanID)
	}
	if !c.Sampled {
		t.Fatal("flags 01 must parse as sampled")
	}
	if c2, ok := ParseTraceparent(validTraceparents[1]); !ok || c2.Sampled {
		t.Fatal("flags 00 must parse as unsampled")
	}
	// A future version may append fields after the flags.
	if _, ok := ParseTraceparent(validTraceparents[2]); !ok {
		t.Fatal("future-version traceparent with extra field must parse")
	}
}

func TestTraceparentParseMalformed(t *testing.T) {
	for _, h := range malformedTraceparents {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", h)
		}
	}
}

// FuzzParseTraceparent checks the parser on arbitrary header values: it
// never panics, an accepted context is Valid, and an accepted context
// survives a render/parse round trip unchanged. Plain `go test` replays
// the seed tables; `go test -fuzz FuzzParseTraceparent` explores further.
func FuzzParseTraceparent(f *testing.F) {
	for _, h := range validTraceparents {
		f.Add(h)
	}
	for _, h := range malformedTraceparents {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		c, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if !c.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid context %+v", h, c)
		}
		if got, ok := ParseTraceparent(c.Traceparent()); !ok || got != c {
			t.Fatalf("round trip of %q: got (%+v, %v), want (%+v, true)", h, got, ok, c)
		}
	})
}

func TestMintIDsUnique(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id := MintTraceID()
		if id.IsZero() {
			t.Fatal("minted zero trace ID")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %s after %d mints", id, i)
		}
		seen[id] = true
	}
}

func TestSpanTree(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	root, sc := tr.StartRequest("HTTP /v1/sssp", SpanContext{})
	if root == nil {
		t.Fatal("sampled StartRequest returned nil span")
	}
	if !sc.Sampled || !sc.Valid() {
		t.Fatalf("bad root context %+v", sc)
	}
	root.SetEndpoint("sssp")
	root.SetStatus(200)
	root.SetAttr("method", "POST")

	cacheSp := root.StartChild("cache.lookup")
	cacheSp.SetAttr("result", "miss")
	cacheSp.End()

	exec := root.StartChild("exec")
	exec.Graft("phase:frontier", exec.StartTime(), 3*time.Millisecond, Int64("rounds", 17))
	exec.SetAttr("rounds", int64(17))
	exec.End()
	root.End()

	got := tr.Recorder().Get(sc.TraceID.String())
	if got == nil {
		t.Fatal("trace not in recorder after root End")
	}
	if got.Endpoint != "sssp" || got.Status != 200 || got.Error {
		t.Fatalf("trace header %+v", got)
	}
	if len(got.Spans) != 4 {
		t.Fatalf("span count = %d, want 4", len(got.Spans))
	}
	// Exactly one root; every other span's parent is present.
	ids := make(map[string]bool, len(got.Spans))
	for _, s := range got.Spans {
		ids[s.SpanID] = true
	}
	roots := 0
	for _, s := range got.Spans {
		if s.ParentID == "" {
			roots++
			if s.Name != "HTTP /v1/sssp" {
				t.Fatalf("root span name %q", s.Name)
			}
			if s.Attrs["method"] != "POST" {
				t.Fatalf("root attrs %v", s.Attrs)
			}
			continue
		}
		if !ids[s.ParentID] {
			t.Fatalf("span %s has dangling parent %s", s.SpanID, s.ParentID)
		}
	}
	if roots != 1 {
		t.Fatalf("roots = %d, want 1", roots)
	}
	var sawGraft bool
	for _, s := range got.Spans {
		if s.Name == "phase:frontier" {
			sawGraft = true
			if s.DurationNano != int64(3*time.Millisecond) {
				t.Fatalf("graft duration %d", s.DurationNano)
			}
			if v, _ := s.Attrs["rounds"].(int64); v != 17 {
				t.Fatalf("graft attrs %v", s.Attrs)
			}
		}
	}
	if !sawGraft {
		t.Fatal("grafted span missing")
	}
}

func TestRootAdoptsParentContext(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	parent, _ := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	root, sc := tr.StartRequest("HTTP", parent)
	if sc.TraceID != parent.TraceID {
		t.Fatalf("trace ID not adopted: %s", sc.TraceID)
	}
	if sc.SpanID == parent.SpanID {
		t.Fatal("root must mint its own span ID")
	}
	root.End()
	got := tr.Recorder().Get(parent.TraceID.String())
	if got == nil {
		t.Fatal("trace not recorded")
	}
	// The remote parent is carried as an attribute, not a dangling ParentID.
	if got.Spans[0].ParentID != "" {
		t.Fatalf("root ParentID %q, want empty", got.Spans[0].ParentID)
	}
	if got.Spans[0].Attrs["remote_parent_span"] != parent.SpanID.String() {
		t.Fatalf("remote parent attr %v", got.Spans[0].Attrs)
	}
}

func TestUnsampledStillMintsIDs(t *testing.T) {
	tr := New(Config{SampleRate: -1})
	sp, sc := tr.StartRequest("HTTP", SpanContext{})
	if sp != nil {
		t.Fatal("unsampled StartRequest must return nil span")
	}
	if sc.TraceID.IsZero() || sc.SpanID.IsZero() {
		t.Fatalf("unsampled context must still carry IDs: %+v", sc)
	}
	if sc.Sampled {
		t.Fatal("unsampled context marked sampled")
	}
	// Inbound trace IDs are preserved for log correlation even unsampled.
	parent, _ := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	_, sc2 := tr.StartRequest("HTTP", parent)
	if sc2.TraceID != parent.TraceID {
		t.Fatal("unsampled request must keep the inbound trace ID")
	}
	if sc2.Sampled {
		t.Fatal("unsampled request must clear the sampled flag")
	}
}

func TestFractionalSampling(t *testing.T) {
	tr := New(Config{SampleRate: 0.25})
	sampled := 0
	for i := 0; i < 100; i++ {
		sp, _ := tr.StartRequest("r", SpanContext{})
		if sp != nil {
			sampled++
			sp.End()
		}
	}
	if sampled != 25 {
		t.Fatalf("deterministic 1-in-4 sampling got %d/100", sampled)
	}
}

// TestUnsampledZeroAlloc pins the acceptance criterion: tracing disabled
// by sampling adds no allocations on the request path.
func TestUnsampledZeroAlloc(t *testing.T) {
	tr := New(Config{SampleRate: -1})
	parent, _ := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	allocs := testing.AllocsPerRun(1000, func() {
		sp, sc := tr.StartRequest("HTTP /v1/sssp", parent)
		child := sp.StartChild("cache.lookup")
		child.SetAttr("result", "hit")
		child.End()
		sp.SetStatus(200)
		sp.End()
		_ = sc
	})
	if allocs != 0 {
		t.Fatalf("unsampled request path allocates %.1f/op, want 0", allocs)
	}
}

func TestSpanCap(t *testing.T) {
	tr := New(Config{SampleRate: 1, MaxSpans: 4})
	root, sc := tr.StartRequest("HTTP", SpanContext{})
	for i := 0; i < 10; i++ {
		c := root.StartChild("c")
		c.End()
	}
	root.Graft("g", root.StartTime(), time.Millisecond)
	root.End()
	got := tr.Recorder().Get(sc.TraceID.String())
	if got == nil {
		t.Fatal("capped trace not recorded")
	}
	if len(got.Spans) > 4 {
		t.Fatalf("span cap leaked: %d spans", len(got.Spans))
	}
	if got.DroppedSpans == 0 {
		t.Fatal("dropped count not recorded")
	}
}

func TestRecorderRetentionBias(t *testing.T) {
	tr := New(Config{SampleRate: 1, Recent: 8, Retained: 4, SlowThreshold: time.Hour})
	// One errored request…
	root, errSC := tr.StartRequest("HTTP /v1/sssp", SpanContext{})
	root.SetStatus(400)
	root.SetError("bad graph spec")
	root.End()
	// …then a flood of fast successes large enough to churn the recent ring.
	for i := 0; i < 50; i++ {
		sp, _ := tr.StartRequest("HTTP /v1/sssp", SpanContext{})
		sp.SetStatus(200)
		sp.End()
	}
	got := tr.Recorder().Get(errSC.TraceID.String())
	if got == nil {
		t.Fatal("errored trace evicted despite retention bias")
	}
	if !got.Error || got.Status != 400 {
		t.Fatalf("retained trace %+v", got)
	}
	errs := tr.Recorder().Traces(Filter{Errors: true})
	if len(errs) != 1 || errs[0].TraceID != errSC.TraceID.String() {
		t.Fatalf("error filter returned %d traces", len(errs))
	}
}

func TestRecorderFilters(t *testing.T) {
	tr := New(Config{SampleRate: 1, SlowThreshold: time.Hour})
	mk := func(endpoint string, status int) string {
		sp, sc := tr.StartRequest("HTTP", SpanContext{})
		sp.SetEndpoint(endpoint)
		sp.SetStatus(status)
		sp.End()
		return sc.TraceID.String()
	}
	mk("sssp", 200)
	apspID := mk("apsp", 200)
	mk("sssp", 422)

	if got := tr.Recorder().Traces(Filter{Endpoint: "apsp"}); len(got) != 1 || got[0].TraceID != apspID {
		t.Fatalf("endpoint filter: %d traces", len(got))
	}
	if got := tr.Recorder().Traces(Filter{Status: 422}); len(got) != 1 {
		t.Fatalf("status filter: %d traces", len(got))
	}
	if got := tr.Recorder().Traces(Filter{Limit: 2}); len(got) != 2 {
		t.Fatalf("limit: %d traces", len(got))
	}
	// Newest first.
	all := tr.Recorder().Traces(Filter{})
	if len(all) != 3 || all[0].Status != 422 {
		t.Fatalf("ordering: %d traces, first status %d", len(all), all[0].Status)
	}
	if got := tr.Recorder().Traces(Filter{MinDuration: time.Hour}); len(got) != 0 {
		t.Fatalf("min-duration filter: %d traces", len(got))
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	for i := 0; i < 3; i++ {
		sp, _ := tr.StartRequest("HTTP", SpanContext{})
		sp.SetStatus(200)
		sp.End()
	}
	var buf bytes.Buffer
	if err := tr.Recorder().WriteJSONL(&buf, Filter{}); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var tc Trace
		if err := json.Unmarshal(sc.Bytes(), &tc); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if len(tc.TraceID) != 32 {
			t.Fatalf("trace ID %q", tc.TraceID)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("JSONL lines = %d, want 3", lines)
	}
}

func TestContextHelpers(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	sp, _ := tr.StartRequest("HTTP", SpanContext{})
	ctx := NewContext(t.Context(), sp)
	if FromContext(ctx) != sp {
		t.Fatal("FromContext lost the span")
	}
	if FromContext(t.Context()) != nil {
		t.Fatal("empty context must yield the nil no-op span")
	}
	if NewContext(t.Context(), nil) != t.Context() {
		t.Fatal("NewContext(nil span) must not wrap the context")
	}
	sp.End()
}

func TestSpanError(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	root, sc := tr.StartRequest("HTTP", SpanContext{})
	c := root.StartChild("exec")
	c.SetError("compute exploded")
	c.SetError("second message ignored")
	c.End()
	root.SetStatus(200) // error bubbles from the span even on 200
	root.End()
	got := tr.Recorder().Get(sc.TraceID.String())
	if got == nil || !got.Error {
		t.Fatal("span error must mark the trace errored")
	}
	for _, s := range got.Spans {
		if s.Name == "exec" && s.Error != "compute exploded" {
			t.Fatalf("span error %q", s.Error)
		}
	}
	if strings.Contains(got.Spans[0].Error+got.Spans[1].Error, "second") {
		t.Fatal("SetError must keep the first message")
	}
}
